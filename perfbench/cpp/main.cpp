// fem2_perfbench — the FEM-2 benchmark program.
//
//   fem2_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--work-dir DIR]
//
// Runs one workload for about S seconds and prints two JSON lines on
// stdout: the run's context (workload, seed, host fingerprint, failed
// checks) and, last, the result {"correct", "attempted", "failed",
// "metrics"}.  --trace 0 reports the end-to-end metrics; --trace 1 runs
// the traced variant and reports the per-layer metrics.  Exit status is 0
// whenever a result was printed; harness errors exit 1 without a result.
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},         {"wall_s", "s"},       {"ops_per_s", "1/s"},
      {"peak_rss_mb", "MiB"},   {"ok_ratio", "ratio"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        // hw
        {"hw.events", "count"},
        {"hw.ns_per_event", "ns"},
        {"hw.net_msgs", "count"},
        {"hw.local_msgs", "count"},
        {"hw.net_lat_p50_cycles", "cycles"},
        {"hw.net_lat_p99_cycles", "cycles"},
        {"hw.channel_busy_cycles", "cycles"},
        {"hw.pe_util", "ratio"},
        {"sim_cycles", "cycles"},
        {"sim_net_bytes", "bytes"},
        {"sim_mem_peak_bytes", "bytes"},
        // sysvm
        {"sysvm.msg.initiate", "count"},
        {"sysvm.msg.pause-notify", "count"},
        {"sysvm.msg.resume-child", "count"},
        {"sysvm.msg.terminate-notify", "count"},
        {"sysvm.msg.remote-call", "count"},
        {"sysvm.msg.remote-return", "count"},
        {"sysvm.msg.load-code", "count"},
        {"sysvm.kernel_dispatches", "count"},
        {"sysvm.steps", "count"},
        {"sysvm.ready_queue_peak", "count"},
        {"sysvm.core_ms", "ms"},
        {"sysvm.proc_ms", "ms"},
        // navm
        {"navm.step_ms", "ms"},
        {"navm.window_waits", "count"},
        {"navm.window_wait_p99_cycles", "cycles"},
        {"navm.cg_iters", "count"},
        // fem
        {"fem.assemble_ms", "ms"},
        {"fem.solve_ms", "ms"},
        {"fem.stress_ms", "ms"},
        {"fem.assemble_cycles", "cycles"},
        {"fem.solve_cycles", "cycles"},
        {"fem.stress_cycles", "cycles"},
        // la
        {"la.solve_p50_ms.cg", "ms"},
        {"la.solve_p50_ms.pcg", "ms"},
        {"la.solve_p50_ms.skyline", "ms"},
        {"la.solve_p50_ms.sor", "ms"},
        {"la.iters.cg", "count"},
        {"la.iters.pcg", "count"},
        {"la.iters.skyline", "count"},
        {"la.iters.sor", "count"},
        // hgraph + analyze
        {"analyze.hook_ms", "ms"},
        {"analyze.engine_hooks_ms", "ms"},
        {"analyze.snapshots", "count"},
        {"analyze.graphs_checked", "count"},
        {"analyze.messages_checked", "count"},
        {"analyze.accesses_tracked", "count"},
        {"analyze.findings", "count"},
    };
    // appvm + serve
    static const char* const verbs[] = {
        "store_results", "retrieve", "mesh",  "solve",
        "stresses",      "show",     "query", "history"};
    static std::vector<std::string> names;
    for (const char* verb : verbs) {
      names.push_back(std::string("serve.") + verb + ".p50_ms");
      names.push_back(std::string("serve.") + verb + ".p99_ms");
    }
    for (const auto& n : names) s.push_back({n.c_str(), "ms"});
    s.insert(s.end(), {
                          {"lat_p50_ms", "ms"},
                          {"lat_p99_ms", "ms"},
                          {"serve.peak_queue_depth", "count"},
                          {"serve.rejected", "count"},
                          {"write_p50_ms", "ms"},
                          {"write_p99_ms", "ms"},
                          // db
                          {"db.fsyncs_per_commit", "ratio"},
                          {"db.fsync_p50_ms", "ms"},
                          {"db.fsync_p99_ms", "ms"},
                          {"db.txns_per_batch", "ratio"},
                          {"db.checkpoints", "count"},
                          {"db.bytes_written_per_user_byte", "ratio"},
                          {"db.snapshot_bytes", "bytes"},
                          {"db.query_us", "us"},
                          {"db.recovery_ms", "ms"},
                          {"db.conflicts", "count"},
                          // the cost of tracing itself
                          {"trace.overhead_s", "s"},
                      });
    return s;
  }();
  return specs;
}

bool is_sim_workload(const std::string& name) {
  return name == "sim_pipeline" || name == "sim_checked";
}

bool is_serve_workload(const std::string& name) {
  return name == "serve_analyze";
}

}  // namespace perfbench

namespace {

int usage() {
  std::cerr << "usage: fem2_perfbench --workload sim_pipeline|sim_checked|"
               "serve_analyze --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  args.work_dir = ".bench_build/perfbench-work";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value != "0";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !(is_sim_workload(args.workload) ||
                         is_serve_workload(args.workload)))
    return usage();

  Report report;
  Fingerprint fp = host_fingerprint();
  if (!fp.optimized)
    std::cerr << "warning: fem2_perfbench was built without optimization\n";
  try {
    std::filesystem::create_directories(args.work_dir);
    if (is_sim_workload(args.workload))
      run_sim(args, report, fp);
    else
      run_serve(args, report, fp);
  } catch (const std::exception& e) {
    std::cerr << "fem2_perfbench: " << e.what() << "\n";
    return 1;
  }
  if (report.attempted == 0) {
    std::cerr << "fem2_perfbench: no operation ran\n";
    return 1;
  }
  report.set("peak_rss_mb", peak_rss_mib());
  report.set("ok_ratio", static_cast<double>(report.attempted - report.failed) /
                             static_cast<double>(report.attempted));

  const bool correct = report.failed == 0 && report.problems.empty();
  const auto& catalogue =
      args.trace ? per_layer_metrics() : end_to_end_metrics();
  const std::string context =
      context_json(args.workload, args.seed, args.trace, fp, report);
  const std::string result = result_json(report, correct, catalogue);
  const std::string path = args.work_dir + "/result-" + args.workload +
                           "-seed" + std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0") + ".json";
  std::ofstream(path) << "{\"context\": " << context
                      << ", \"result\": " << result << "}\n";
  std::cout << context << "\n" << result << std::endl;
  return 0;
}

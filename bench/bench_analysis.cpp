// Analysis-pass overhead on the E1 workload (ISSUE: "a new
// bench_analysis.cpp measuring the overhead of conformance checking on the
// E-series workloads").
//
// The analyzer watches the simulation from the host, so the quantity that
// matters is host wall-clock of the instrumented run versus the bare run —
// simulated cycles are identical by construction (observation never
// schedules work).  Acceptance: conformance-mode overhead < 3x on E1.
#include "bench_common.hpp"

#include <chrono>
#include <optional>

#include "analyze/analyzer.hpp"
#include "analyze/model_check.hpp"
#include "analyze/verify.hpp"
#include "support/strings.hpp"

using namespace fem2;

namespace {

struct Mode {
  const char* name;
  std::optional<analyze::AnalyzerOptions> options;  // nullopt = bare run
};

struct Measurement {
  double host_ms = 0.0;
  hw::Cycles simulated = 0;
  std::size_t findings = 0;
  analyze::AnalyzerStats stats;
};

Measurement run_mode(const fem::StructureModel& model, const Mode& mode) {
  bench::Stack stack(bench::machine_shape(4, 4));
  std::optional<analyze::Analyzer> analyzer;
  if (mode.options) analyzer.emplace(*stack.runtime, *mode.options);

  const auto start = std::chrono::steady_clock::now();
  (void)fem::solve_static_parallel(model, "tip-shear", *stack.runtime,
                                   {.workers = 8, .tolerance = 1e-8});
  const auto stop = std::chrono::steady_clock::now();

  Measurement m;
  m.host_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  m.simulated = stack.machine->now();
  if (analyzer) {
    analyzer->check_now();
    m.findings = analyzer->findings().size();
    m.stats = analyzer->stats();
  }
  return m;
}

analyze::AnalyzerOptions make_options(bool conformance, bool race,
                                      bool deadlock, std::size_t stride) {
  analyze::AnalyzerOptions o;
  o.conformance = conformance;
  o.race_detection = race;
  o.deadlock_detection = deadlock;
  o.snapshot_stride = stride;
  return o;
}

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// A2: static verification cost.  The verifier runs offline (no simulation
/// attached), so the quantity is plain wall time — and for the model
/// checker, explored states per second as the state-space bound grows.
void bench_static_verification() {
  support::Table table("A2 static verification");
  table.set_header({"pass", "config", "states", "transitions", "host ms",
                    "kstates/s"});

  {
    analyze::VerifyOptions options;
    options.protocols = false;  // grammar + rule passes only
    const auto start = std::chrono::steady_clock::now();
    const auto report = analyze::verify_specs(options);
    const double ms = elapsed_ms(start);
    table.add_row({"grammar+rules",
                   std::to_string(report.stats.grammars) + " grammars, " +
                       std::to_string(report.stats.rules) + " rules",
                   "-", "-", support::format_double(ms, 1), "-"});
    bench::note("a2_verify_specs_ms", ms, "ms");
    bench::note("a2_verify_findings",
                static_cast<double>(report.findings.size()), "findings");
  }

  struct MsgConfig {
    const char* name;
    analyze::MessagingModelOptions options;
  };
  std::vector<MsgConfig> msg_configs = {
      {"m=2 retx=2 cap=2", {}},
      {"m=3 retx=3 cap=2", {.messages = 3, .max_retransmits = 3}},
  };
  for (const auto& [name, options] : msg_configs) {
    const auto start = std::chrono::steady_clock::now();
    const auto result = analyze::check_messaging(options);
    const double ms = elapsed_ms(start);
    table.add_row({"messaging", name, std::to_string(result.states),
                   std::to_string(result.transitions),
                   support::format_double(ms, 1),
                   support::format_double(result.states / ms, 0)});
  }
  {
    const auto start = std::chrono::steady_clock::now();
    const auto result = analyze::check_messaging(
        {.messages = 3, .max_retransmits = 3});
    const double ms = elapsed_ms(start);
    bench::note("a2_messaging_states", static_cast<double>(result.states),
                "states");
    bench::note("a2_messaging_states_per_sec", result.states / ms * 1e3,
                "states/s");
  }

  struct DbConfig {
    const char* name;
    analyze::HealthModelOptions options;
  };
  std::vector<DbConfig> db_configs = {
      {"commits=3 ckpt=2", {}},
      {"commits=7 ckpt=3", {.commits = 7, .checkpoints = 3}},
  };
  for (const auto& [name, options] : db_configs) {
    const auto start = std::chrono::steady_clock::now();
    const auto result = analyze::check_db_health(options);
    const double ms = elapsed_ms(start);
    table.add_row({"db-health", name, std::to_string(result.states),
                   std::to_string(result.transitions),
                   support::format_double(ms, 1),
                   support::format_double(result.states / ms, 0)});
  }
  {
    const auto start = std::chrono::steady_clock::now();
    const auto result =
        analyze::check_db_health({.commits = 7, .checkpoints = 3});
    const double ms = elapsed_ms(start);
    bench::note("a2_db_health_states", static_cast<double>(result.states),
                "states");
    bench::note("a2_db_health_states_per_sec", result.states / ms * 1e3,
                "states/s");
  }

  table.print(std::cout);
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bench::init("A1", argc, argv);
  bench::print_header("bench_analysis",
                      "host overhead of the fem2_analyze passes on the E1 "
                      "solve (4 clusters x 4 PEs, 8 CG workers)");

  std::vector<Mode> modes = {
      {"bare (no analyzer)", std::nullopt},
      {"race+deadlock only", make_options(false, true, true, 64)},
      {"conformance s=256", make_options(true, false, false, 256)},
      {"conformance s=64", make_options(true, false, false, 64)},
      {"full s=64", make_options(true, true, true, 64)},
      {"full s=16", make_options(true, true, true, 16)},
  };
  if (bench::smoke())
    modes = {{"bare (no analyzer)", std::nullopt},
             {"full s=64", make_options(true, true, true, 64)}};

  std::vector<std::pair<std::size_t, std::size_t>> grids = {{16, 8}, {32, 8}};
  if (bench::smoke()) grids = {{16, 8}};
  for (const auto& [nx, ny] : grids) {
    const auto model = bench::cantilever_sheet(nx, ny);
    support::Table table("E1 grid " + std::to_string(nx) + "x" +
                         std::to_string(ny));
    table.set_header({"mode", "host ms", "overhead", "findings", "snapshots",
                      "graphs", "messages", "accesses"});

    // Warm-up: first run pays allocator/page-cache noise for the whole
    // binary; measure it but key ratios off the bare run that follows.
    (void)run_mode(model, modes[0]);
    const auto bare = run_mode(model, modes[0]);

    for (const auto& mode : modes) {
      const auto m = run_mode(model, mode);
      const double ratio = m.host_ms / bare.host_ms;
      table.add_row({mode.name, support::format_double(m.host_ms, 1),
                     support::format_double(ratio, 2) + "x",
                     std::to_string(m.findings),
                     std::to_string(m.stats.snapshots),
                     std::to_string(m.stats.graphs_checked),
                     std::to_string(m.stats.messages_checked),
                     std::to_string(m.stats.accesses_tracked)});
    }
    bench::note("simulated_cycles_" + std::to_string(nx) + "x" +
                    std::to_string(ny),
                static_cast<double>(bare.simulated), "cycles");
    table.print(std::cout);
    std::cout << "\n";
  }

  bench_static_verification();

  std::cout << "Simulated cycles are identical across modes: the analyzer\n"
               "only observes; it never schedules or charges work.\n";
  return bench::finish();
}

// Simulator workloads.
//
//   sim_pipeline — the E1 pipeline on one large cantilever sheet: parallel
//                  assembly (8 tasks), distributed CG (8 workers) and
//                  parallel stress recovery (8 tasks), each on a fresh
//                  4 clusters x 4 PEs machine with the flat topology.
//   sim_checked  — the `fem2_analyze --check` shape: a 32-worker
//                  distributed CG on 8 clusters x 4 PEs over a small sheet
//                  with analyze::Analyzer attached at its defaults.
//
// One iteration is a fixed amount of work on one seed-derived model; a run
// makes a fixed number of iterations, sized from --seconds, and reports
// medians.  Both run the host engine serially (FEM2_HOST_THREADS=1).
//
// Host times are normalized by calibration runs around each iteration
// (calibrate.hpp); ops_per_s is model DOFs solved per host second, a fixed
// unit of work however many simulated events the solve takes.  The
// traced run alternates untraced and traced iterations; the traced ones
// wrap the three fem calls in phase spans and attach an ObserverProbe for
// step, procedure and analyzer hook spans.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>

#include "analyze/analyzer.hpp"
#include "bench_common.hpp"
#include "calibrate.hpp"
#include "fem/passembly.hpp"
#include "fem/solver.hpp"
#include "support/rng.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace fem2;

constexpr const char* kLoadSet = "tip-shear";
constexpr double kTolerance = 1e-10;
constexpr double kDisplacementTolerance = 1e-6;
constexpr std::size_t kKeptSpans = 1u << 16;  ///< spans written per run

struct SimShape {
  std::size_t clusters = 4;
  std::size_t pes_per_cluster = 4;
  std::size_t nx = 192;
  std::size_t ny = 48;
  double load = 1'000.0;
  std::uint32_t workers = 8;
  bool checked = false;
  double nominal_iteration_s = 0.5;  ///< untraced, on the reference host
};

/// The workload's model and machine; the seed sets the load magnitude.
/// The mesh stays fixed: one element column more or less moved peak RSS by
/// 4-8% between seeds.
SimShape shape_for(const std::string& workload, std::uint64_t seed) {
  support::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  SimShape s;
  if (workload == "sim_checked") {
    s.clusters = 8;
    s.nx = 64;
    s.ny = 16;
    s.workers = 32;
    s.checked = true;
    s.nominal_iteration_s = 0.9;
  }
  s.load = rng.uniform(800.0, 1'200.0);
  return s;
}

/// The experiments' cantilever sheet (bench/bench_common.hpp).
fem::StructureModel make_sheet(const SimShape& s) {
  return bench::cantilever_sheet(s.nx, s.ny, s.load);
}

/// A fresh machine + OS + runtime with the parallel ops registered.
struct Stack : bench::Stack {
  explicit Stack(const SimShape& s)
      : bench::Stack(bench::machine_shape(s.clusters, s.pes_per_cluster)) {}
};

/// Everything one iteration produced.
struct Iteration {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double assemble_ms = 0.0, solve_ms = 0.0, stress_ms = 0.0;
  std::uint64_t events = 0;
  /// Simulated metrics; must be bit-identical across iterations of a run.
  std::map<std::string, double> sim;
  std::string signature;  ///< metric dumps of every machine and OS
  fem::StaticSolution solution;
  std::uint64_t findings = 0;
  analyze::AnalyzerStats analyzer_stats;
  Samples window_waits;  ///< traced iterations only
};

void merge_histogram(hw::LatencyHistogram& into,
                     const hw::LatencyHistogram& from) {
  if (from.count == 0) return;
  if (into.buckets.size() < from.buckets.size())
    into.buckets.resize(from.buckets.size(), 0);
  for (std::size_t i = 0; i < from.buckets.size(); ++i)
    into.buckets[i] += from.buckets[i];
  into.min = into.count == 0 ? from.min : std::min(into.min, from.min);
  into.max = std::max(into.max, from.max);
  into.count += from.count;
  into.sum += from.sum;
}

/// Fold the simulated metrics of the machines one iteration used.
void collect_sim_metrics(const std::vector<const Stack*>& stacks,
                         Iteration& it) {
  hw::LatencyHistogram latency;
  double cycles = 0, net_bytes = 0, net_msgs = 0, local_msgs = 0;
  double channel_busy = 0, busy = 0, capacity = 0, mem_peak = 0;
  double dispatches = 0, steps = 0, ready_peak = 0;
  std::array<double, sysvm::kMessageTypeCount> msgs{};
  std::ostringstream signature;
  for (const Stack* s : stacks) {
    const auto& m = s->machine->metrics();
    const auto& o = s->os->metrics();
    const auto elapsed = s->machine->now();
    it.events += s->machine->engine().processed();
    cycles += static_cast<double>(elapsed);
    net_bytes += static_cast<double>(m.network.bytes);
    net_msgs += static_cast<double>(m.network.messages);
    local_msgs += static_cast<double>(m.network.local_messages);
    channel_busy += static_cast<double>(m.network.channel_busy_cycles);
    busy += static_cast<double>(m.total_busy_cycles());
    capacity += static_cast<double>(elapsed) *
                static_cast<double>(s->machine->config().total_pes());
    mem_peak = std::max(mem_peak, static_cast<double>(m.memory_high_water()));
    merge_histogram(latency, m.network.latency);
    for (std::size_t t = 0; t < sysvm::kMessageTypeCount; ++t)
      msgs[t] += static_cast<double>(o.messages_sent[t]);
    dispatches += static_cast<double>(o.kernel_dispatches);
    steps += static_cast<double>(o.steps_executed);
    ready_peak = std::max(ready_peak, static_cast<double>(o.ready_queue_peak));
    signature << elapsed << "\n" << m.dump() << o.dump();
  }
  it.signature = signature.str();
  it.sim["sim_cycles"] = cycles;
  it.sim["sim_net_bytes"] = net_bytes;
  it.sim["sim_mem_peak_bytes"] = mem_peak;
  it.sim["hw.events"] = static_cast<double>(it.events);
  it.sim["hw.net_msgs"] = net_msgs;
  it.sim["hw.local_msgs"] = local_msgs;
  it.sim["hw.net_lat_p50_cycles"] = static_cast<double>(latency.quantile(0.5));
  it.sim["hw.net_lat_p99_cycles"] =
      static_cast<double>(latency.quantile(0.99));
  it.sim["hw.channel_busy_cycles"] = channel_busy;
  it.sim["hw.pe_util"] = capacity > 0 ? busy / capacity : 0.0;
  for (std::size_t t = 0; t < sysvm::kMessageTypeCount; ++t) {
    const std::string type(
        sysvm::message_type_name(static_cast<sysvm::MessageType>(t)));
    it.sim["sysvm.msg." + type] = msgs[t];
  }
  it.sim["sysvm.kernel_dispatches"] = dispatches;
  it.sim["sysvm.steps"] = steps;
  it.sim["sysvm.ready_queue_peak"] = ready_peak;
  it.sim["navm.cg_iters"] =
      static_cast<double>(it.solution.stats.iterations);
}

double ms_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now()) * 1e3;
}

/// One sim_pipeline iteration: set up three machines, then assemble, solve
/// and recover stresses, each on its own machine (as E1 does).
Iteration run_pipeline(const SimShape& shape, SpanTracer* tracer) {
  Iteration it;
  const auto t_setup = Clock::now();
  const auto model = make_sheet(shape);
  Stack assembly(shape), solve(shape), stress(shape);
  fem::register_assembly_tasks(*assembly.runtime);
  fem::register_stress_tasks(*stress.runtime);
  it.setup_s = seconds_between(t_setup, Clock::now());

  std::optional<ObserverProbe> probe;
  if (tracer) probe.emplace(*tracer, nullptr);
  for (Stack* s : {&assembly, &solve, &stress}) {
    if (probe) probe->attach(*s->runtime);
  }

  const auto t_run = Clock::now();
  fem::ParallelAssemblyStats assembly_stats;
  fem::ParallelStressStats stress_stats;
  {
    ScopedSpan span(tracer, SpanKind::Phase, "fem.assemble");
    const auto t0 = Clock::now();
    (void)fem::assemble_parallel(model, *assembly.runtime, shape.workers,
                                 &assembly_stats);
    it.assemble_ms = ms_since(t0);
  }
  {
    ScopedSpan span(tracer, SpanKind::Phase, "fem.solve");
    const auto t0 = Clock::now();
    it.solution = fem::solve_static_parallel(
        model, kLoadSet, *solve.runtime,
        {.workers = shape.workers, .tolerance = kTolerance});
    it.solve_ms = ms_since(t0);
  }
  {
    ScopedSpan span(tracer, SpanKind::Phase, "fem.stress");
    const auto t0 = Clock::now();
    (void)fem::compute_stresses_parallel(model, it.solution.displacements,
                                         *stress.runtime, shape.workers,
                                         &stress_stats);
    it.stress_ms = ms_since(t0);
  }
  it.wall_s = seconds_between(t_run, Clock::now());

  if (probe) {
    for (Stack* s : {&assembly, &solve, &stress}) probe->detach(*s->runtime);
    it.window_waits = probe->window_waits();
  }
  collect_sim_metrics({&assembly, &solve, &stress}, it);
  it.sim["fem.assemble_cycles"] = static_cast<double>(assembly_stats.elapsed);
  it.sim["fem.solve_cycles"] = static_cast<double>(solve.machine->now());
  it.sim["fem.stress_cycles"] = static_cast<double>(stress_stats.elapsed);
  return it;
}

/// One sim_checked iteration.  With `analyzer_on` false the same solve runs
/// without the analyzer (the traced run's baseline for analyzer cost).
Iteration run_checked(const SimShape& shape, SpanTracer* tracer,
                      bool analyzer_on = true) {
  Iteration it;
  const auto t_setup = Clock::now();
  const auto model = make_sheet(shape);
  Stack stack(shape);
  std::optional<analyze::Analyzer> analyzer;
  if (analyzer_on) analyzer.emplace(*stack.runtime);
  it.setup_s = seconds_between(t_setup, Clock::now());

  std::optional<ObserverProbe> probe;
  if (tracer) {
    probe.emplace(*tracer, analyzer ? &*analyzer : nullptr);
    probe->attach(*stack.runtime);
  }

  const auto t_run = Clock::now();
  {
    ScopedSpan span(tracer, SpanKind::Phase, "fem.solve");
    it.solution = fem::solve_static_parallel(
        model, kLoadSet, *stack.runtime,
        {.workers = shape.workers, .tolerance = kTolerance});
    if (analyzer) analyzer->check_now();
    it.solve_ms = ms_since(t_run);
  }
  it.wall_s = seconds_between(t_run, Clock::now());

  if (probe) {
    probe->detach(*stack.runtime);
    it.window_waits = probe->window_waits();
  }
  if (analyzer) {
    it.findings = analyzer->findings().size();
    it.analyzer_stats = analyzer->stats();
  }
  collect_sim_metrics({&stack}, it);
  it.sim["fem.assemble_cycles"] = 0.0;
  it.sim["fem.solve_cycles"] = static_cast<double>(stack.machine->now());
  it.sim["fem.stress_cycles"] = 0.0;
  return it;
}

double relative_difference(const std::vector<double>& a,
                           const std::vector<double>& b) {
  if (a.size() != b.size()) return INFINITY;
  double diff = 0.0, norm = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff += (a[i] - b[i]) * (a[i] - b[i]);
    norm += b[i] * b[i];
  }
  return norm > 0.0 ? std::sqrt(diff / norm) : std::sqrt(diff);
}

/// Output checks of one iteration, each counted as an operation.
void check_iteration(const Iteration& it, const fem::Displacements& host,
                     const std::string& reference_signature,
                     Report& report) {
  report.tally(true);  // the iteration itself ran
  if (!it.solution.stats.converged)
    report.fail("distributed CG did not converge");
  else
    report.tally(true);
  const double diff =
      relative_difference(it.solution.displacements.values, host.values);
  if (!(diff <= kDisplacementTolerance)) {
    std::ostringstream os;
    os << "distributed displacements differ from the host skyline solve by "
       << diff << " (relative)";
    report.fail(os.str());
  } else {
    report.tally(true);
  }
  if (it.findings != 0)
    report.fail("analyzer reported " + std::to_string(it.findings) +
                " findings");
  if (it.signature != reference_signature)
    report.fail("simulated metrics differ between iterations of one seed");
  else
    report.tally(true);
}

}  // namespace

void run_sim(const RunArgs& args, Report& report, Fingerprint& fp) {
  ::setenv("FEM2_HOST_THREADS", "1", 1);
  fp.host_engine_threads = 1;
  fp.client_threads = 1;
  const SimShape shape = shape_for(args.workload, args.seed);
  const auto model = make_sheet(shape);
  const fem::Displacements host =
      fem::solve_static(model, kLoadSet,
                        {.kind = fem::SolverKind::SkylineDirect})
          .displacements;
  const auto dofs = static_cast<double>(model.total_dofs());

  const auto iterate = [&](SpanTracer* tracer) {
    return shape.checked ? run_checked(shape, tracer)
                         : run_pipeline(shape, tracer);
  };

  Samples setup_s, wall_s, dof_rate, raw_wall_s, factors;
  Samples traced_wall_s, step_ms, proc_ms, hook_ms, core_ms, engine_hooks_ms;
  Samples assemble_ms, solve_ms, stress_ms, ns_per_event;
  std::optional<Iteration> last;  ///< the last traced iteration
  std::string reference;
  SpanTracer trace_spans;
  // A fixed amount of work: as many iterations as take about --seconds on
  // the reference host; a traced round costs 2-3 iterations.  Every
  // iteration is bracketed by calibration runs (calibrate.hpp).
  int rounds = std::max(3, static_cast<int>(std::lround(
                               args.seconds / shape.nominal_iteration_s)));
  if (args.trace) rounds = std::max(2, rounds / (shape.checked ? 3 : 2));
  // One untimed warm-up iteration (still checked) fills caches first.
  {
    Iteration warm = iterate(nullptr);
    reference = warm.signature;
    check_iteration(warm, host, reference, report);
  }
  SpeedTracker speed(1, report.series["calibration_ms"]);
  for (int round = 0; round < rounds; ++round) {
    Iteration it = iterate(nullptr);
    const double f = speed.next();
    check_iteration(it, host, reference, report);
    factors.add(f);
    raw_wall_s.add(it.wall_s);
    report.series["raw_wall_s"].push_back(it.wall_s);
    setup_s.add(it.setup_s * f);
    wall_s.add(it.wall_s * f);
    dof_rate.add(dofs / (it.wall_s * f));
    ns_per_event.add(it.wall_s * f * 1e9 / static_cast<double>(it.events));
    assemble_ms.add(it.assemble_ms * f);
    solve_ms.add(it.solve_ms * f);
    stress_ms.add(it.stress_ms * f);

    if (args.trace) {
      // Traced twin of the iteration: same model, spans on.
      SpanTracer tracer(kKeptSpans);
      Iteration traced = iterate(&tracer);
      const double ft = speed.next();
      check_iteration(traced, host, reference, report);
      if (tracer.negative_self() || !tracer.balanced())
        report.fail("a traced span had negative self time");
      traced_wall_s.add(traced.wall_s * ft);
      step_ms.add(tracer.self_ms(SpanKind::Step) * ft);
      proc_ms.add(tracer.self_ms(SpanKind::Procedure) * ft);
      hook_ms.add(tracer.self_ms(SpanKind::Hook) * ft);
      double core = tracer.self_ms(SpanKind::Phase) * ft;
      if (shape.checked) {
        // The analyzer's quiescent/idle engine hooks have no public
        // accessor to wrap, so their cost shows as phase self time: take
        // it as the difference to the same solve traced without analyzer.
        SpanTracer bare(0);
        Iteration baseline = run_checked(shape, &bare, false);
        const double fb = speed.next();
        check_iteration(baseline, host, reference, report);
        if (bare.negative_self() || !bare.balanced())
          report.fail("a traced span had negative self time");
        const double bare_core = bare.self_ms(SpanKind::Phase) * fb;
        if (core < bare_core)
          report.fail("analyzer engine-hook time came out negative");
        engine_hooks_ms.add(core - bare_core);
        core = bare_core;
      }
      core_ms.add(core);
      last.emplace(std::move(traced));
      trace_spans = std::move(tracer);
    }
  }
  report.raw["wall_s"] = raw_wall_s.median();
  report.raw["speed_factor"] = factors.median();

  if (!args.trace) {
    report.set("setup_s", setup_s.median());
    report.set("wall_s", wall_s.median());
    report.set("ops_per_s", dof_rate.median());
    return;
  }

  for (const auto& [name, value] : last->sim) report.set(name, value);
  report.set("hw.ns_per_event", ns_per_event.median());
  report.set("sysvm.core_ms", core_ms.median());
  report.set("sysvm.proc_ms", proc_ms.median());
  report.set("navm.step_ms", step_ms.median());
  report.set("navm.window_waits",
             static_cast<double>(last->window_waits.size()));
  report.set("navm.window_wait_p99_cycles",
             last->window_waits.reported_quantile(0.99));
  report.set("fem.assemble_ms", shape.checked ? 0.0 : assemble_ms.median());
  report.set("fem.solve_ms", solve_ms.median());
  report.set("fem.stress_ms", shape.checked ? 0.0 : stress_ms.median());
  if (shape.checked) {
    const auto& a = last->analyzer_stats;
    report.set("analyze.hook_ms", hook_ms.median());
    report.set("analyze.engine_hooks_ms", engine_hooks_ms.median());
    report.set("analyze.snapshots", static_cast<double>(a.snapshots));
    report.set("analyze.graphs_checked", static_cast<double>(a.graphs_checked));
    report.set("analyze.messages_checked",
               static_cast<double>(a.messages_checked));
    report.set("analyze.accesses_tracked",
               static_cast<double>(a.accesses_tracked));
    report.set("analyze.findings", static_cast<double>(last->findings));
  }
  report.set("trace.overhead_s", traced_wall_s.median() - wall_s.median());

  const std::string path = args.work_dir + "/trace-" + args.workload +
                           "-seed" + std::to_string(args.seed) + ".jsonl";
  std::ofstream out(path);
  trace_spans.write(out, args.workload);
}

}  // namespace perfbench

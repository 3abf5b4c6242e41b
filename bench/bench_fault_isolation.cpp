// E5 — "provide reconfigurability to isolate faulty hardware components"
// (Hardware architecture).
//
// FEM-2: the same distributed solve with PEs failed before the run
// (including kernel PEs — the lowest surviving PE is promoted) and with a
// PE killed mid-run (in-flight work is re-executed elsewhere).
// FEM-1 contrast: the static array stalls on any failure and needs a
// costly manual repartition + restart.
#include "bench_common.hpp"

#include "fem/assembly.hpp"
#include "fem1/fem1.hpp"

using namespace fem2;

namespace {

void fem2_failures() {
  const auto model = bench::cantilever_sheet(24, 8);
  const auto config = bench::machine_shape(4, 4);

  support::Table table(
      "FEM-2: solve with failed PEs (4 clusters x 4 PEs, 8 CG workers)");
  table.set_header({"failed PEs", "where", "completed", "cycles",
                    "slowdown", "steps redone"});

  hw::Cycles baseline = 0;
  struct Case {
    std::size_t count;
    const char* where;
    std::function<void(hw::Machine&)> inject;
  };
  const std::vector<Case> cases = {
      {0, "-", [](hw::Machine&) {}},
      {1, "worker",
       [](hw::Machine& m) { m.fail_pe({hw::ClusterId{1}, 2}); }},
      {2, "kernels (promote)",
       [](hw::Machine& m) {
         m.fail_pe({hw::ClusterId{0}, 0});
         m.fail_pe({hw::ClusterId{2}, 0});
       }},
      {4, "one per cluster",
       [](hw::Machine& m) {
         for (std::uint32_t c = 0; c < 4; ++c)
           m.fail_pe({hw::ClusterId{c}, 3});
       }},
      {8, "half the machine",
       [](hw::Machine& m) {
         for (std::uint32_t c = 0; c < 4; ++c) {
           m.fail_pe({hw::ClusterId{c}, 2});
           m.fail_pe({hw::ClusterId{c}, 3});
         }
       }},
      {2, "mid-run kills",
       [](hw::Machine& m) {
         // Catch PEs in the act: kill one worker per phase of the solve.
         m.engine().schedule(400'000,
                             [&m] { m.fail_pe({hw::ClusterId{1}, 1}); });
         m.engine().schedule(800'000,
                             [&m] { m.fail_pe({hw::ClusterId{2}, 2}); });
       }},
  };

  for (const auto& c : cases) {
    bench::Stack stack(config);
    c.inject(*stack.machine);
    const auto solution = fem::solve_static_parallel(
        model, "tip-shear", *stack.runtime, {.workers = 8, .tolerance = 1e-8});
    const auto elapsed = stack.machine->now();
    if (baseline == 0) baseline = elapsed;
    table.row()
        .cell(static_cast<std::uint64_t>(c.count))
        .cell(c.where)
        .cell(solution.stats.converged ? "yes" : "NO")
        .cell(static_cast<std::uint64_t>(elapsed))
        .cell(static_cast<double>(elapsed) / static_cast<double>(baseline), 2)
        .cell(stack.os->metrics().steps_redone);
    bench::note("failed_pes_" + std::to_string(&c - cases.data()) + "_cycles",
                static_cast<double>(elapsed), "cycles");
  }
  table.print(std::cout);
}

// Whole-cluster losses: the OS re-initiates lost tasks from saved
// parameters (restarting task trees where necessary) and the solve still
// converges to the bit-identical answer.
void fem2_cluster_loss() {
  const auto model = bench::cantilever_sheet(24, 8);
  const auto config = bench::machine_shape(4, 4);
  sysvm::OsOptions reliable;
  reliable.reliable_transport = true;

  // Fault-free reference: elapsed cycles (for kill scheduling and slowdown)
  // and the displacement vector (for the bit-identical check).
  hw::Cycles baseline = 0;
  std::vector<double> reference;
  {
    bench::Stack stack(config, reliable);
    const auto solution = fem::solve_static_parallel(
        model, "tip-shear", *stack.runtime, {.workers = 8, .tolerance = 1e-8});
    baseline = stack.machine->now();
    reference = solution.displacements.values;
  }

  support::Table table(
      "FEM-2: solve with cluster losses (4 clusters x 4 PEs, reliable "
      "transport)");
  table.set_header({"clusters killed", "at", "completed", "bit-identical",
                    "slowdown", "relocated", "trees restarted", "retrans"});

  struct Case {
    const char* label;
    const char* when;
    std::vector<std::pair<double, std::uint32_t>> kills;  ///< (fraction, id)
  };
  const std::vector<Case> cases = {
      {"none", "-", {}},
      {"1 (cluster 3)", "25% of solve", {{0.25, 3}}},
      {"1 (cluster 1)", "50% of solve", {{0.50, 1}}},
      {"2 (clusters 2,3)", "30% / 60%", {{0.30, 2}, {0.60, 3}}},
  };

  for (const auto& c : cases) {
    bench::Stack stack(config, reliable);
    for (const auto& [fraction, id] : c.kills) {
      const auto at = static_cast<hw::Cycles>(fraction *
                                              static_cast<double>(baseline));
      stack.machine->engine().schedule_at(at, [&m = *stack.machine, id] {
        m.fail_cluster(hw::ClusterId{id});
      });
    }
    const auto solution = fem::solve_static_parallel(
        model, "tip-shear", *stack.runtime, {.workers = 8, .tolerance = 1e-8});
    const auto elapsed = stack.machine->now();
    const auto& os = stack.os->metrics();
    table.row()
        .cell(c.label)
        .cell(c.when)
        .cell(solution.stats.converged ? "yes" : "NO")
        .cell(solution.displacements.values == reference ? "yes" : "NO")
        .cell(static_cast<double>(elapsed) / static_cast<double>(baseline), 2)
        .cell(os.tasks_relocated)
        .cell(os.trees_restarted)
        .cell(os.retransmissions);
    bench::note("cluster_loss_" + std::to_string(&c - cases.data()) +
                    "_cycles",
                static_cast<double>(elapsed), "cycles");
  }
  table.print(std::cout);
}

// Lossy inter-cluster network: the seq/ack/retransmit protocol masks drops;
// the answer never changes, only the cycle count.
void fem2_lossy_network() {
  const auto model = bench::cantilever_sheet(24, 8);
  const auto config = bench::machine_shape(4, 4);
  sysvm::OsOptions reliable;
  reliable.reliable_transport = true;

  support::Table table(
      "FEM-2: solve on a lossy network (4 clusters x 4 PEs, reliable "
      "transport)");
  table.set_header({"drop prob", "completed", "bit-identical", "cycles",
                    "slowdown", "pkts dropped", "retrans", "dups dropped"});

  hw::Cycles baseline = 0;
  std::vector<double> reference;
  for (const double p : {0.0, 0.005, 0.02, 0.10}) {
    bench::Stack stack(config, reliable);
    stack.machine->set_drop_probability(p);
    const auto solution = fem::solve_static_parallel(
        model, "tip-shear", *stack.runtime, {.workers = 8, .tolerance = 1e-8});
    const auto elapsed = stack.machine->now();
    if (baseline == 0) {
      baseline = elapsed;
      reference = solution.displacements.values;
    }
    const auto& os = stack.os->metrics();
    table.row()
        .cell(p * 100.0, 1)
        .cell(solution.stats.converged ? "yes" : "NO")
        .cell(solution.displacements.values == reference ? "yes" : "NO")
        .cell(static_cast<std::uint64_t>(elapsed))
        .cell(static_cast<double>(elapsed) / static_cast<double>(baseline), 2)
        .cell(stack.machine->metrics().network.dropped_messages)
        .cell(os.retransmissions)
        .cell(os.duplicates_dropped);
  }
  table.print(std::cout);
}

void fem1_contrast() {
  const auto model = bench::cantilever_sheet(24, 8);
  // One relaxation serves every array: failures change only its cost.
  const auto system = fem::assemble(model);
  const auto relaxation = fem1::fem1_relax(
      system.stiffness, system.load_vector(model.load_sets.at("tip-shear")),
      fem1::Fem1Solver::GaussSeidel, 1e-8);

  support::Table table("FEM-1 baseline: static array of 36 processors");
  table.set_header({"failed PEs", "strategy", "status", "cycles"});
  for (const auto& [failed, repartition] :
       {std::tuple<std::size_t, bool>{0, false},
        {1, false},
        {1, true},
        {4, true},
        {8, true}}) {
    fem1::Fem1Config config;
    config.failed_processors = failed;
    config.manual_repartition = repartition;
    const auto result =
        fem1::fem1_cost(system.stiffness, relaxation, config);
    table.row()
        .cell(static_cast<std::uint64_t>(failed))
        .cell(failed == 0 ? "-" : (repartition ? "manual repartition" : "none"))
        .cell(result.completed
                  ? (result.converged ? "completed" : "no convergence")
                  : "STALLED")
        .cell(static_cast<std::uint64_t>(result.elapsed));
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  bench::init("E5", argc, argv);
  bench::print_header("E5 bench_fault_isolation",
                      "reconfigurability isolates faulty components");
  fem2_failures();
  std::cout << "\n";
  fem2_cluster_loss();
  std::cout << "\n";
  fem2_lossy_network();
  std::cout << "\n";
  fem1_contrast();
  std::cout << "\nShape check: FEM-2 completes under every failure pattern "
               "with graceful slowdown\n(kernel failover + step "
               "re-execution + cluster-loss recovery + retransmission),\n"
               "always reaching the bit-identical answer; the FEM-1 static "
               "array stalls until\na costly manual repartition.\n";
  return bench::finish();
}

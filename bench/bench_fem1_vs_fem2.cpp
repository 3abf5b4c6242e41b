// E7 — the motivating comparison: the original Finite Element Machine
// (bottom-up design: static node-per-processor array, nearest-neighbour
// links + global bus, synchronous relaxation) against FEM-2 (top-down
// design: clusters, dynamic tasks, distributed CG).
#include "bench_common.hpp"

#include <algorithm>

#include "fem/assembly.hpp"
#include "fem1/fem1.hpp"
#include "support/strings.hpp"

using namespace fem2;

namespace {

/// One sheet relaxed once on FEM-1 (Gauss-Seidel, its best case): the
/// sweep count does not depend on the array, so every machine size prices
/// the same relaxation.
struct Fem1Sheet {
  std::size_t nx = 0;
  std::size_t ny = 0;
  fem::StructureModel model;
  fem::AssembledSystem system;
  fem1::Fem1Relaxation relaxation;
};

Fem1Sheet relax_sheet(std::size_t nx, std::size_t ny) {
  Fem1Sheet sheet{nx, ny, bench::cantilever_sheet(nx, ny), {}, {}};
  sheet.system = fem::assemble(sheet.model);
  const auto rhs =
      sheet.system.load_vector(sheet.model.load_sets.at("tip-shear"));
  sheet.relaxation =
      fem1::fem1_relax(sheet.system.stiffness, rhs,
                       fem1::Fem1Solver::GaussSeidel, 1e-8, 2'000'000);
  return sheet;
}

fem1::Fem1Result fem1_run(const Fem1Sheet& sheet, std::size_t processors) {
  fem1::Fem1Config config;
  config.processors = processors;
  return fem1::fem1_cost(sheet.system.stiffness, sheet.relaxation, config);
}

/// Returns the relaxed sheets for the machine-size sweep.
std::vector<Fem1Sheet> problem_sweep() {
  support::Table table(
      "Time-to-solution, 32 PEs each (FEM-1: 32-PE array + bus, "
      "Gauss-Seidel; FEM-2: 4x8 clusters, distributed CG)");
  table.set_header({"grid", "dofs", "FEM-1 iters", "FEM-1 Mcycles",
                    "FEM-2 iters", "FEM-2 Mcycles", "FEM-2 advantage"});

  std::vector<std::pair<std::size_t, std::size_t>> grids = {
      {8, 4}, {16, 8}, {32, 8}, {48, 12}};
  if (bench::smoke()) grids = {{8, 4}, {16, 8}};
  std::vector<Fem1Sheet> sheets;
  for (const auto& [nx, ny] : grids) {
    const Fem1Sheet& sheet = sheets.emplace_back(relax_sheet(nx, ny));
    const auto fem1_result = fem1_run(sheet, 32);

    bench::ParallelRun fem2_run(sheet.model, 8, bench::machine_shape(4, 8));

    const double ratio =
        fem1_result.converged
            ? static_cast<double>(fem1_result.elapsed) /
                  static_cast<double>(fem2_run.elapsed())
            : 0.0;
    table.row()
        .cell(std::to_string(nx) + "x" + std::to_string(ny))
        .cell(static_cast<std::uint64_t>(sheet.system.dofs.free_dofs))
        .cell(static_cast<std::uint64_t>(fem1_result.iterations))
        .cell(static_cast<double>(fem1_result.elapsed) / 1e6, 1)
        .cell(static_cast<std::uint64_t>(fem2_run.solution.stats.iterations))
        .cell(static_cast<double>(fem2_run.elapsed()) / 1e6, 1)
        .cell(ratio, 1);
    const std::string grid = std::to_string(nx) + "x" + std::to_string(ny);
    bench::note("fem1_cycles_" + grid,
                static_cast<double>(fem1_result.elapsed), "cycles");
    bench::note("fem2_cycles_" + grid,
                static_cast<double>(fem2_run.elapsed()), "cycles");
  }
  table.print(std::cout);
  return sheets;
}

void machine_size_sweep(const std::vector<Fem1Sheet>& sheets) {
  support::Table table(
      "Fixed 32x8 sheet, growing machines (FEM-1 Gauss-Seidel for its best "
      "case)");
  table.set_header({"PEs", "FEM-1 Mcycles", "FEM-1 utilization %",
                    "FEM-2 shape", "FEM-2 Mcycles", "advantage"});
  const std::size_t nx = bench::smoke() ? 16u : 32u;
  const Fem1Sheet& sheet = *std::find_if(
      sheets.begin(), sheets.end(),
      [&](const Fem1Sheet& s) { return s.nx == nx && s.ny == 8; });

  std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> machines = {
      {4, 1, 4}, {16, 2, 8}, {36, 6, 6}, {64, 8, 8}};
  if (bench::smoke()) machines = {{16, 2, 8}, {64, 8, 8}};
  for (const auto& [pes, clusters, ppc] : machines) {
    const auto fem1_result = fem1_run(sheet, pes);

    bench::ParallelRun fem2_run(
        sheet.model, std::min<std::size_t>(pes / 2, 16),
        bench::machine_shape(clusters, ppc));

    table.row()
        .cell(static_cast<std::uint64_t>(pes))
        .cell(static_cast<double>(fem1_result.elapsed) / 1e6, 1)
        .cell(100.0 * fem1_result.pe_utilization, 1)
        .cell(std::to_string(clusters) + "x" + std::to_string(ppc))
        .cell(static_cast<double>(fem2_run.elapsed()) / 1e6, 1)
        .cell(static_cast<double>(fem1_result.elapsed) /
                  static_cast<double>(fem2_run.elapsed()),
              1);
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  bench::init("E7", argc, argv);
  bench::print_header("E7 bench_fem1_vs_fem2",
                      "bottom-up FEM-1 baseline vs top-down FEM-2");
  const auto sheets = problem_sweep();
  std::cout << "\n";
  machine_size_sweep(sheets);
  std::cout << "\nShape check: FEM-2 wins by a growing factor as problems "
               "grow — relaxation\niteration counts explode where CG's "
               "do not, and the FEM-1 bus serializes\nwhat FEM-2 windows "
               "keep inside clusters.\n";
  return bench::finish();
}

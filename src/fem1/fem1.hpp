// Baseline: the original NASA Finite Element Machine (FEM-1), per Jordan
// (1978) and Storaasli et al. (1982) — the design whose limitations motivate
// the FEM-2 paper.
//
// Architectural model:
//  * a fixed array of microprocessors arranged in a square grid,
//  * static assignment of nodes to processors decided before the run
//    ("basic hardware decisions fixed at an early stage"),
//  * nearest-neighbour links (8-adjacent) plus a single time-shared global
//    bus for everything else — bus traffic serializes,
//  * synchronous relaxation solvers (Jacobi / Gauss-Seidel variants): each
//    sweep computes locally, exchanges boundary values, and synchronizes,
//  * no dynamic task migration: a failed processor stalls the whole array
//    until the problem is manually repartitioned and restarted.
//
// The simulator is synchronous-step (per sweep) rather than event-driven:
// the lockstep architecture makes per-iteration timing separable, and the
// iteration counts come from actually running the relaxation numerically.
#pragma once

#include <cstdint>
#include <string>

#include "fem/model.hpp"
#include "hw/config.hpp"
#include "la/sparse.hpp"

namespace fem2::fem1 {

struct Fem1Config {
  std::size_t processors = 36;  ///< arranged as a near-square grid

  // Timing (same per-flop speed as the FEM-2 PEs for a fair comparison).
  hw::Cycles cycles_per_flop = 4;
  hw::Cycles cycles_per_word = 1;
  hw::Cycles link_latency = 40;          ///< neighbour link, per transfer
  double link_cycles_per_word = 0.25;
  hw::Cycles bus_latency = 120;          ///< global bus arbitration
  double bus_cycles_per_word = 1.0;      ///< serialized across the array
  hw::Cycles sweep_sync_overhead = 200;  ///< barrier at end of each sweep

  std::size_t failed_processors = 0;  ///< static array: any failure stalls

  /// Manual repartition: if true, a failed array is repartitioned onto the
  /// surviving processors at a fixed engineering cost and restarted.
  bool manual_repartition = false;
  hw::Cycles repartition_cost = 50'000'000;
};

struct Fem1Result {
  bool completed = false;    ///< false when failures stall the static array
  bool converged = false;
  std::size_t iterations = 0;
  double residual = 0.0;
  hw::Cycles elapsed = 0;

  std::uint64_t link_messages = 0;
  std::uint64_t link_words = 0;
  std::uint64_t bus_messages = 0;
  std::uint64_t bus_words = 0;
  double pe_utilization = 0.0;  ///< compute cycles / (elapsed × processors)
};

enum class Fem1Solver { Jacobi, GaussSeidel };

/// The numeric relaxation alone: its sweep count depends only on the
/// system, the solver, the tolerance and the iteration limit, so one
/// relaxation serves every Fem1Config.
struct Fem1Relaxation {
  bool converged = false;
  std::size_t iterations = 0;
  double residual = 0.0;
};

Fem1Relaxation fem1_relax(const la::CsrMatrix& stiffness,
                          std::span<const double> rhs,
                          Fem1Solver solver = Fem1Solver::Jacobi,
                          double tolerance = 1e-10,
                          std::size_t max_iterations = 200'000);

/// Machine cost of `relaxation` on the array `config` describes.  A
/// stalled array (failed processors, no repartition) does not complete
/// and ignores `relaxation`.
Fem1Result fem1_cost(const la::CsrMatrix& stiffness,
                     const Fem1Relaxation& relaxation,
                     const Fem1Config& config);

/// Solve the reduced system on the FEM-1 model: fem1_cost of fem1_relax
/// (a stalled array never relaxes).
Fem1Result fem1_solve(const la::CsrMatrix& stiffness,
                      std::span<const double> rhs, const Fem1Config& config,
                      Fem1Solver solver = Fem1Solver::Jacobi,
                      double tolerance = 1e-10,
                      std::size_t max_iterations = 200'000);

/// Convenience: assemble `model` under `load_set` and solve on FEM-1.
Fem1Result fem1_solve_model(const fem::StructureModel& model,
                            const std::string& load_set,
                            const Fem1Config& config,
                            Fem1Solver solver = Fem1Solver::Jacobi,
                            double tolerance = 1e-10,
                            std::size_t max_iterations = 200'000);

}  // namespace fem2::fem1

#include "fem/solver.hpp"

#include <algorithm>
#include <memory>

#include "la/skyline.hpp"
#include "navm/parops.hpp"

namespace fem2::fem {

std::string_view solver_kind_name(SolverKind k) {
  switch (k) {
    case SolverKind::SkylineDirect: return "skyline-cholesky";
    case SolverKind::DenseCholesky: return "dense-cholesky";
    case SolverKind::ConjugateGradient: return "cg";
    case SolverKind::PreconditionedCg: return "pcg-jacobi";
    case SolverKind::TwoLevelCg: return "pcg-two-level";
    case SolverKind::GaussSeidel: return "gauss-seidel";
    case SolverKind::Sor: return "sor";
    case SolverKind::Jacobi: return "jacobi";
  }
  FEM2_UNREACHABLE("bad SolverKind");
}

StaticSolution solve_reduced(const AssembledSystem& system,
                             std::span<const double> rhs,
                             const SolverOptions& options) {
  const la::CsrMatrix& k = system.stiffness;
  FEM2_CHECK(rhs.size() == k.rows());

  StaticSolution out;
  out.stats.method = std::string(solver_kind_name(options.kind));
  out.stats.matrix_storage_bytes = k.storage_bytes();

  la::SolveOptions iter;
  iter.tolerance = options.tolerance;
  iter.max_iterations = options.max_iterations;
  iter.sor_omega = options.sor_omega;

  std::vector<double> reduced;
  switch (options.kind) {
    case SolverKind::SkylineDirect: {
      la::SkylineMatrix sky = la::SkylineMatrix::from_csr(k);
      out.stats.matrix_storage_bytes = sky.storage_bytes();
      sky.factorize();
      reduced = sky.solve(rhs);
      out.stats.residual = la::relative_residual(k, reduced, rhs);
      break;
    }
    case SolverKind::DenseCholesky: {
      const la::DenseMatrix dense = k.to_dense();
      out.stats.matrix_storage_bytes =
          dense.rows() * dense.cols() * sizeof(double);
      la::CholeskyFactorization chol(dense);
      reduced = chol.solve(rhs);
      out.stats.residual = la::relative_residual(k, reduced, rhs);
      break;
    }
    case SolverKind::ConjugateGradient:
    case SolverKind::PreconditionedCg:
    case SolverKind::TwoLevelCg: {
      std::unique_ptr<la::Preconditioner> precond;
      if (options.kind == SolverKind::PreconditionedCg)
        precond = std::make_unique<la::JacobiPreconditioner>(k);
      if (options.kind == SolverKind::TwoLevelCg) {
        la::TwoLevelOptions tl = options.two_level;
        if (tl.aggregate_of.empty()) {
          // Mesh-aware aggregation: contiguous node blocks with one
          // aggregate per displacement component, so the coarse space
          // spans per-block translations in every direction.  Mixing
          // components in one aggregate (plain index blocks) cancels
          // opposite-signed x/y residuals and weakens the coarse solve.
          const std::size_t ndof = system.dofs.dofs_per_node;
          const std::size_t nodes = system.dofs.full_dofs / ndof;
          const std::size_t blocks = std::max<std::size_t>(
              1, tl.coarse_dofs / std::max<std::size_t>(1, ndof));
          const std::size_t block_nodes = (nodes + blocks - 1) / blocks;
          tl.aggregate_of.resize(k.rows());
          for (std::size_t r = 0; r < k.rows(); ++r) {
            const std::size_t full = system.dofs.reduced_to_full[r];
            tl.aggregate_of[r] =
                (full / ndof / block_nodes) * ndof + full % ndof;
          }
        }
        precond = std::make_unique<la::TwoLevelPreconditioner>(k, tl);
      }
      iter.preconditioner = precond.get();
      auto result = la::conjugate_gradient(k, rhs, iter);
      reduced = std::move(result.x);
      out.stats.converged = result.report.converged;
      out.stats.iterations = result.report.iterations;
      out.stats.residual = result.report.residual_norm;
      break;
    }
    case SolverKind::GaussSeidel:
    case SolverKind::Sor: {
      if (options.kind == SolverKind::GaussSeidel) iter.sor_omega = 1.0;
      auto result = la::sor(k, rhs, iter);
      reduced = std::move(result.x);
      out.stats.converged = result.report.converged;
      out.stats.iterations = result.report.iterations;
      out.stats.residual = result.report.residual_norm;
      break;
    }
    case SolverKind::Jacobi: {
      auto result = la::jacobi(k, rhs, iter);
      reduced = std::move(result.x);
      out.stats.converged = result.report.converged;
      out.stats.iterations = result.report.iterations;
      out.stats.residual = result.report.residual_norm;
      break;
    }
  }

  out.displacements = system.expand(reduced);
  return out;
}

StaticSolution solve_static(const StructureModel& model,
                            const std::string& load_set,
                            const SolverOptions& options) {
  const auto it = model.load_sets.find(load_set);
  if (it == model.load_sets.end())
    throw support::Error("unknown load set: " + load_set);
  const AssembledSystem system = assemble(model);
  const auto rhs = system.load_vector(it->second);
  return solve_reduced(system, rhs, options);
}

StaticSolution solve_static_parallel(const StructureModel& model,
                                     const std::string& load_set,
                                     navm::Runtime& runtime,
                                     const ParallelSolveOptions& options) {
  const auto it = model.load_sets.find(load_set);
  if (it == model.load_sets.end())
    throw support::Error("unknown load set: " + load_set);

  const AssembledSystem system = assemble(model);

  navm::CgProblem problem;
  problem.a = system.stiffness;
  problem.b = system.load_vector(it->second);
  problem.workers = options.workers;
  problem.tolerance = options.tolerance;
  problem.max_iterations = options.max_iterations;
  problem.jacobi_preconditioner = options.jacobi_preconditioner;

  const auto task = runtime.launch(navm::kCgDriverTask,
                                   navm::make_cg_problem(std::move(problem)));
  runtime.run();
  FEM2_CHECK_MSG(runtime.os().task_finished(task),
                 "parallel solve did not complete");
  const auto& result = navm::as_cg_result(runtime.result(task));

  StaticSolution out;
  out.displacements = system.expand(result.x);
  out.stats.method = options.jacobi_preconditioner
                         ? "fem2-distributed-pcg-jacobi"
                         : "fem2-distributed-cg";
  out.stats.converged = result.converged;
  out.stats.iterations = result.iterations;
  out.stats.residual = result.residual;
  out.stats.matrix_storage_bytes = system.stiffness.storage_bytes();
  return out;
}

}  // namespace fem2::fem

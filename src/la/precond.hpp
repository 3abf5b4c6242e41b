// Preconditioners for conjugate gradients, split nekRS-style into an
// explicit setup phase (the constructor: extract/aggregate/factorize
// against a fixed matrix) and a cheap repeated solve phase (apply()).
// All preconditioners here are symmetric positive definite so CG theory
// still holds.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "la/dense.hpp"
#include "la/sparse.hpp"

namespace fem2::la {

/// z = M⁻¹ r.  apply() must be reentrant: the host backend may call it
/// from several lanes at once, so implementations keep no mutable state
/// after construction.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;

  virtual std::size_t size() const = 0;
  virtual std::string name() const = 0;
  virtual void apply(std::span<const double> r, std::span<double> z) const = 0;
};

/// Jacobi (diagonal): M = diag(A).  Setup extracts 1/a_ii once.
class JacobiPreconditioner final : public Preconditioner {
 public:
  explicit JacobiPreconditioner(const CsrMatrix& a);

  std::size_t size() const override { return inv_diag_.size(); }
  std::string name() const override { return "jacobi"; }
  void apply(std::span<const double> r, std::span<double> z) const override;

 private:
  Vector inv_diag_;
};

struct TwoLevelOptions {
  /// Target number of coarse aggregates (clamped to [1, n]); ignored when
  /// aggregate_of is supplied.
  std::size_t coarse_dofs = 32;
  /// Weight on the fine-level Jacobi term; must be > 0 to keep M SPD.
  double smoothing_omega = 0.5;
  /// Optional explicit fine-dof → aggregate map (size n).  Lets mesh-aware
  /// callers group whole nodes and keep displacement components separate
  /// (see fem::solve_reduced); ids may be sparse, they are compacted.
  /// When empty, contiguous index blocks are used.
  std::vector<std::size_t> aggregate_of;
};

/// Two-level V-cycle preconditioner: damped-Jacobi pre-smooth, Galerkin
/// coarse-grid correction, damped-Jacobi post-smooth,
///     z₁ = ω D⁻¹ r
///     z₂ = z₁ + Rᵀ A_c⁻¹ R (r − A z₁)
///     z  = z₂ + ω D⁻¹ (r − A z₂),
/// with R piecewise-constant restriction onto aggregates and A_c = R A Rᵀ
/// dense Cholesky-factorized at setup.  The symmetric smoother sandwich
/// keeps M SPD (for ω within the damped-Jacobi convergence range), so CG
/// theory holds; the coarse solve carries global corrections across the
/// mesh in one application, which plain Jacobi cannot.
class TwoLevelPreconditioner final : public Preconditioner {
 public:
  TwoLevelPreconditioner(const CsrMatrix& a,
                         const TwoLevelOptions& options = {});

  std::size_t size() const override { return aggregate_of_.size(); }
  std::string name() const override { return "two-level"; }
  void apply(std::span<const double> r, std::span<double> z) const override;

 private:
  CsrMatrix a_;  ///< fine operator (pattern shared with the caller's matrix)
  double omega_;
  Vector inv_diag_;
  std::vector<std::size_t> aggregate_of_;  ///< fine dof -> aggregate
  std::unique_ptr<CholeskyFactorization> coarse_;  ///< A_c = R A Rᵀ
};

}  // namespace fem2::la

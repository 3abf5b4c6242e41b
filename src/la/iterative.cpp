#include "la/iterative.hpp"

#include <cmath>
#include <sstream>

#include "la/precond.hpp"
#include "support/check.hpp"

namespace fem2::la {

std::string SolveReport::to_string() const {
  std::ostringstream os;
  os << method << ": " << (converged ? "converged" : "NOT converged")
     << " in " << iterations << " iterations, relative residual "
     << residual_norm;
  return os.str();
}

double relative_residual(const CsrMatrix& a, std::span<const double> x,
                         std::span<const double> b) {
  Vector ax = a.multiply(x);
  Vector r = subtract(b, ax);
  const double bn = norm2(b);
  return bn > 0.0 ? norm2(r) / bn : norm2(r);
}

SolveResult conjugate_gradient(const CsrMatrix& a, std::span<const double> b,
                               const SolveOptions& options) {
  FEM2_CHECK(a.rows() == a.cols());
  FEM2_CHECK(b.size() == a.rows());
  const std::size_t n = a.rows();

  SolveResult out;
  out.x.assign(n, 0.0);

  const Preconditioner* precond = options.preconditioner;
  if (precond != nullptr) FEM2_CHECK(precond->size() == n);
  out.report.method = precond ? "pcg-" + precond->name() : "cg";

  auto precondition = [&](const Vector& r) {
    if (precond == nullptr) return r;
    Vector z(r.size());
    precond->apply(r, z);
    return z;
  };

  const double bnorm = norm2(b);
  if (bnorm == 0.0) {
    out.report.converged = true;
    return out;
  }

  Vector r(b.begin(), b.end());  // r = b - A·0
  Vector z = precondition(r);
  Vector p = z;
  double rz = dot(r, z);

  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    const double rn = norm2(r) / bnorm;
    out.report.iterations = it;
    out.report.residual_norm = rn;
    if (rn <= options.tolerance) {
      out.report.converged = true;
      return out;
    }
    Vector ap = a.multiply(p);
    const double pap = dot(p, ap);
    if (pap <= 0.0) {
      // Not SPD (or breakdown); stop with the best iterate we have.
      return out;
    }
    const double alpha = rz / pap;
    axpy(alpha, p, out.x);
    axpy(-alpha, ap, r);
    z = precondition(r);
    const double rz_next = dot(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    xpay(z, beta, p);
  }
  out.report.iterations = options.max_iterations;
  out.report.residual_norm = norm2(r) / bnorm;
  out.report.converged = out.report.residual_norm <= options.tolerance;
  return out;
}

SolveResult jacobi(const CsrMatrix& a, std::span<const double> b,
                   const SolveOptions& options) {
  FEM2_CHECK(a.rows() == a.cols());
  FEM2_CHECK(b.size() == a.rows());
  const std::size_t n = a.rows();

  SolveResult out;
  out.report.method = "jacobi";
  out.x.assign(n, 0.0);

  Vector diag = a.diagonal();
  for (double d : diag)
    FEM2_CHECK_MSG(d != 0.0, "Jacobi requires a nonzero diagonal");

  const double bnorm = norm2(b);
  if (bnorm == 0.0) {
    out.report.converged = true;
    return out;
  }

  Vector next(n);
  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    Vector ax = a.multiply(out.x);
    const double rn = norm2(subtract(b, ax)) / bnorm;
    out.report.iterations = it;
    out.report.residual_norm = rn;
    if (rn <= options.tolerance) {
      out.report.converged = true;
      return out;
    }
    // x' = x + D⁻¹ (b - A x)
    for (std::size_t i = 0; i < n; ++i)
      next[i] = out.x[i] + (b[i] - ax[i]) / diag[i];
    out.x.swap(next);
  }
  out.report.iterations = options.max_iterations;
  out.report.residual_norm = relative_residual(a, out.x, b);
  out.report.converged = out.report.residual_norm <= options.tolerance;
  return out;
}

SolveResult sor(const CsrMatrix& a, std::span<const double> b,
                const SolveOptions& options) {
  FEM2_CHECK(a.rows() == a.cols());
  FEM2_CHECK(b.size() == a.rows());
  FEM2_CHECK_MSG(options.sor_omega > 0.0 && options.sor_omega < 2.0,
                 "SOR requires omega in (0, 2)");
  const std::size_t n = a.rows();

  SolveResult out;
  out.report.method =
      options.sor_omega == 1.0 ? "gauss-seidel" : "sor";
  out.x.assign(n, 0.0);

  const double bnorm = norm2(b);
  if (bnorm == 0.0) {
    out.report.converged = true;
    return out;
  }

  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    const double rn = relative_residual(a, out.x, b);
    out.report.iterations = it;
    out.report.residual_norm = rn;
    if (rn <= options.tolerance) {
      out.report.converged = true;
      return out;
    }
    for (std::size_t i = 0; i < n; ++i) {
      std::span<const std::size_t> cols;
      std::span<const double> vals;
      a.row(i, cols, vals);
      double sigma = 0.0;
      double diag = 0.0;
      for (std::size_t k = 0; k < cols.size(); ++k) {
        if (cols[k] == i) {
          diag = vals[k];
        } else {
          sigma += vals[k] * out.x[cols[k]];
        }
      }
      FEM2_CHECK_MSG(diag != 0.0, "SOR requires a nonzero diagonal");
      const double gs = (b[i] - sigma) / diag;
      out.x[i] += options.sor_omega * (gs - out.x[i]);
    }
  }
  out.report.iterations = options.max_iterations;
  out.report.residual_norm = relative_residual(a, out.x, b);
  out.report.converged = out.report.residual_norm <= options.tolerance;
  return out;
}

}  // namespace fem2::la

// Skyline (profile) storage and Cholesky factorization — the direct solver
// of choice in 1980s finite-element codes.  Only the entries between each
// column's first nonzero row and the diagonal are stored; fill-in during
// factorization stays inside the profile.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "la/sparse.hpp"
#include "la/vec_ops.hpp"

namespace fem2::la {

/// Symmetric positive-definite matrix in skyline (column profile) form.
class SkylineMatrix {
 public:
  /// Build from the envelope of a symmetric CSR matrix.
  static SkylineMatrix from_csr(const CsrMatrix& a);

  /// Build an empty skyline from per-column first-row indices
  /// (first_row[j] <= j; column j stores rows first_row[j]..j).
  explicit SkylineMatrix(std::vector<std::size_t> first_row);

  std::size_t size() const { return first_row_.size(); }

  /// Entry (i, j) with i <= j inside the profile.
  double& at(std::size_t i, std::size_t j);
  double value_at(std::size_t i, std::size_t j) const;  ///< 0 outside profile

  std::size_t storage_bytes() const;

  /// In-place L Lᵀ factorization.  Throws support::Error if not SPD.
  void factorize();

  /// Solve A x = b using the factorization (factorize() must have run).
  Vector solve(std::span<const double> b) const;

 private:
  std::size_t col_height(std::size_t j) const { return j - first_row_[j] + 1; }

  std::vector<std::size_t> first_row_;  ///< first stored row per column
  std::vector<std::size_t> col_ptr_;    ///< offset of column j's first entry
  std::vector<double> values_;          ///< column-major profile entries
  bool factorized_ = false;
};

}  // namespace fem2::la

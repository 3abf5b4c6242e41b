// Global system assembly: dof numbering, element merge, constraint
// elimination, and load-set vectors.
//
// Every assembly, serial or on the machine, ends in one ReducedFill: it
// builds the reduced sparsity pattern from element connectivity, then
// element-matrix entries, fed in element order, sum into the pattern's
// values (or, for prescribed columns, into rhs_correction).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "fem/model.hpp"
#include "la/sparse.hpp"

namespace fem2::fem {

/// Mapping between the full nodal dof space and the reduced (free) space
/// after single-point constraints are eliminated.
struct DofMap {
  std::size_t dofs_per_node = 2;
  std::size_t full_dofs = 0;
  std::size_t free_dofs = 0;
  std::vector<std::ptrdiff_t> full_to_reduced;  ///< -1 for constrained dofs
  std::vector<std::size_t> reduced_to_full;
  std::vector<double> prescribed;  ///< full-length prescribed values

  std::size_t full_index(std::size_t node, std::size_t dof) const {
    return node * dofs_per_node + dof;
  }
};

/// Builds the full↔reduced dof mapping.  Duplicate constraints on the
/// same (node, dof) are deduplicated; duplicates that prescribe
/// *different* values throw support::Error (a silently-last-wins merge
/// used to let one of two conflicting scenes win by file order).
DofMap build_dof_map(const StructureModel& model);

/// Reduced stiffness system K_ff plus the K_fc·u_c correction needed when
/// constraints prescribe nonzero values.
struct AssembledSystem {
  DofMap dofs;
  la::CsrMatrix stiffness;              ///< free × free
  std::vector<double> rhs_correction;   ///< subtracted from every load vector

  /// Reduced right-hand side for a load set.
  std::vector<double> load_vector(const LoadSet& loads) const;

  /// Expand a reduced solution into full nodal displacements (prescribed
  /// dofs take their constraint values).
  Displacements expand(std::span<const double> reduced) const;
};

/// The constraint-eliminating fill.  Entries arrive in the model-wide dof
/// numbering and in element order (the order fixes every floating-point
/// sum): free×free entries add into the stiffness, entries in a
/// prescribed column add value × prescribed into rhs_correction, and rows
/// of prescribed dofs are dropped.
class ReducedFill {
 public:
  /// Validates `model`, numbers its dofs and builds the reduced pattern
  /// (structural nonzeros of element connectivity, so it does not depend
  /// on values).  Throws support::CheckError if every dof is prescribed.
  explicit ReducedFill(const StructureModel& model);

  void add(std::size_t row, std::size_t col, double value);

  AssembledSystem finish() &&;

 private:
  AssembledSystem system_;
  std::shared_ptr<const la::SparsityPattern> pattern_;
  std::vector<double> values_;
};

/// Serial assembly: each element stiffness streamed into a ReducedFill.
AssembledSystem assemble(const StructureModel& model);

}  // namespace fem2::fem

// Global system assembly: dof numbering, element merge, constraint
// elimination, and load-set vectors.
//
// Assembly is split symbolic/numeric (MiniFE-style): build_assembly_plan
// walks the mesh once to produce the reduced sparsity pattern and flat
// per-element scatter maps; assemble_numeric then fills values through
// the plan with no searching or reallocation.  Re-assembling on the same
// mesh (load stepping, material updates) reuses the plan.
#pragma once

#include <cstdint>
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

/// Symbolic half of assembly: reduced sparsity pattern from element
/// connectivity (structural nonzeros; exact numeric zeros are kept so the
/// pattern is value-independent).
std::shared_ptr<const la::SparsityPattern> build_sparsity_pattern(
    const StructureModel& model, const DofMap& dofs);

/// Precomputed scatter maps: where each element-matrix entry lands in the
/// CSR value array (or, for constrained columns, which rhs row it corrects
/// and with what prescribed value).
struct AssemblyPlan {
  DofMap dofs;
  std::shared_ptr<const la::SparsityPattern> pattern;

  struct MatrixScatter {
    std::uint32_t local;  ///< r * n + c into the element matrix (row-major)
    std::size_t offset;   ///< destination in the CSR value array
  };
  struct RhsScatter {
    std::uint32_t local;
    std::size_t row;      ///< reduced rhs row
    double coeff;         ///< prescribed value u_c of the constrained column
  };
  std::vector<std::size_t> matrix_begin;  ///< per element, size elements + 1
  std::vector<MatrixScatter> matrix;
  std::vector<std::size_t> rhs_begin;     ///< per element, size elements + 1
  std::vector<RhsScatter> rhs;
};

AssemblyPlan build_assembly_plan(const StructureModel& model);

/// Numeric half: element stiffnesses scattered through the plan.  The
/// result shares the plan's pattern (no index copies).
AssembledSystem assemble_numeric(const StructureModel& model,
                                 const AssemblyPlan& plan);

/// One-shot assembly: symbolic plan + numeric fill.
AssembledSystem assemble(const StructureModel& model);

}  // namespace fem2::fem

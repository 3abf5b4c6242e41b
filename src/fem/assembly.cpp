#include "fem/assembly.hpp"

#include <sstream>
#include <utility>

#include "fem/element.hpp"

namespace fem2::fem {

DofMap build_dof_map(const StructureModel& model) {
  DofMap map;
  map.dofs_per_node = model.dofs_per_node();
  map.full_dofs = model.total_dofs();
  map.full_to_reduced.assign(map.full_dofs, 0);
  map.prescribed.assign(map.full_dofs, 0.0);

  std::vector<bool> constrained(map.full_dofs, false);
  for (const auto& c : model.constraints) {
    const std::size_t idx = map.full_index(c.node, c.dof);
    if (constrained[idx] && map.prescribed[idx] != c.value) {
      std::ostringstream os;
      os << "conflicting constraints on node " << c.node << " dof " << c.dof
         << ": " << map.prescribed[idx] << " vs " << c.value;
      throw support::Error(os.str());
    }
    constrained[idx] = true;
    map.prescribed[idx] = c.value;
  }

  map.reduced_to_full.reserve(map.full_dofs);
  for (std::size_t i = 0; i < map.full_dofs; ++i) {
    if (constrained[i]) {
      map.full_to_reduced[i] = -1;
    } else {
      map.full_to_reduced[i] =
          static_cast<std::ptrdiff_t>(map.reduced_to_full.size());
      map.reduced_to_full.push_back(i);
    }
  }
  map.free_dofs = map.reduced_to_full.size();
  return map;
}

namespace {

/// Model-wide dofs of one element's local dofs.
void element_model_dofs(const Element& element, std::size_t dofs_per_node,
                        std::vector<std::size_t>& out) {
  out.resize(element.dof_count());
  for (std::size_t local = 0; local < out.size(); ++local)
    out[local] = element.model_dof(local, dofs_per_node);
}

std::shared_ptr<const la::SparsityPattern> build_sparsity_pattern(
    const StructureModel& model, const DofMap& dofs) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  std::vector<std::size_t> global;
  for (const auto& element : model.elements) {
    element_model_dofs(element, dofs.dofs_per_node, global);
    for (const std::size_t gr : global) {
      const std::ptrdiff_t rr = dofs.full_to_reduced[gr];
      if (rr < 0) continue;
      for (const std::size_t gc : global) {
        const std::ptrdiff_t rc = dofs.full_to_reduced[gc];
        if (rc >= 0)
          pairs.emplace_back(static_cast<std::size_t>(rr),
                             static_cast<std::size_t>(rc));
      }
    }
  }
  return std::make_shared<la::SparsityPattern>(la::SparsityPattern::from_pairs(
      dofs.free_dofs, dofs.free_dofs, std::move(pairs)));
}

}  // namespace

ReducedFill::ReducedFill(const StructureModel& model) {
  model.validate();
  system_.dofs = build_dof_map(model);
  FEM2_CHECK_MSG(system_.dofs.free_dofs > 0, "model is fully constrained");
  pattern_ = build_sparsity_pattern(model, system_.dofs);
  values_.assign(pattern_->nonzeros(), 0.0);
  system_.rhs_correction.assign(system_.dofs.free_dofs, 0.0);
}

void ReducedFill::add(std::size_t row, std::size_t col, double value) {
  const DofMap& map = system_.dofs;
  const std::ptrdiff_t rr = map.full_to_reduced[row];
  if (rr < 0) return;
  const std::ptrdiff_t rc = map.full_to_reduced[col];
  if (rc >= 0) {
    const std::size_t offset = pattern_->find(static_cast<std::size_t>(rr),
                                              static_cast<std::size_t>(rc));
    FEM2_CHECK(offset != la::SparsityPattern::npos);
    values_[offset] += value;
  } else if (const double uc = map.prescribed[col]; uc != 0.0) {
    system_.rhs_correction[static_cast<std::size_t>(rr)] += value * uc;
  }
}

AssembledSystem ReducedFill::finish() && {
  system_.stiffness = la::CsrMatrix(std::move(pattern_), std::move(values_));
  return std::move(system_);
}

AssembledSystem assemble(const StructureModel& model) {
  ReducedFill fill(model);
  const std::size_t ndof = model.dofs_per_node();
  std::vector<std::size_t> global;
  for (const auto& element : model.elements) {
    const la::DenseMatrix k = element_stiffness(model, element);
    element_model_dofs(element, ndof, global);
    for (std::size_t r = 0; r < global.size(); ++r)
      for (std::size_t c = 0; c < global.size(); ++c)
        fill.add(global[r], global[c], k(r, c));
  }
  return std::move(fill).finish();
}

std::vector<double> AssembledSystem::load_vector(const LoadSet& loads) const {
  std::vector<double> f(dofs.free_dofs, 0.0);
  for (const auto& load : loads.loads) {
    const std::size_t full = dofs.full_index(load.node, load.dof);
    const std::ptrdiff_t reduced = dofs.full_to_reduced[full];
    if (reduced >= 0) f[static_cast<std::size_t>(reduced)] += load.value;
  }
  for (std::size_t i = 0; i < f.size(); ++i) f[i] -= rhs_correction[i];
  return f;
}

Displacements AssembledSystem::expand(std::span<const double> reduced) const {
  FEM2_CHECK(reduced.size() == dofs.free_dofs);
  Displacements out;
  out.dofs_per_node = dofs.dofs_per_node;
  out.values = dofs.prescribed;  // constrained dofs take prescribed values
  for (std::size_t i = 0; i < reduced.size(); ++i)
    out.values[dofs.reduced_to_full[i]] = reduced[i];
  return out;
}

}  // namespace fem2::fem

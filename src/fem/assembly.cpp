#include "fem/assembly.hpp"

#include <algorithm>
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

/// Global full-dof indices of one element's local dofs.
void element_global_dofs(const Element& element, const DofMap& map,
                         std::vector<std::size_t>& global) {
  const std::size_t edof = element_dofs_per_node(element.type);
  global.resize(element.node_count() * edof);
  for (std::size_t i = 0; i < element.node_count(); ++i)
    for (std::size_t d = 0; d < edof; ++d)
      global[i * edof + d] = map.full_index(element.nodes[i], d);
}

}  // namespace

std::shared_ptr<const la::SparsityPattern> build_sparsity_pattern(
    const StructureModel& model, const DofMap& dofs) {
  // Count-then-fill: size each free row's slots from the elements that
  // touch it, scatter the column ids into them, then sort and dedupe each
  // short row in place.  Same pattern as sorting every (row, col) pair.
  const std::size_t n = dofs.free_dofs;
  std::vector<std::size_t> global;
  std::vector<std::size_t> free;
  auto element_free_dofs = [&](const Element& element) {
    element_global_dofs(element, dofs, global);
    free.clear();
    for (const std::size_t g : global)
      if (const std::ptrdiff_t r = dofs.full_to_reduced[g]; r >= 0)
        free.push_back(static_cast<std::size_t>(r));
  };

  // Row r's slots are [slot[r], slot[r + 1]).
  std::vector<std::size_t> slot(n + 1, 0);
  for (const auto& element : model.elements) {
    element_free_dofs(element);
    for (const std::size_t r : free) slot[r + 1] += free.size();
  }
  for (std::size_t r = 0; r < n; ++r) slot[r + 1] += slot[r];

  std::vector<std::size_t> col_idx(slot[n]);
  std::vector<std::size_t> fill(slot.begin(), slot.end() - 1);
  for (const auto& element : model.elements) {
    element_free_dofs(element);
    for (const std::size_t r : free)
      for (const std::size_t c : free) col_idx[fill[r]++] = c;
  }

  std::vector<std::size_t> row_ptr(n + 1, 0);
  std::size_t nnz = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const auto begin = col_idx.begin() + static_cast<std::ptrdiff_t>(slot[r]);
    const auto end =
        col_idx.begin() + static_cast<std::ptrdiff_t>(slot[r + 1]);
    std::sort(begin, end);
    const auto last = std::unique(begin, end);
    for (auto it = begin; it != last; ++it) col_idx[nnz++] = *it;
    row_ptr[r + 1] = nnz;
  }
  col_idx.resize(nnz);
  col_idx.shrink_to_fit();
  return std::make_shared<la::SparsityPattern>(n, n, std::move(row_ptr),
                                               std::move(col_idx));
}

AssemblyPlan build_assembly_plan(const StructureModel& model) {
  model.validate();
  AssemblyPlan plan;
  plan.dofs = build_dof_map(model);
  FEM2_CHECK_MSG(plan.dofs.free_dofs > 0, "model is fully constrained");
  plan.pattern = build_sparsity_pattern(model, plan.dofs);

  const DofMap& map = plan.dofs;
  plan.matrix_begin.reserve(model.elements.size() + 1);
  plan.rhs_begin.reserve(model.elements.size() + 1);
  std::vector<std::size_t> global;
  for (const auto& element : model.elements) {
    plan.matrix_begin.push_back(plan.matrix.size());
    plan.rhs_begin.push_back(plan.rhs.size());
    element_global_dofs(element, map, global);
    const std::size_t n = global.size();
    for (std::size_t r = 0; r < n; ++r) {
      const std::ptrdiff_t rr = map.full_to_reduced[global[r]];
      if (rr < 0) continue;
      for (std::size_t c = 0; c < n; ++c) {
        const auto local = static_cast<std::uint32_t>(r * n + c);
        const std::ptrdiff_t rc = map.full_to_reduced[global[c]];
        if (rc >= 0) {
          const std::size_t offset = plan.pattern->find(
              static_cast<std::size_t>(rr), static_cast<std::size_t>(rc));
          FEM2_CHECK(offset != la::SparsityPattern::npos);
          plan.matrix.push_back({local, offset});
        } else {
          // Constrained column: moves to the right-hand side.
          const double uc = map.prescribed[global[c]];
          if (uc != 0.0)
            plan.rhs.push_back({local, static_cast<std::size_t>(rr), uc});
        }
      }
    }
  }
  plan.matrix_begin.push_back(plan.matrix.size());
  plan.rhs_begin.push_back(plan.rhs.size());
  return plan;
}

AssembledSystem assemble_numeric(const StructureModel& model,
                                 const AssemblyPlan& plan) {
  FEM2_CHECK(plan.matrix_begin.size() == model.elements.size() + 1);
  AssembledSystem system;
  system.dofs = plan.dofs;
  system.rhs_correction.assign(plan.dofs.free_dofs, 0.0);

  std::vector<double> values(plan.pattern->nonzeros(), 0.0);
  for (std::size_t e = 0; e < model.elements.size(); ++e) {
    const la::DenseMatrix k = element_stiffness(model, model.elements[e]);
    const std::span<const double> kd = k.data();
    for (std::size_t s = plan.matrix_begin[e]; s < plan.matrix_begin[e + 1];
         ++s) {
      const auto& scatter = plan.matrix[s];
      values[scatter.offset] += kd[scatter.local];
    }
    for (std::size_t s = plan.rhs_begin[e]; s < plan.rhs_begin[e + 1]; ++s) {
      const auto& scatter = plan.rhs[s];
      system.rhs_correction[scatter.row] += kd[scatter.local] * scatter.coeff;
    }
  }
  system.stiffness = la::CsrMatrix(plan.pattern, std::move(values));
  return system;
}

AssembledSystem assemble(const StructureModel& model) {
  return assemble_numeric(model, build_assembly_plan(model));
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

std::uint64_t assembly_flops(const StructureModel& model) {
  std::uint64_t flops = 0;
  for (const auto& element : model.elements) {
    const std::size_t n =
        element.node_count() * element_dofs_per_node(element.type);
    // Forming B'DB-style products plus the merge: ~3 n^3 + n^2.
    flops += 3 * n * n * n + n * n;
  }
  return flops;
}

}  // namespace fem2::fem

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

void element_full_dofs(const Element& element, std::size_t dofs_per_node,
                       std::vector<std::size_t>& full) {
  const std::size_t edof = element_dofs_per_node(element.type);
  full.resize(element.node_count() * edof);
  for (std::size_t i = 0; i < element.node_count(); ++i)
    for (std::size_t d = 0; d < edof; ++d)
      full[i * edof + d] = element.nodes[i] * dofs_per_node + d;
}

std::shared_ptr<const la::SparsityPattern> build_sparsity_pattern(
    const StructureModel& model, const DofMap& dofs) {
  // An element couples dofs 0..edof-1 of all its nodes, so free dofs
  // (p, d) and (q, d') are coupled exactly when an element holding both p
  // and q has edof > max(d, d').  With w the largest edof among the
  // elements holding p and q, row (p, d) is, for each neighbour q of p in
  // ascending order with w > d, the free dofs (q, 0..w-1): sorted, since
  // the reduced numbering is monotone in the full one, and unique.
  const std::size_t nodes = model.nodes.size();
  const std::size_t ndpn = dofs.dofs_per_node;

  // Node -> element incidence: node p's elements are
  // incident[first_incident[p], first_incident[p + 1]), in element order.
  std::vector<std::size_t> first_incident(nodes + 1, 0);
  std::size_t links = 0;  // bounds the neighbour entries below
  for (const auto& element : model.elements) {
    const std::size_t count = element.node_count();
    links += count * count;
    for (std::size_t i = 0; i < count; ++i)
      ++first_incident[element.nodes[i] + 1];
  }
  for (std::size_t p = 0; p < nodes; ++p)
    first_incident[p + 1] += first_incident[p];
  std::vector<std::size_t> incident(first_incident[nodes]);
  {
    std::vector<std::size_t> fill(first_incident.begin(),
                                  first_incident.end() - 1);
    for (std::size_t e = 0; e < model.elements.size(); ++e) {
      const Element& element = model.elements[e];
      for (std::size_t i = 0; i < element.node_count(); ++i)
        incident[fill[element.nodes[i]]++] = e;
    }
  }

  // Node p's neighbours (p itself included) with their widths, ascending:
  // neighbours[first_neighbour[p], first_neighbour[p + 1]).  While p's
  // list is built, slot[q] is q's index in it; an index below the list's
  // start is an earlier node's.
  struct Neighbour {
    std::size_t node;
    std::size_t width;
  };
  std::vector<Neighbour> neighbours;
  neighbours.reserve(links);
  std::vector<std::size_t> first_neighbour(nodes + 1, 0);
  std::vector<std::size_t> slot(nodes, la::SparsityPattern::npos);
  std::size_t bound = 0;  // entries if every column were free and coupled
  for (std::size_t p = 0; p < nodes; ++p) {
    const std::size_t begin = neighbours.size();
    for (std::size_t k = first_incident[p]; k < first_incident[p + 1]; ++k) {
      const Element& element = model.elements[incident[k]];
      const std::size_t width = element_dofs_per_node(element.type);
      for (std::size_t i = 0; i < element.node_count(); ++i) {
        const std::size_t q = element.nodes[i];
        if (const std::size_t s = slot[q];
            s >= begin && s < neighbours.size()) {
          neighbours[s].width = std::max(neighbours[s].width, width);
        } else {
          slot[q] = neighbours.size();
          neighbours.push_back({q, width});
        }
      }
    }
    std::sort(neighbours.begin() + static_cast<std::ptrdiff_t>(begin),
              neighbours.end(), [](const Neighbour& a, const Neighbour& b) {
                return a.node < b.node;
              });
    first_neighbour[p + 1] = neighbours.size();
    std::size_t widths = 0;
    for (std::size_t k = begin; k < neighbours.size(); ++k)
      widths += neighbours[k].width;
    for (std::size_t d = 0; d < ndpn; ++d)
      if (dofs.full_to_reduced[p * ndpn + d] >= 0) bound += widths;
  }

  // Row (p, d) of each free dof, in the reduced order.
  std::vector<std::size_t> row_ptr(dofs.free_dofs + 1, 0);
  std::vector<std::size_t> col_idx;
  col_idx.reserve(bound);
  std::size_t row = 0;
  for (std::size_t p = 0; p < nodes; ++p) {
    for (std::size_t d = 0; d < ndpn; ++d) {
      if (dofs.full_to_reduced[p * ndpn + d] < 0) continue;
      for (std::size_t k = first_neighbour[p]; k < first_neighbour[p + 1];
           ++k) {
        const auto [q, width] = neighbours[k];
        if (width <= d) continue;
        for (std::size_t dq = 0; dq < width; ++dq)
          if (const std::ptrdiff_t c = dofs.full_to_reduced[q * ndpn + dq];
              c >= 0)
            col_idx.push_back(static_cast<std::size_t>(c));
      }
      row_ptr[++row] = col_idx.size();
    }
  }
  return std::make_shared<la::SparsityPattern>(
      dofs.free_dofs, dofs.free_dofs, std::move(row_ptr), std::move(col_idx));
}

SystemScatter::SystemScatter(const StructureModel& model) {
  system_.dofs = build_dof_map(model);
  FEM2_CHECK_MSG(system_.dofs.free_dofs > 0, "model is fully constrained");
  pattern_ = build_sparsity_pattern(model, system_.dofs);
  values_.assign(pattern_->nonzeros(), 0.0);
  offset_.assign(system_.dofs.free_dofs, la::SparsityPattern::npos);
  system_.rhs_correction.assign(system_.dofs.free_dofs, 0.0);
}

void SystemScatter::map_row(std::size_t row) {
  FEM2_CHECK(row < system_.dofs.free_dofs);
  const auto row_ptr = pattern_->row_ptr();
  const auto col_idx = pattern_->col_idx();
  row_ = row;
  row_begin_ = row_ptr[row];
  row_size_ = row_ptr[row + 1] - row_begin_;
  for (std::size_t k = row_begin_; k < row_ptr[row + 1]; ++k)
    offset_[col_idx[k]] = k;
}

AssembledSystem SystemScatter::finish() {
  system_.stiffness = la::CsrMatrix(std::move(pattern_), std::move(values_));
  return std::move(system_);
}

AssembledSystem assemble(const StructureModel& model) {
  model.validate();
  SystemScatter scatter(model);
  const std::size_t dofs_per_node = model.dofs_per_node();
  std::vector<std::size_t> full;
  for (const auto& element : model.elements) {
    const ElementMatrix k = element_stiffness(model, element);
    const std::span<const double> kd = k.data();  // row-major, n x n
    element_full_dofs(element, dofs_per_node, full);
    const std::size_t n = full.size();
    for (std::size_t r = 0; r < n; ++r) {
      const std::ptrdiff_t row = scatter.free_row(full[r]);
      if (row < 0) continue;
      for (std::size_t c = 0; c < n; ++c)
        scatter.add(static_cast<std::size_t>(row), full[c], kd[r * n + c]);
    }
  }
  return scatter.finish();
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

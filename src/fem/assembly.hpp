// Global system assembly: dof numbering, element merge, constraint
// elimination, and load-set vectors.
//
// fem::assemble is one pass: it builds the dof map and the reduced
// sparsity pattern (from the node graph, with no sort of column ids),
// then forms each element's stiffness in an inline ElementMatrix and adds
// every entry through SystemScatter, which finds a column's value offset
// in a per-row position map.  The simulated machine's parallel assembly
// (passembly.hpp) forms the same element matrices in worker tasks and
// places their entries with the same SystemScatter on the host, so both
// paths give the same bits.  Nothing is cached between calls: every
// caller assembles a model it has just built or edited.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "fem/model.hpp"
#include "la/sparse.hpp"
#include "support/check.hpp"

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

/// Full (model-wide) dof numbers of an element's local dofs, in element
/// matrix order: local dof d of the element's i-th node is row
/// i * edof + d, with edof = element_dofs_per_node(element.type), and
/// lands on full dof node * dofs_per_node + d.
void element_full_dofs(const Element& element, std::size_t dofs_per_node,
                       std::vector<std::size_t>& full);

/// Reduced sparsity pattern from element connectivity (structural
/// nonzeros; exact numeric zeros are kept so the pattern is
/// value-independent).  Built from the node graph: free dofs (p, d) and
/// (q, d') are coupled when an element holding nodes p and q has more
/// than max(d, d') dofs per node.
std::shared_ptr<const la::SparsityPattern> build_sparsity_pattern(
    const StructureModel& model, const DofMap& dofs);

/// The one constraint scatter, shared by fem::assemble and the parallel
/// path's host merge: it places element-matrix entries K(r, c) into the
/// reduced system.  A constrained row r is dropped, since its displacement
/// is known.  A free row's entry adds into the CSR values when column c is
/// free, and K(r, c) * u_c adds into rhs_correction[r] when c is
/// constrained with a nonzero prescribed value u_c.
class SystemScatter {
 public:
  /// Zero system over the model's dof map and reduced pattern.
  explicit SystemScatter(const StructureModel& model);

  /// Reduced row of full dof `full`, or -1 when it is constrained.
  std::ptrdiff_t free_row(std::size_t full) const {
    return system_.dofs.full_to_reduced[full];
  }
  /// Adds K(row, col); `row` is a free_row() result, `col` a full dof.
  /// A row's entries should arrive together: each change of row maps the
  /// new row's columns to their value offsets in one pass over its CSR
  /// row, and each entry then reads its offset from that map.
  void add(std::size_t row, std::size_t col, double value) {
    const DofMap& map = system_.dofs;
    if (const std::ptrdiff_t c = map.full_to_reduced[col]; c >= 0) {
      if (row != row_) map_row(row);
      const std::size_t k = offset_[static_cast<std::size_t>(c)];
      // Pattern membership: the offset lies in this row and holds c.
      FEM2_CHECK(k - row_begin_ < row_size_ &&
                 pattern_->col_idx()[k] == static_cast<std::size_t>(c));
      values_[k] += value;
    } else if (const double uc = map.prescribed[col]; uc != 0.0) {
      system_.rhs_correction[row] += value * uc;
    }
  }

  /// The filled system; call once.
  AssembledSystem finish();

 private:
  /// Points offset_ at `row`'s value offsets.
  void map_row(std::size_t row);

  AssembledSystem system_;
  std::shared_ptr<const la::SparsityPattern> pattern_;
  std::vector<double> values_;
  /// offset_[c] is column c's value offset in row row_, for the columns
  /// that row holds; other entries are stale or npos.
  std::vector<std::size_t> offset_;
  std::size_t row_ = la::SparsityPattern::npos;
  std::size_t row_begin_ = 0;  ///< row_'s first value offset
  std::size_t row_size_ = 0;   ///< and its entry count
};

/// Validates the model, then assembles K_ff and the K_fc·u_c correction.
AssembledSystem assemble(const StructureModel& model);

}  // namespace fem2::fem

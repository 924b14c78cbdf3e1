// Element stiffness matrices and stress recovery kernels.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "fem/model.hpp"

namespace fem2::fem {

/// An element stiffness matrix, row-major and held inline, so forming one
/// allocates nothing.  Its size is node_count * element_dofs_per_node(type),
/// at most 8 (Quad4); entries start at +0.0.
class ElementMatrix {
 public:
  static constexpr std::size_t kMaxSize = 8;

  explicit ElementMatrix(std::size_t size) : size_(size) {
    FEM2_CHECK(size <= kMaxSize);
  }

  std::size_t size() const { return size_; }
  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * size_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * size_ + c];
  }
  /// The size() x size() entries, row-major.
  std::span<const double> data() const {
    return {data_.data(), size_ * size_};
  }

 private:
  std::size_t size_;
  std::array<double, kMaxSize * kMaxSize> data_{};
};

/// Element stiffness in global coordinates; the assembly layer maps
/// entries into the model-wide dof numbering.
ElementMatrix element_stiffness(const StructureModel& model,
                                const Element& element);

/// Recover the stress of one element from its global displacement vector
/// (ordered per the model's dofs_per_node numbering).
ElementStress element_stress(const StructureModel& model,
                             std::size_t element_index,
                             const Displacements& displacements);

/// Simulated cost of element_stiffness plus merging the n×n result, with
/// n = node_count * element_dofs_per_node(type): B'DB-style products and
/// the merge, about 3n³ + n² flops.
std::uint64_t element_assembly_flops(const Element& element);

/// Simulated cost of element_stress: sigma = D B u_e plus invariants,
/// 2·3n + 20 flops.
std::uint64_t element_stress_flops(const Element& element);

/// von Mises equivalent stress for a plane-stress state.
double von_mises_plane(double sxx, double syy, double txy);

/// Area of a Tri3 element (signed; positive for counter-clockwise nodes).
double triangle_area(const Node& a, const Node& b, const Node& c);

}  // namespace fem2::fem

// Element stiffness matrices and stress recovery kernels.
#pragma once

#include <cstdint>
#include <span>

#include "fem/model.hpp"
#include "la/dense.hpp"

namespace fem2::fem {

/// Element stiffness in global coordinates.  Size is
/// node_count * element_dofs_per_node(type); the assembly layer maps entries
/// into the model-wide dof numbering.
la::DenseMatrix element_stiffness(const StructureModel& model,
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

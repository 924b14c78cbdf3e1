// Stress recovery — the application user's "calculate stresses" operation.
#pragma once

#include <vector>

#include "fem/model.hpp"

namespace fem2::fem {

/// Stresses for every element of the model.
std::vector<ElementStress> compute_stresses(const StructureModel& model,
                                            const Displacements& u);

/// Largest von Mises stress and the element carrying it.
ElementStress peak_stress(const std::vector<ElementStress>& stresses);

}  // namespace fem2::fem

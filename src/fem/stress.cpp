#include "fem/stress.hpp"

#include "fem/element.hpp"

namespace fem2::fem {

std::vector<ElementStress> compute_stresses(const StructureModel& model,
                                            const Displacements& u) {
  std::vector<ElementStress> out;
  out.reserve(model.elements.size());
  for (std::size_t i = 0; i < model.elements.size(); ++i)
    out.push_back(element_stress(model, i, u));
  return out;
}

ElementStress peak_stress(const std::vector<ElementStress>& stresses) {
  FEM2_CHECK_MSG(!stresses.empty(), "no stresses computed");
  const ElementStress* best = &stresses.front();
  for (const auto& s : stresses)
    if (s.von_mises > best->von_mises) best = &s;
  return *best;
}

}  // namespace fem2::fem

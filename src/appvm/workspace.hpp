// The application user's "workspace (user local data)": each session's
// private working state — the model being edited, the latest analysis, and
// data moved in from the shared database.
#pragma once

#include <optional>
#include <string>

#include "fem/analysis.hpp"
#include "fem/model.hpp"

namespace fem2::appvm {

class Workspace {
 public:
  bool has_model() const { return model_.has_value(); }
  fem::StructureModel& model();
  const fem::StructureModel& model() const;
  void set_model(fem::StructureModel model) { model_ = std::move(model); }

  bool has_results() const { return results_.has_value(); }
  const fem::AnalysisResult& results() const;
  void set_results(fem::AnalysisResult results) {
    results_ = std::move(results);
  }

  /// Dynamic storage in use by this workspace (bytes).
  std::size_t storage_bytes() const;

 private:
  std::optional<fem::StructureModel> model_;
  std::optional<fem::AnalysisResult> results_;
};

}  // namespace fem2::appvm

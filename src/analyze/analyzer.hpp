// fem2::analyze::Analyzer — single facade over the three analysis passes:
//
//   1. Grammar lint      (lint.hpp)      static, on the layer grammars
//   2. Spec conformance  (conform.hpp)   H-graph snapshots vs layer grammars
//   3. Race + deadlock   (race.hpp,      happens-before vector clocks and
//                         deadlock.hpp)  wait-for-graph cycle detection
//
// Construction attaches the analyzer to a live navm::Runtime: it installs
// itself as the OS and runtime observer and hooks the event engine's
// quiescent/idle points.  Destruction detaches everything, so the analyzer
// can be scoped around just the region of a run under scrutiny.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "analyze/conform.hpp"
#include "analyze/deadlock.hpp"
#include "analyze/finding.hpp"
#include "analyze/lint.hpp"
#include "analyze/race.hpp"
#include "navm/runtime.hpp"
#include "sysvm/observe.hpp"
#include "sysvm/os.hpp"

namespace fem2::analyze {

struct AnalyzerOptions {
  bool conformance = true;
  bool race_detection = true;
  bool deadlock_detection = true;
  /// Conformance snapshots every Nth engine quiescent point.
  std::size_t snapshot_stride = 64;
  /// Check each decoded sysvm message against the `message` production.
  bool check_messages = true;
  /// Access records kept per array by the race detector.
  std::size_t race_history_limit = 512;
};

struct AnalyzerStats {
  std::uint64_t quiescent_points = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t graphs_checked = 0;
  std::uint64_t messages_checked = 0;
  std::uint64_t accesses_tracked = 0;
  std::uint64_t steps_observed = 0;
};

class Analyzer final : public sysvm::OsObserver, public navm::RuntimeObserver {
 public:
  explicit Analyzer(navm::Runtime& runtime, AnalyzerOptions options = {});
  ~Analyzer() override;

  Analyzer(const Analyzer&) = delete;
  Analyzer& operator=(const Analyzer&) = delete;

  /// Lint all five layer grammars (pass 1).  Static: needs no live system.
  static std::vector<Finding> lint_layer_grammars();

  /// Replace a layer's conformance grammar (tests seed violations).
  void set_layer_grammar(Layer layer, hgraph::Grammar grammar);

  /// Force a full conformance snapshot and deadlock scan right now.
  void check_now();

  const std::vector<Finding>& findings() const { return findings_; }
  AnalyzerStats stats() const;

  // --- sysvm::OsObserver --------------------------------------------------
  void on_task_created(sysvm::TaskId task, sysvm::TaskId parent) override;
  void on_task_finished(sysvm::TaskId task) override;
  void on_step_begin(sysvm::TaskId task) override;
  void on_step_end(sysvm::TaskId task) override;
  void on_task_send(sysvm::TaskId from, hw::ClusterId to,
                    const sysvm::Message& message) override;
  void on_message(hw::ClusterId cluster, const sysvm::Message& message) override;
  void on_procedure_begin(const sysvm::MsgRemoteCall& call,
                          hw::ClusterId cluster) override;
  void on_procedure_end(const sysvm::MsgRemoteCall& call,
                        hw::ClusterId cluster) override;

  // --- navm::RuntimeObserver ----------------------------------------------
  void on_array_read(const navm::Window& window) override;
  void on_array_write(const navm::Window& window) override;
  void on_deposit(std::uint64_t collector, sysvm::TaskId depositor) override;
  void on_collector_take(std::uint64_t collector,
                         sysvm::TaskId owner) override;

 private:
  navm::Runtime& runtime_;
  sysvm::Os& os_;
  AnalyzerOptions options_;

  std::vector<Finding> findings_;
  ConformanceChecker conformance_;
  RaceDetector race_;
  DeadlockDetector deadlock_;

  std::uint64_t quiescent_points_ = 0;
  std::uint64_t steps_observed_ = 0;
};

}  // namespace fem2::analyze

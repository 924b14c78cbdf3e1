// The numerical analyst's VM runtime: registers coroutine task bodies as
// OS code blocks, owns the array/window registry ("all data owned by a
// single task; data accessible non-locally only via windows"), provides the
// window access procedures, and the collector rendezvous used to build
// reductions on top of remote procedure calls.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "navm/task.hpp"
#include "navm/window.hpp"
#include "sysvm/os.hpp"

namespace fem2::navm {

/// Arguments of the built-in "navm.win.write" procedure.
struct WriteArgs {
  Window window;
  std::vector<double> data;
};

/// Arguments of the built-in "navm.collect" procedure.  `depositor` and
/// `token` identify the deposit so re-initiated depositors (cluster-loss
/// recovery can replay a task from its initiate parameters) cannot double
/// count: a (depositor, token) pair is accepted at most once per collector.
/// Token 0 opts out of deduplication.
struct DepositArgs {
  std::uint64_t collector = 0;
  sysvm::TaskId depositor = sysvm::kNoTask;
  std::uint64_t token = 0;
  sysvm::Payload value;
};

struct TaskOptions {
  std::size_t activation_record_bytes = 512;
  std::size_t code_bytes = 8192;
};

/// Observation interface for the navm layer (analysis tooling).  gather()
/// and scatter() are the single funnel for every array access — local
/// awaits and the remote window procedures both route through them — so
/// these hooks see all shared-memory traffic.  Collector hooks expose the
/// reduction rendezvous (the happens-before barrier of parallel phases).
class RuntimeObserver {
 public:
  virtual ~RuntimeObserver() = default;

  virtual void on_array_created(ArrayId id, sysvm::TaskId owner) {
    (void)id;
    (void)owner;
  }
  virtual void on_array_read(const Window& window) { (void)window; }
  virtual void on_array_write(const Window& window) { (void)window; }

  /// A remote window operation (read or write routed to the owning
  /// cluster) completed; `wait` is the requesting task's round-trip wait
  /// in simulated cycles — the navm-level view of network latency, which
  /// varies with the machine's topology.  Local accesses do not report.
  virtual void on_remote_window_wait(const Window& window, hw::Cycles wait) {
    (void)window;
    (void)wait;
  }

  /// A deposit was accepted into a collector (post-deduplication).
  virtual void on_deposit(std::uint64_t collector, sysvm::TaskId depositor) {
    (void)collector;
    (void)depositor;
  }
  /// The owner drained a full collector (the barrier's release point).
  virtual void on_collector_take(std::uint64_t collector,
                                 sysvm::TaskId owner) {
    (void)collector;
    (void)owner;
  }
};

class Runtime {
 public:
  explicit Runtime(sysvm::Os& os);

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  sysvm::Os& os() { return os_; }

  // --- task types ---------------------------------------------------------
  void define_task(const std::string& name, TaskBody body,
                   TaskOptions options = {});

  /// Start a root task from the external environment and return its id.
  sysvm::TaskId launch(const std::string& name, sysvm::Payload params = {},
                       hw::ClusterId from = hw::ClusterId{0});

  /// Run the machine to completion.
  void run() { os_.run(); }

  const sysvm::Payload& result(sysvm::TaskId task) const {
    return os_.task_result(task);
  }

  // --- arrays & windows ----------------------------------------------------
  struct ArrayInfo {
    ArrayId id = kNoArray;
    sysvm::TaskId owner = sysvm::kNoTask;
    hw::ClusterId cluster;
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::vector<double> data;  ///< row-major host mirror of simulated storage
  };

  /// Create an array owned by the calling task, in its cluster's shared
  /// memory (charged to the task's heap).  Returns the full window.
  Window create_array(TaskContext& ctx, std::size_t rows, std::size_t cols,
                      std::vector<double> init = {});

  /// Owner-alive-checked lookup ("data lifetime - lifetime of owner task").
  const ArrayInfo& array_info(ArrayId id) const;

  /// All array ids ever created (for inspection; includes dead owners).
  std::vector<ArrayId> array_ids() const;
  /// Unchecked lookup for inspection of arrays with terminated owners.
  const ArrayInfo& array_info_unchecked(ArrayId id) const;
  hw::ClusterId window_cluster(const Window& window) const;

  std::vector<double> gather(const Window& window) const;
  void scatter(const Window& window, std::span<const double> data);

  /// Report a completed remote window round trip to the observer (called
  /// by the read/write awaitables when they resume after a remote call).
  void note_remote_window_wait(const Window& window, hw::Cycles wait);

  // --- collectors -----------------------------------------------------------
  /// Rendezvous for reductions: `expected` deposits fill it, then the
  /// waiting task wakes.  Auto-resets when taken, so iterative algorithms
  /// can reuse one collector per phase.
  std::uint64_t make_collector(TaskContext& ctx, std::size_t expected);

  // Used by TaskContext::CollectAwait.
  bool collector_full(std::uint64_t id) const;
  std::vector<sysvm::Payload> collector_take(std::uint64_t id);
  void collector_arm(std::uint64_t id, sysvm::CallToken token);

  /// Attach an observer (not owned; analysis tooling).  Pass nullptr to
  /// detach.
  void set_observer(RuntimeObserver* observer) { observer_ = observer; }

  /// Collector state for deadlock analysis: an armed, underfull collector
  /// at simulation idle means its owner waits forever.
  struct CollectorInfo {
    std::uint64_t id = 0;
    sysvm::TaskId owner = sysvm::kNoTask;
    std::size_t expected = 0;
    std::size_t deposited = 0;
    bool armed = false;
  };
  std::vector<CollectorInfo> collector_infos() const;

 private:
  struct Collector {
    std::size_t expected = 0;
    sysvm::TaskId owner = sysvm::kNoTask;
    hw::ClusterId cluster;
    std::vector<sysvm::Payload> items;
    sysvm::CallToken waiting_token = 0;
    /// Deposits already accepted, across auto-resets: a re-initiated
    /// depositor replaying an old round must not fill a later round.
    std::set<std::pair<sysvm::TaskId, std::uint64_t>> seen;
  };

  void register_builtin_procedures();
  /// Task-reaper hook: drop arrays and collectors owned by a reaped task.
  void purge_owned_by(sysvm::TaskId task);
  /// Ids come from the allocating kernel's own counter, striped by engine
  /// shard (id = n * shards + shard + 1), like the OS's task ids.
  ArrayId make_array_id();
  std::uint64_t make_collector_id();
  sysvm::Payload procedure_window_read(sysvm::ProcedureContext& ctx,
                                       const sysvm::Payload& args);
  sysvm::Payload procedure_window_write(sysvm::ProcedureContext& ctx,
                                        const sysvm::Payload& args);
  sysvm::Payload procedure_collect(sysvm::ProcedureContext& ctx,
                                   const sysvm::Payload& args);

  sysvm::Os& os_;
  std::map<ArrayId, ArrayInfo> arrays_;
  std::map<std::uint64_t, Collector> collectors_;
  std::vector<std::uint64_t> next_array_;      ///< one counter per shard
  std::vector<std::uint64_t> next_collector_;  ///< one counter per shard
  RuntimeObserver* observer_ = nullptr;
};

}  // namespace fem2::navm

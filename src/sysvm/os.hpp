// The FEM-2 operating system layer (system programmer's virtual machine).
//
// Implements the paper's runtime design on the hardware simulator:
//  * a code registry ("code blocks/constants blocks") with optional
//    load-code distribution to clusters,
//  * task activation records allocated from the per-cluster variable-size
//    block heap,
//  * the seven-message protocol (message.hpp),
//  * per-cluster kernel scheduling: "one PE runs the operating system
//    kernel, which fields incoming messages and assigns available PE's to
//    process them.  Messages arriving in the input queue of any cluster can
//    be processed by any available PE",
//  * fault recovery: work running on a PE that fails is re-executed on
//    another PE (the step's effects are buffered and atomic).
//
// Task bodies are supplied by the layer above (the numerical analyst's VM,
// src/navm) as TaskProgram implementations; the OS is execution-model
// agnostic.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "hw/channel.hpp"
#include "hw/machine.hpp"
#include "support/slot_pool.hpp"
#include "sysvm/heap.hpp"
#include "sysvm/message.hpp"
#include "sysvm/observe.hpp"

namespace fem2::sysvm {

class Os;

/// Outcome of running one task step (from one resumption to the next
/// suspension point).
struct StepResult {
  enum class Outcome { Finished, Blocked, Yielded };
  Outcome outcome = Outcome::Finished;
  hw::Cycles cycles = 1;  ///< compute charged to the executing PE
};

/// A task body.  resume() runs host code up to the next suspension point;
/// all interaction with the system goes through the TaskApi handed to the
/// factory, and message sends are buffered so a step is atomic even when
/// the executing PE fails mid-step.
class TaskProgram {
 public:
  virtual ~TaskProgram() = default;

  /// `wake` carries the datum that unblocked the task (remote-return
  /// result, resume-child datum) or is empty.
  virtual StepResult resume(Payload wake) = 0;

  /// Final result; called once after resume() returned Finished.
  virtual Payload take_result() = 0;
};

/// Facade through which a TaskProgram interacts with the OS during a step.
/// Sends are buffered and applied when the step's simulated time elapses;
/// blocking intents take effect when the step ends with Outcome::Blocked.
class TaskApi {
 public:
  TaskApi(Os& os, TaskId self);

  TaskId self() const { return self_; }
  hw::ClusterId cluster() const;
  std::uint32_t replication_index() const;
  std::uint32_t replication_count() const;

  /// Accumulate compute cost for the current step.
  void charge(hw::Cycles cycles) { charged_ += cycles; }
  void charge_flops(std::uint64_t flops);
  void charge_words(std::uint64_t words);

  // --- message-sending operations (buffered) -----------------------------
  /// "initiate K replications of a task of type T".  Task ids are assigned
  /// immediately; the initiate messages travel when the step completes.
  /// `params_for(i)` builds the parameter payload of replication i.
  std::vector<TaskId> initiate(const std::string& task_type, std::uint32_t k,
                               const std::function<Payload(std::uint32_t)>&
                                   params_for);

  /// Remote procedure call to a specific cluster (the caller determined the
  /// location from the window the call operates on).  Pair with
  /// block_on_reply(token) to wait for the result.
  CallToken remote_call(hw::ClusterId destination, std::string procedure,
                        Payload args);

  /// "resume a child task", optionally carrying a datum; broadcasting to a
  /// set of paused children is a loop of these.
  void resume_child(TaskId child, Payload datum);

  // --- blocking intents ---------------------------------------------------
  // The program must suspend (return Outcome::Blocked) right after setting
  // exactly one intent per step.
  void block_on_reply(CallToken token);
  void block_on_child_terminations(std::size_t count);
  void block_on_child_pauses(std::size_t count);
  /// "pause and notify parent task"; the wake value of the next resume
  /// carries the parent's datum.
  void block_for_pause();

  // --- mailbox draining (non-blocking) -------------------------------------
  /// Results of terminated children, in arrival order; drains the box.
  std::vector<Payload> take_child_results();
  /// Children that have paused so far; drains the box.
  std::vector<TaskId> take_paused_children();

  // --- heap ----------------------------------------------------------------
  /// Allocate task-owned storage from this cluster's heap ("dynamic
  /// creation of data objects by a task").  Freed automatically when the
  /// task terminates unless freed earlier.
  std::size_t heap_allocate(std::size_t bytes);
  void heap_free(std::size_t address);

  /// Declare that this task has an external side effect the OS cannot see
  /// (e.g. a direct host-memory window write).  Clears restartability, so
  /// cluster-loss recovery escalates to a tree restart instead of silently
  /// re-running the task.
  void mark_side_effect();

  Os& os() { return os_; }

 private:
  friend class Os;

  struct WaitIntent {
    enum class Kind { None, Reply, ChildTerminations, ChildPauses, Pause };
    Kind kind = Kind::None;
    CallToken token = 0;
    std::size_t count = 0;
  };

  void begin_step();

  Os& os_;
  TaskId self_;
  hw::Cycles charged_ = 0;
  std::vector<std::pair<hw::ClusterId, Message>> outgoing_;
  WaitIntent intent_;
};

/// Registered code for a task type.
struct CodeBlock {
  std::string name;
  std::size_t code_bytes = 4096;  ///< shipped by load-code messages
  std::size_t activation_record_bytes = 256;
  std::function<std::unique_ptr<TaskProgram>(TaskApi&, Payload params)>
      factory;
};

/// Context available to a remote procedure while it executes.
struct ProcedureContext {
  Os& os;
  hw::ClusterId cluster;  ///< where the procedure runs
  hw::Cycles charged = 0;

  void charge(hw::Cycles cycles) { charged += cycles; }
  void charge_flops(std::uint64_t flops);
  void charge_words(std::uint64_t words);
};

/// Registered remote procedure: executes in a single step on any available
/// PE of the target cluster.
struct Procedure {
  std::string name;
  std::size_t activation_record_bytes = 128;
  std::function<Payload(ProcedureContext&, const Payload& args)> fn;
  /// Re-executing the procedure is observationally safe (pure reads).  A
  /// task whose only sends were idempotent calls stays restartable and can
  /// be relocated individually after a cluster loss.
  bool idempotent = false;
};

enum class TaskState { Ready, Running, Blocked, Paused, Finished };
std::string_view task_state_name(TaskState s);

enum class Placement { RoundRobin, LeastLoaded, Local };

struct OsOptions {
  Placement placement = Placement::LeastLoaded;
  /// Model load-code messages to clusters that have not seen a task type.
  bool code_loading = true;
  HeapPolicy heap_policy = HeapPolicy::FirstFit;

  // --- reliable inter-cluster transport ------------------------------------
  /// Wrap inter-cluster messages in sequenced frames with acknowledgement,
  /// timeout-driven retransmission, duplicate suppression, and in-order
  /// delivery per (source, destination) channel.  Required for correct
  /// operation on a lossy network; off by default so fault-free runs keep
  /// the seed cost model.
  bool reliable_transport = false;
  /// Base retransmission timeout; doubles per attempt (capped at 64x).
  /// 0 = derive from the machine's topology: 4x the worst-case one-way
  /// path (max launch delay + software overhead + kernel dispatch), so
  /// high-latency topologies (rotor waits, browned-out links) do not
  /// retransmit spuriously.  The default suits the flat seed network.
  hw::Cycles retransmit_timeout = 20'000;
  /// Attempts before the destination is declared unreachable
  /// (support::Error).  Covers a link severed while both ends stay alive.
  std::size_t max_retransmits = 12;
};

struct OsStats {
  std::array<std::uint64_t, kMessageTypeCount> messages_sent{};
  std::array<std::uint64_t, kMessageTypeCount> message_bytes_sent{};
  std::uint64_t tasks_initiated = 0;
  std::uint64_t tasks_finished = 0;
  std::uint64_t procedures_executed = 0;
  std::uint64_t kernel_dispatches = 0;
  std::uint64_t steps_executed = 0;
  std::uint64_t steps_redone = 0;  ///< re-executions after PE failures
  std::uint64_t ready_queue_peak = 0;

  // Reliable-transport counters.
  std::uint64_t retransmissions = 0;
  std::uint64_t duplicates_dropped = 0;  ///< receiver-side seq filtering
  std::uint64_t acks_sent = 0;

  // Cluster-loss recovery counters.
  std::uint64_t clusters_lost = 0;
  std::uint64_t tasks_relocated = 0;   ///< restartable leaves re-initiated
  std::uint64_t trees_restarted = 0;   ///< root re-initiations
  std::uint64_t orphans_reaped = 0;    ///< subtree records discarded
  std::uint64_t stale_messages_dropped = 0;  ///< referenced reaped tasks

  std::uint64_t total_messages() const;
  std::uint64_t total_message_bytes() const;

  /// Exhaustive, byte-stable dump of every counter; the determinism tests
  /// diff this across repeated runs.
  std::string dump() const;
};

class Os {
 public:
  explicit Os(hw::Machine& machine, OsOptions options = {});

  Os(const Os&) = delete;
  Os& operator=(const Os&) = delete;

  // --- configuration -------------------------------------------------------
  void register_task_type(CodeBlock block);
  void register_procedure(Procedure procedure);
  bool has_task_type(std::string_view name) const;

  // --- boot / run -----------------------------------------------------------
  /// Inject a root task from the external environment.  The initiate
  /// message is charged as if sent from cluster `from`.
  TaskId launch(const std::string& task_type, Payload params,
                hw::ClusterId from = hw::ClusterId{0});

  /// Drive the machine until no events remain.
  void run();
  hw::Cycles now() const { return machine_.now(); }

  // --- introspection --------------------------------------------------------
  TaskState task_state(TaskId task) const;
  bool task_finished(TaskId task) const;
  /// Result of a finished task (kept until the record is observed).
  const Payload& task_result(TaskId task) const;
  hw::ClusterId task_cluster(TaskId task) const;
  std::size_t live_tasks() const;

  /// All task ids ever created (records persist for post-run inspection).
  std::vector<TaskId> task_ids() const;

  struct TaskInfo {
    TaskId id = kNoTask;
    std::string type;
    TaskId parent = kNoTask;
    hw::ClusterId cluster;
    TaskState state = TaskState::Ready;
    std::uint32_t replication_index = 0;
    std::uint32_t replication_count = 1;
  };
  TaskInfo task_info(TaskId task) const;

  /// Current ready-queue depth of a cluster.
  std::size_t ready_depth(hw::ClusterId cluster) const;

  Heap& heap(hw::ClusterId cluster);
  const OsStats& stats() const { return stats_; }

  // --- extension points for higher layers (navm) ---------------------------
  /// Reserve a call token (e.g. for synthetic wake-ups built on the
  /// remote-return path).  Tokens are striped by the allocating kernel's
  /// engine shard (see ShardLane).
  CallToken allocate_call_token();
  /// Inject a message into the machine as if sent from `from`.
  void post(hw::ClusterId from, hw::ClusterId to, Message message) {
    send(from, to, std::move(message));
  }
  hw::Machine& machine() { return machine_; }
  const hw::MachineConfig& config() const { return machine_.config(); }

  /// Installed by a higher layer; invoked for every task record discarded by
  /// cluster-loss recovery (so host-side registries — windows, collectors —
  /// can drop state owned by the reaped task).  The record still exists when
  /// the reaper runs.
  using TaskReaper = std::function<void(TaskId)>;
  void set_task_reaper(TaskReaper reaper) { task_reaper_ = std::move(reaper); }

  /// A task exists and has not finished (stale-message guard; unlike
  /// task_state this never throws).
  bool task_known(TaskId task) const;

  /// Attach an observer (not owned; analysis tooling).  Pass nullptr to
  /// detach.  At most one observer at a time.
  void set_observer(OsObserver* observer) { observer_ = observer; }

  // --- wait-state introspection (deadlock analysis) -------------------------
  /// Why a task is not running, exposed without touching TaskApi internals.
  struct WaitInfo {
    enum class Kind { None, Reply, ChildTerminations, ChildPauses, Pause };
    Kind kind = Kind::None;
    CallToken token = 0;      ///< for Kind::Reply
    std::size_t count = 0;    ///< for child waits: how many it asked for
    std::size_t satisfied = 0;  ///< events already banked toward `count`
  };
  WaitInfo wait_info(TaskId task) const;

  /// Remote calls whose return has not been delivered.
  struct PendingCallInfo {
    CallToken token = 0;
    TaskId caller = kNoTask;
    hw::ClusterId destination;
  };
  std::vector<PendingCallInfo> pending_call_infos() const;

  /// Reliable-transport frames sent but not yet acknowledged, per channel.
  struct ChannelBacklog {
    hw::ClusterId source;
    hw::ClusterId destination;
    std::size_t unacked = 0;
  };
  std::vector<ChannelBacklog> transport_backlog() const;

  /// Frames on the wire: packets sent but not yet decoded or dropped.
  /// Zero once a run has drained.
  std::size_t frames_in_flight() const { return frames_.in_use(); }

 private:
  friend class TaskApi;

  struct ProcWork {
    MsgRemoteCall call;
    hw::ClusterId from;  ///< caller's cluster (reply destination)
    // Redo support: once executed, the outcome is cached so a PE failure
    // replays the time cost without re-running host code.
    bool executed = false;
    hw::Cycles cycles = 0;
    Payload result;
  };
  using ReadyItem = std::variant<TaskId, ProcWork>;

  struct TaskRecord {
    TaskId id = kNoTask;
    std::string type;
    TaskId parent = kNoTask;
    hw::ClusterId cluster;
    std::uint32_t replication_index = 0;
    std::uint32_t replication_count = 1;
    TaskState state = TaskState::Ready;

    // Cluster-loss recovery.  saved_params lets the OS re-issue the task's
    // initiate message verbatim; restartable is cleared at the first applied
    // effect the outside world can observe (any non-idempotent send, or a
    // mark_side_effect from the layer above).  incarnation disambiguates a
    // re-initiated record from in-flight work of its predecessor.
    Payload saved_params;
    bool restartable = true;
    std::uint64_t incarnation = 0;
    /// The parent has seen this task's terminate-notify.  Lets recovery
    /// decide whether an unacknowledged terminate frame from a dead cluster
    /// must be re-sent (once) or was already delivered.
    bool terminate_delivered = false;

    std::unique_ptr<TaskApi> api;
    std::unique_ptr<TaskProgram> program;
    std::size_t ar_address = Heap::kNullAddress;
    std::size_t ar_bytes = 0;
    std::vector<std::size_t> owned_heap_blocks;

    // Wake/wait machinery.
    TaskApi::WaitIntent wait;
    Payload wake_value;
    std::map<CallToken, Payload> replies;     ///< early remote-returns
    std::vector<Payload> child_results;
    std::size_t unconsumed_child_terms = 0;
    std::vector<TaskId> paused_children;
    std::size_t unconsumed_child_pauses = 0;
    std::deque<Payload> pending_resumes;      ///< resume before pause race

    // Pending (buffered) step awaiting completion or redo.
    bool step_pending = false;
    StepResult step;
    std::vector<std::pair<hw::ClusterId, Message>> step_sends;
    Payload result;
  };

  struct ClusterState {
    std::deque<ReadyItem> ready;
    bool dispatching = false;
    std::set<std::string> loaded_code;
  };

  /// One cluster kernel's own bookkeeping (lane index == engine shard
  /// index: one lane per cluster, plus one for host and fault events).  A
  /// kernel draws ids from its own striped counters
  /// (id = n * lanes + lane + 1), places tasks from the window-stale load
  /// board plus its own pending deltas, and remembers which code it has
  /// shipped; there is no global directory.  This state is part of the
  /// model: placement, ids, the std::map orders that follow from them and
  /// load-code traffic all depend on it.
  struct ShardLane {
    std::uint64_t next_task_id = 0;
    std::uint64_t next_call_token = 0;
    std::uint64_t next_incarnation = 0;
    std::size_t round_robin = 0;
    /// Signed placement-load adjustments this kernel has made since the
    /// last load-board refresh, indexed by cluster.
    std::vector<std::int64_t> load_delta;
    /// (cluster, task type) pairs this kernel has shipped code for.
    std::set<std::pair<std::uint32_t, std::string>> shipped_code;
  };

  // --- in-flight frames ------------------------------------------------------
  /// What a packet carries.  Plain frames hold one protocol message sent
  /// outside the reliable transport.  With reliable_transport on, data
  /// frames carry one message plus its channel sequence number, and ack
  /// frames carry the acknowledged sequence number and no message.
  struct Frame {
    enum class Kind : std::uint8_t { Plain, Data, Ack };
    Kind kind = Kind::Plain;
    std::uint32_t src = 0;  ///< source cluster index
    std::uint64_t seq = 0;
    Message message;
  };
  using FramePool = support::SlotPool<Frame>;
  static constexpr std::size_t kFrameOverheadBytes = 16;
  static constexpr std::size_t kAckBytes = 24;

  // Protocol state and transitions live in hw/channel.hpp as a pure state
  // machine, shared with the bounded model checker (analyze/model_check);
  // the Os supplies timers, the network, and failure recovery around it.
  using SendChannel = hw::ReliableSender<Message>;
  using UnackedFrame = SendChannel::Unacked;
  using RecvChannel = hw::ReliableReceiver<Message>;
  using ChannelKey = std::pair<std::uint32_t, std::uint32_t>;  ///< (src, dst)

  /// A remote call whose return has not been seen: destination cluster and
  /// caller, so a cluster loss can identify callers it strands.
  struct PendingCall {
    TaskId caller = kNoTask;
    hw::ClusterId destination;
    std::uint64_t caller_epoch = 0;
  };

  // --- plumbing -------------------------------------------------------------
  using Packet_t = hw::Packet;

  /// The lane of the executing event's kernel.
  ShardLane& lane();
  TaskId make_task_id();
  std::uint64_t make_incarnation();
  /// Refresh hook (window boundaries): folds every lane's load deltas into
  /// the authoritative load board.
  void refresh_load_board();

  hw::ClusterId choose_cluster(hw::ClusterId source);
  hw::ClusterId first_alive_cluster() const;
  void send(hw::ClusterId from, hw::ClusterId to, Message message);
  /// Park a frame in the in-flight table and put it on the wire; the
  /// packet's cargo is the frame's slot, freed when decode takes the frame
  /// or the machine reports the packet dropped.
  void send_frame(hw::ClusterId from, hw::ClusterId to, std::size_t bytes,
                  Frame frame);
  void transmit_frame(hw::ClusterId from, hw::ClusterId to, std::uint64_t seq,
                      const Message& message);
  void send_ack(hw::ClusterId from, hw::ClusterId to, std::uint64_t seq);
  void arm_retransmit(hw::ClusterId from, hw::ClusterId to, std::uint64_t seq,
                      std::size_t attempts);
  void retransmit(hw::ClusterId from, hw::ClusterId to, std::uint64_t seq);
  void deliver(hw::ClusterId cluster, hw::ClusterId from, Message&& message);
  void service(hw::ClusterId cluster);
  void dispatch_one(hw::ClusterId cluster);
  void decode(hw::ClusterId cluster, Packet_t&& packet);
  void assign_workers(hw::ClusterId cluster);
  void start_work(hw::PeId pe, ReadyItem item);
  void complete_task_step(hw::PeId pe, TaskId task, std::uint64_t incarnation);
  void finish_task(TaskRecord& record);
  void apply_block_intent(TaskRecord& record);
  void make_ready(TaskRecord& record, Payload wake);
  void push_ready(hw::ClusterId cluster, ReadyItem item, bool front = false);
  void on_work_lost(hw::ClusterId cluster);

  // --- cluster-loss recovery -------------------------------------------------
  void on_cluster_lost(hw::ClusterId cluster);
  /// Highest unfinished ancestor (recovery restarts whole trees from here).
  TaskId restart_root(TaskId task) const;
  bool is_restartable(const TaskRecord& rec) const;
  /// Discard a task record (heap blocks, queue entries, registries) without
  /// running it to completion.  Fires the task reaper.
  void reap_task(TaskId task);
  /// Erase `task` and send a fresh initiate with the same id from its saved
  /// parameters; placement picks a live cluster.
  void reinitiate_task(TaskId task);
  /// Re-route or drop unacked frames destined to a dead cluster.
  void flush_transport_to(hw::ClusterId cluster);
  void flush_transport_from(hw::ClusterId cluster);
  /// The task a message is addressed to, if it is task-addressed.
  static std::optional<TaskId> message_addressee(const Message& m);

  TaskRecord& record(TaskId task);
  const TaskRecord& record(TaskId task) const;
  ClusterState& cluster_state(hw::ClusterId cluster);

  // Handlers per message type.
  void handle(hw::ClusterId cluster, MsgInitiate&& m);
  void handle(hw::ClusterId cluster, MsgPauseNotify&& m);
  void handle(hw::ClusterId cluster, MsgResumeChild&& m);
  void handle(hw::ClusterId cluster, MsgTerminateNotify&& m);
  void handle(hw::ClusterId cluster, MsgRemoteCall&& m, hw::ClusterId from);
  void handle(hw::ClusterId cluster, MsgRemoteReturn&& m);
  void handle(hw::ClusterId cluster, MsgLoadCode&& m);

  hw::Machine& machine_;
  OsOptions options_;
  std::map<std::string, CodeBlock, std::less<>> code_;
  std::map<std::string, Procedure, std::less<>> procedures_;
  std::map<TaskId, TaskRecord> tasks_;
  /// Placement decided at id-assignment time, so messages addressed to a
  /// task (e.g. resume-child) can be routed before its initiate decodes.
  std::map<TaskId, hw::ClusterId> task_homes_;
  std::vector<ClusterState> clusters_;
  std::vector<Heap> heaps_;
  std::vector<std::optional<ReadyItem>> running_;  ///< indexed by flat PE
  std::vector<ShardLane> lanes_;  ///< one per engine shard
  /// Authoritative placement loads, refreshed only at window boundaries:
  /// the kernels' shared view of cluster load is at most one window old.
  std::vector<std::int64_t> load_board_;
  OsStats stats_;

  std::map<ChannelKey, SendChannel> send_channels_;
  std::map<ChannelKey, RecvChannel> recv_channels_;
  std::map<CallToken, PendingCall> pending_calls_;
  FramePool frames_;  ///< frames on the wire, by packet cargo
  TaskReaper task_reaper_;
  OsObserver* observer_ = nullptr;
};

}  // namespace fem2::sysvm

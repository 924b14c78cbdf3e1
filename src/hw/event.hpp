// Deterministic discrete-event engine driving the machine simulation.
//
// Every event carries a totally-ordered key (time, origin shard, origin
// sequence) and waits in one queue, so events execute in key order and
// runs are bit-reproducible for every seed.  A *shard* is the context an
// event runs in: each cluster of the simulated machine is one, and one
// "global" shard runs host-scheduled events (fault injections, OS
// launches, anything scheduled from outside the simulation).  Events take
// their sequence numbers from the shard that scheduled them, and kernels
// number their ids by the shard they run on.
//
// Execution proceeds in *phases*: all cluster events inside a virtual-time
// window [B, B+W) run, then the next phase.  W equals the topology's
// minimum inter-cluster launch delay, so a message sent during a phase can
// only be delivered in a later one; the window boundaries are the cadence
// at which refresh hooks publish globally shared state (the OS load board).
// Global events run one at a time between phases.
//
// Pending actions live in one pool of reused slots; the queue orders small
// (key, shard, slot) entries, so scheduling and running an event allocates
// nothing once the pool and the queue have grown to the run's high water.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "hw/config.hpp"
#include "support/slot_pool.hpp"
#include "support/small_box.hpp"

namespace fem2::hw {

/// The work of one event: a move-only callable taking no arguments.
/// Captures of up to kInlineBytes (every action the simulator schedules)
/// are stored inline; larger ones fall back to the heap.
class Action {
 public:
  static constexpr std::size_t kInlineBytes = 64;

  Action() noexcept = default;

  /// Implicit, like std::function, so lambdas convert at the call site.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Action> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  Action(F&& f) : invoke_(&invoke<std::decay_t<F>>) {
    box_.emplace<std::decay_t<F>>(std::forward<F>(f));
  }

  Action(Action&&) noexcept = default;
  Action& operator=(Action&&) noexcept = default;

  explicit operator bool() const noexcept { return box_.has_value(); }
  void operator()() { invoke_(box_); }

 private:
  using Box = support::SmallBox<kInlineBytes, false>;

  template <typename F>
  static void invoke(Box& box) {
    box.unchecked<F>()();
  }

  Box box_;
  void (*invoke_)(Box&) = nullptr;
};

/// Total order on events.  `shard` and `seq` identify the scheduling
/// context that created the event (its *origin*), not the shard it runs
/// on; the pair (shard, seq) is unique because each shard allocates its
/// own monotonic sequence numbers.
struct EventKey {
  Cycles time = 0;
  std::uint32_t shard = 0;
  std::uint64_t seq = 0;

  friend bool operator<(const EventKey& a, const EventKey& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.shard != b.shard) return a.shard < b.shard;
    return a.seq < b.seq;
  }
};

class Engine {
 public:
  using Action = hw::Action;
  /// Hooks run per phase, not per event, and stay std::function.
  using Hook = std::function<void()>;

  Engine() = default;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- topology ---------------------------------------------------------
  /// Give the engine `clusters` cluster shards plus one global shard,
  /// with window `window` cycles.  Called once by the Machine before any
  /// event is scheduled.  A window of 0 makes every virtual instant its
  /// own phase.
  void configure(std::uint32_t clusters, Cycles window);

  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(next_seq_.size());
  }
  /// The shard host-context events are scheduled on (always the last).
  std::uint32_t global_shard() const { return shard_count() - 1; }
  Cycles window() const { return window_; }

  // --- scheduling context ----------------------------------------------
  /// Virtual time of the current context: the executing event's time, or
  /// the time of the last executed event from the host.
  Cycles now() const { return executing_ ? current_.time : host_now_; }
  /// Shard of the executing event (the global shard from the host).
  std::uint32_t current_shard() const {
    return executing_ ? current_.shard : global_shard();
  }

  // --- scheduling -------------------------------------------------------
  /// Schedule `action` on the current context's shard, `delay` cycles
  /// from now().
  void schedule(Cycles delay, Action action);

  /// Schedule on the current context's shard at absolute time >= now().
  void schedule_at(Cycles time, Action action);

  /// Schedule on an explicit shard at absolute time >= now().  The event's
  /// key takes its sequence number from the current context's shard.
  void schedule_on(std::uint32_t shard, Cycles time, Action action);

  // --- execution --------------------------------------------------------
  /// Run until the event queue is empty.  Returns events processed.
  std::uint64_t run();

  /// Run until the queue is empty or virtual time would exceed `limit`.
  std::uint64_t run_until(Cycles limit);

  bool idle() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }
  std::uint64_t processed() const { return executed_; }
  /// Size of the action slot pool: the most events ever pending at once.
  std::size_t action_slots() const { return actions_.capacity(); }

  // --- hooks ------------------------------------------------------------
  /// Invoked at every quiescent point: after a phase (or a global event)
  /// ran and no further event is pending at the same virtual time, so all
  /// state transitions of this instant have settled.  The hook must
  /// observe, not mutate, the simulation.  Pass {} to detach.
  void set_quiescent_hook(Hook hook) { quiescent_hook_ = std::move(hook); }

  /// Invoked when a run() / run_until() drains the queue completely after
  /// processing at least one event.  Used to detect simulations that went
  /// idle with live tasks remaining (deadlock / starvation).
  void set_idle_hook(Hook hook) { idle_hook_ = std::move(hook); }

  /// Invoked after every phase and every global event, with no event in
  /// flight, in registration order (e.g. to count phases).
  void add_barrier_hook(Hook hook);

  /// Invoked whenever virtual time crosses a window boundary B (before
  /// any event at time >= B executes): every event with time < B has
  /// executed.  With window 0 this fires before every phase.  Used for
  /// periodically refreshed global state (e.g. the OS load board).
  void add_refresh_hook(Hook hook);

 private:
  /// A queued event: its key, the shard it runs on, and the pool slot
  /// holding its action.
  struct Entry {
    EventKey key;
    std::uint32_t shard = 0;
    support::SlotPool<Action>::Slot slot = 0;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return b.key < a.key;
    }
  };

  /// The executing event's shard and time.
  struct Context {
    std::uint32_t shard = 0;
    Cycles time = 0;
  };

  /// Pop and execute the first queued event with the proper context.
  void execute();
  void run_barrier_hooks();
  void fire_refresh_up_to(Cycles next_time);
  void maybe_quiescent(Cycles settled);

  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  /// Next sequence number per origin shard; unconfigured: one (global).
  std::vector<std::uint64_t> next_seq_ = std::vector<std::uint64_t>(1);
  std::uint64_t executed_ = 0;
  support::SlotPool<Action> actions_;  ///< pending actions, by Entry::slot
  Cycles window_ = 0;
  Cycles host_now_ = 0;    ///< time of the last executed event
  Cycles next_refresh_ = 0;  ///< next window boundary to announce
  bool running_ = false;
  bool executing_ = false;  ///< an event's action is running
  Context current_;         ///< valid while executing_

  Hook quiescent_hook_;
  Hook idle_hook_;
  std::vector<Hook> barrier_hooks_;
  std::vector<Hook> refresh_hooks_;
};

}  // namespace fem2::hw

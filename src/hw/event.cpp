#include "hw/event.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace fem2::hw {

void Engine::configure(std::uint32_t clusters, Cycles window) {
  FEM2_CHECK_MSG(!running_, "cannot reconfigure a running engine");
  FEM2_CHECK_MSG(next_seq_.size() == 1 && next_seq_[0] == 0,
                 "engine must be configured before any event is scheduled");
  FEM2_CHECK(clusters >= 1);
  next_seq_.assign(clusters + 1, 0);
  window_ = window;
  next_refresh_ = window;
}

void Engine::schedule(Cycles delay, Action action) {
  schedule_on(current_shard(), now() + delay, std::move(action));
}

void Engine::schedule_at(Cycles time, Action action) {
  schedule_on(current_shard(), time, std::move(action));
}

void Engine::schedule_on(std::uint32_t shard, Cycles time, Action action) {
  FEM2_CHECK_MSG(time >= now(), "cannot schedule an event in the past");
  FEM2_CHECK(static_cast<bool>(action));
  FEM2_CHECK(shard < shard_count());
  const std::uint32_t origin = current_shard();
  queue_.push(Entry{EventKey{time, origin, next_seq_[origin]++}, shard,
                    actions_.put(std::move(action))});
}

std::uint64_t Engine::run() { return run_until(~Cycles{0}); }

void Engine::add_barrier_hook(Hook hook) {
  FEM2_CHECK(hook != nullptr);
  barrier_hooks_.push_back(std::move(hook));
}

void Engine::add_refresh_hook(Hook hook) {
  FEM2_CHECK(hook != nullptr);
  refresh_hooks_.push_back(std::move(hook));
}

void Engine::run_barrier_hooks() {
  for (Hook& h : barrier_hooks_) h();
}

void Engine::fire_refresh_up_to(Cycles next_time) {
  if (refresh_hooks_.empty()) return;
  if (window_ == 0) {
    for (Hook& h : refresh_hooks_) h();
    return;
  }
  while (next_refresh_ <= next_time) {
    for (Hook& h : refresh_hooks_) h();
    next_refresh_ += window_;
  }
}

void Engine::maybe_quiescent(Cycles settled) {
  if (!quiescent_hook_) return;
  // No event is due before `settled`, so the queue's first is the one to
  // check.
  if (!queue_.empty() && queue_.top().key.time == settled) return;
  quiescent_hook_();
}

void Engine::execute() {
  const Entry ev = queue_.top();
  queue_.pop();
  // Take the action out and free its slot before running it: the action
  // may schedule more events (reusing the slot), and it may throw.
  Action action = actions_.take(ev.slot);
  current_ = Context{ev.shard, ev.key.time};
  executing_ = true;
  struct Restore {
    bool& flag;
    ~Restore() { flag = false; }
  } restore{executing_};
  action();
  ++executed_;
  host_now_ = std::max(host_now_, ev.key.time);
}

std::uint64_t Engine::run_until(Cycles limit) {
  FEM2_CHECK_MSG(!running_, "engine run() is not reentrant");
  running_ = true;
  struct Guard {
    bool& flag;
    ~Guard() { flag = false; }
  } guard{running_};
  const std::uint64_t start_processed = executed_;
  const std::uint32_t g = global_shard();
  while (!queue_.empty() && queue_.top().key.time <= limit) {
    const Cycles first = queue_.top().key.time;
    fire_refresh_up_to(first);

    if (queue_.top().shard == g) {
      // Host/global events run one at a time, between phases.
      execute();
      run_barrier_hooks();
      maybe_quiescent(first);
      continue;
    }

    // A cluster phase runs events in key order up to the next window
    // boundary or the run limit, and stops early at a global event.
    Cycles stop = window_ == 0 ? first + 1 : (first / window_ + 1) * window_;
    if (limit != ~Cycles{0}) stop = std::min(stop, limit + 1);
    while (!queue_.empty() && queue_.top().key.time < stop &&
           queue_.top().shard != g) {
      execute();
    }
    run_barrier_hooks();
    maybe_quiescent(host_now_);
  }
  const std::uint64_t count = executed_ - start_processed;
  if (idle_hook_ && count > 0 && idle()) idle_hook_();
  return count;
}

}  // namespace fem2::hw

#include "hw/event.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace fem2::hw {

void Engine::configure(std::uint32_t clusters, Cycles window) {
  FEM2_CHECK_MSG(!running_, "cannot reconfigure a running engine");
  FEM2_CHECK_MSG(shards_.size() == 1 && shards_[0].queue.empty() &&
                     shards_[0].next_seq == 0,
                 "engine must be configured before any event is scheduled");
  FEM2_CHECK(clusters >= 1);
  shards_ = std::vector<Shard>(clusters + 1);
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
  shards_[shard].queue.push(
      Entry{EventKey{time, origin, shards_[origin].next_seq++},
            actions_.put(std::move(action))});
}

std::uint64_t Engine::run() { return run_until(~Cycles{0}); }

bool Engine::idle() const {
  for (const Shard& s : shards_) {
    if (!s.queue.empty()) return false;
  }
  return true;
}

std::size_t Engine::pending() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) n += s.queue.size();
  return n;
}

std::uint64_t Engine::processed() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) n += s.executed;
  return n;
}

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
  for (const Shard& s : shards_) {
    if (!s.queue.empty() && s.queue.top().key.time == settled) return;
  }
  quiescent_hook_();
}

void Engine::execute(std::uint32_t shard) {
  Shard& sh = shards_[shard];
  const Entry ev = sh.queue.top();
  sh.queue.pop();
  // Take the action out and free its slot before running it: the action
  // may schedule more events (reusing the slot), and it may throw.
  Action action = actions_.take(ev.slot);
  current_ = Context{shard, ev.key.time};
  executing_ = true;
  struct Restore {
    bool& flag;
    ~Restore() { flag = false; }
  } restore{executing_};
  action();
  ++sh.executed;
  host_now_ = std::max(host_now_, ev.key.time);
}

std::uint64_t Engine::run_until(Cycles limit) {
  FEM2_CHECK_MSG(!running_, "engine run() is not reentrant");
  running_ = true;
  struct Guard {
    bool& flag;
    ~Guard() { flag = false; }
  } guard{running_};
  const std::uint64_t start_processed = processed();
  const std::uint32_t g = global_shard();
  for (;;) {
    bool any = false;
    EventKey min_key;
    std::uint32_t min_shard = 0;
    for (std::uint32_t s = 0; s < shard_count(); ++s) {
      const Shard& sh = shards_[s];
      if (sh.queue.empty()) continue;
      const EventKey& k = sh.queue.top().key;
      if (!any || k < min_key) {
        any = true;
        min_key = k;
        min_shard = s;
      }
    }
    if (!any || min_key.time > limit) break;
    fire_refresh_up_to(min_key.time);

    if (min_shard == g) {
      // Host/global events run one at a time, between phases.
      execute(g);
      run_barrier_hooks();
      maybe_quiescent(min_key.time);
      continue;
    }

    // A cluster phase: every cluster event with key < stop, where stop is
    // the next window boundary, the next global event, or the run limit —
    // whichever comes first.
    EventKey stop{window_ == 0 ? min_key.time + 1
                               : (min_key.time / window_ + 1) * window_,
                  0, 0};
    if (limit != ~Cycles{0} && limit + 1 < stop.time) {
      stop = EventKey{limit + 1, 0, 0};
    }
    if (!shards_[g].queue.empty() && shards_[g].queue.top().key < stop) {
      stop = shards_[g].queue.top().key;
    }

    unsigned active = 0;
    std::uint32_t only = min_shard;
    for (std::uint32_t s = 0; s < g; ++s) {
      const Shard& sh = shards_[s];
      if (!sh.queue.empty() && sh.queue.top().key < stop) {
        ++active;
        only = s;
      }
    }

    if (active == 1) {
      // One cluster has work in this window: drain it.
      Shard& sh = shards_[only];
      while (!sh.queue.empty() && sh.queue.top().key < stop) execute(only);
    } else {
      // Several clusters: interleave their events in key order.
      for (;;) {
        bool found = false;
        EventKey k;
        std::uint32_t sidx = 0;
        for (std::uint32_t s = 0; s < g; ++s) {
          const Shard& sh = shards_[s];
          if (sh.queue.empty()) continue;
          const EventKey& t = sh.queue.top().key;
          if (t < stop && (!found || t < k)) {
            found = true;
            k = t;
            sidx = s;
          }
        }
        if (!found) break;
        execute(sidx);
      }
    }
    run_barrier_hooks();
    maybe_quiescent(host_now_);
  }
  const std::uint64_t count = processed() - start_processed;
  if (idle_hook_ && count > 0 && idle()) idle_hook_();
  return count;
}

}  // namespace fem2::hw

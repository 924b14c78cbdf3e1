// The numerical analyst's VM task model, as C++20 coroutines.
//
// A task body is a coroutine over a TaskContext.  Each co_await is one
// scheduling step on the simulated machine: the body runs on an assigned
// PE, charges compute cycles, buffers message sends, and suspends at the
// await; the OS kernel (src/sysvm) decides when it runs again.  Sequence
// control matches the paper's list: task initiate / pause / resume /
// terminate, forall and pardo (parops.hpp), and remote procedure calls
// whose destination is the cluster holding the window's data.
#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "navm/value.hpp"
#include "navm/window.hpp"
#include "sysvm/os.hpp"

namespace fem2::navm {

class Runtime;
class TaskContext;

/// Coroutine return object for task bodies: `Coro body(TaskContext&)`.
class Coro {
 public:
  struct promise_type {
    sysvm::Payload result;
    std::exception_ptr exception;

    Coro get_return_object() {
      return Coro(Handle::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_value(sysvm::Payload value) { result = std::move(value); }
    void unhandled_exception() { exception = std::current_exception(); }
  };
  using Handle = std::coroutine_handle<promise_type>;

  explicit Coro(Handle handle) : handle_(handle) {}
  Coro(Coro&& other) noexcept : handle_(other.handle_) {
    other.handle_ = nullptr;
  }
  Coro(const Coro&) = delete;
  Coro& operator=(const Coro&) = delete;
  Coro& operator=(Coro&&) = delete;
  ~Coro() {
    if (handle_) handle_.destroy();
  }

  Handle handle() const { return handle_; }

 private:
  Handle handle_;
};

/// Task body signature registered with Runtime::define_task.
using TaskBody = std::function<Coro(TaskContext&)>;

enum class SuspendKind { Blocked, Yielded };

class TaskContext {
 public:
  TaskContext(sysvm::TaskApi& api, sysvm::Payload params, Runtime* runtime)
      : api_(api), params_(std::move(params)), runtime_(runtime) {}

  // --- identity & parameters ------------------------------------------------
  sysvm::TaskId self() const { return api_.self(); }
  hw::ClusterId cluster() const { return api_.cluster(); }
  /// Which replication of an `initiate K` this task is (0-based), and K.
  std::uint32_t replication_index() const { return api_.replication_index(); }
  std::uint32_t replication_count() const { return api_.replication_count(); }
  const sysvm::Payload& params() const { return params_; }
  Runtime& runtime() const;

  // --- cost accounting -------------------------------------------------------
  void charge(hw::Cycles cycles) { api_.charge(cycles); }
  void charge_flops(std::uint64_t flops) { api_.charge_flops(flops); }
  void charge_words(std::uint64_t words) { api_.charge_words(words); }

  // --- non-blocking operations ------------------------------------------------
  /// "initiate K replications of a task of type T".
  std::vector<sysvm::TaskId> initiate(
      const std::string& task_type, std::uint32_t k,
      const std::function<sysvm::Payload(std::uint32_t)>& params_for = {}) {
    return api_.initiate(task_type, k, params_for);
  }

  /// "resume a paused task", optionally with a datum.
  void resume_child(sysvm::TaskId child, sysvm::Payload datum = {}) {
    api_.resume_child(child, std::move(datum));
  }

  /// "broadcast data to a set of tasks": resume each paused child with a
  /// copy of the datum.
  void broadcast(std::span<const sysvm::TaskId> children,
                 const sysvm::Payload& datum) {
    for (const auto child : children) api_.resume_child(child, datum);
  }

  /// Children that have paused so far (drains the notification box).
  std::vector<sysvm::TaskId> take_paused_children() {
    return api_.take_paused_children();
  }

  /// Results of terminated children accumulated so far (drains the box).
  std::vector<sysvm::Payload> take_child_results() {
    return api_.take_child_results();
  }

  // --- awaitables ---------------------------------------------------------
  struct JoinAwait {
    TaskContext& ctx;
    std::size_t count;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<>) {
      ctx.api_.block_on_child_terminations(count);
      ctx.suspend_kind_ = SuspendKind::Blocked;
    }
    std::vector<sysvm::Payload> await_resume() {
      return ctx.api_.take_child_results();
    }
  };
  /// Wait for `count` further child terminations; returns all accumulated
  /// child results.
  JoinAwait join(std::size_t count) { return JoinAwait{*this, count}; }

  struct CallAwait {
    TaskContext& ctx;
    hw::ClusterId destination;
    std::string procedure;
    sysvm::Payload args;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<>) {
      const auto token = ctx.api_.remote_call(destination,
                                              std::move(procedure),
                                              std::move(args));
      ctx.api_.block_on_reply(token);
      ctx.suspend_kind_ = SuspendKind::Blocked;
    }
    sysvm::Payload await_resume() { return std::move(ctx.wake_); }
  };
  /// Remote procedure call to an explicit cluster; returns its result.
  CallAwait call(hw::ClusterId destination, std::string procedure,
                 sysvm::Payload args) {
    return CallAwait{*this, destination, std::move(procedure),
                     std::move(args)};
  }
  /// Remote procedure call whose "location is determined by the location of
  /// the data visible in a window".
  CallAwait call_at(const Window& window, std::string procedure,
                    sysvm::Payload args);

  struct PauseAwait {
    TaskContext& ctx;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<>) {
      ctx.api_.block_for_pause();
      ctx.suspend_kind_ = SuspendKind::Blocked;
    }
    sysvm::Payload await_resume() { return std::move(ctx.wake_); }
  };
  /// "pause and notify parent"; the returned payload is the datum the
  /// parent passed when resuming this task.
  PauseAwait pause() { return PauseAwait{*this}; }

  struct ChildPausesAwait {
    TaskContext& ctx;
    std::size_t count;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<>) {
      ctx.api_.block_on_child_pauses(count);
      ctx.suspend_kind_ = SuspendKind::Blocked;
    }
    std::vector<sysvm::TaskId> await_resume() {
      return ctx.api_.take_paused_children();
    }
  };
  /// Wait for `count` further children to pause; returns the paused set.
  ChildPausesAwait child_pauses(std::size_t count) {
    return ChildPausesAwait{*this, count};
  }

  struct YieldAwait {
    TaskContext& ctx;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<>) {
      ctx.suspend_kind_ = SuspendKind::Yielded;
    }
    void await_resume() {}
  };
  /// Cooperative re-schedule (back of the ready queue).
  YieldAwait yield() { return YieldAwait{*this}; }

  // --- windows (implemented with Runtime's array registry) -----------------
  /// Create a task-owned array in this cluster's shared memory; returns the
  /// full window onto it.
  Window create_array(std::size_t rows, std::size_t cols,
                      std::vector<double> init = {});
  Window create_vector(std::vector<double> init);

  /// True if the window's data lives in this task's cluster.
  bool window_is_local(const Window& window) const;

  struct ReadAwait {
    TaskContext& ctx;
    Window window;
    std::vector<double> local;
    bool is_local = false;
    hw::Cycles issued_at = 0;  ///< remote path: virtual time at suspend
    bool await_ready();
    void await_suspend(std::coroutine_handle<>);
    std::vector<double> await_resume();
  };
  /// Read the data visible in a window.  Local windows are a shared-memory
  /// access; remote windows become a remote procedure call to the owning
  /// cluster.
  ReadAwait read(const Window& window) {
    return ReadAwait{*this, window, {}, false};
  }

  struct ReadIntoAwait {
    TaskContext& ctx;
    Window window;
    std::span<double> out;
    bool is_local = false;
    hw::Cycles issued_at = 0;  ///< remote path: virtual time at suspend
    bool await_ready();
    void await_suspend(std::coroutine_handle<>);
    void await_resume();
  };
  /// read() into `out`, which holds window.elements() values, allocating
  /// nothing: a local window is gathered straight into `out`, and a remote
  /// reply's buffer goes back to the runtime for the owner's next reply.
  ReadIntoAwait read_into(const Window& window, std::span<double> out) {
    return ReadIntoAwait{*this, window, out, false};
  }

  struct WriteAwait {
    TaskContext& ctx;
    Window window;
    std::span<const double> data;  ///< read before the task suspends
    bool is_local = false;
    hw::Cycles issued_at = 0;  ///< remote path: virtual time at suspend
    bool await_ready();
    void await_suspend(std::coroutine_handle<>);
    void await_resume();
  };
  /// Assign the data visible in a window (local store or remote call).  A
  /// local store copies nothing; a remote one copies `data` into the call.
  WriteAwait write(const Window& window, std::span<const double> data) {
    return WriteAwait{*this, window, data, false};
  }

  // --- collectors (reduction rendezvous; see Runtime) -----------------------
  struct CollectAwait {
    TaskContext& ctx;
    std::uint64_t collector;
    bool await_ready();
    void await_suspend(std::coroutine_handle<>);
    std::vector<sysvm::Payload> await_resume();
  };
  /// Create a rendezvous expecting `expected` deposits (via the
  /// "navm.collect" procedure on this task's cluster).
  std::uint64_t make_collector(std::size_t expected);
  /// Wait until the collector is full; returns the deposited payloads.
  CollectAwait collect(std::uint64_t collector) {
    return CollectAwait{*this, collector};
  }
  /// Deposit into a collector owned by a task on `destination`.  A nonzero
  /// `token` makes the deposit idempotent: the collector accepts each
  /// (depositor, token) pair once, so a depositor re-initiated by
  /// cluster-loss recovery cannot double count.
  CallAwait deposit(hw::ClusterId destination, std::uint64_t collector,
                    sysvm::Payload value, std::uint64_t token = 0);

  // --- internals (used by CoroProgram / Runtime) ---------------------------
  sysvm::TaskApi& api() { return api_; }

 private:
  friend class CoroProgram;

  /// The remote half of read() and read_into(): call the owning cluster's
  /// read procedure and block on its reply.
  void block_on_window_read(const Window& window, hw::Cycles& issued_at);

  sysvm::TaskApi& api_;
  sysvm::Payload params_;
  Runtime* runtime_;
  sysvm::Payload wake_;
  SuspendKind suspend_kind_ = SuspendKind::Blocked;
};

/// Adapter running a coroutine body as a sysvm TaskProgram.
class CoroProgram final : public sysvm::TaskProgram {
 public:
  CoroProgram(sysvm::TaskApi& api, sysvm::Payload params, Runtime* runtime,
              const TaskBody& body)
      : context_(api, std::move(params), runtime), coro_(body(context_)) {}

  sysvm::StepResult resume(sysvm::Payload wake) override {
    context_.wake_ = std::move(wake);
    context_.suspend_kind_ = SuspendKind::Blocked;
    coro_.handle().resume();
    sysvm::StepResult result;
    if (coro_.handle().done()) {
      if (auto e = coro_.handle().promise().exception)
        std::rethrow_exception(e);
      result.outcome = sysvm::StepResult::Outcome::Finished;
    } else {
      result.outcome = context_.suspend_kind_ == SuspendKind::Yielded
                           ? sysvm::StepResult::Outcome::Yielded
                           : sysvm::StepResult::Outcome::Blocked;
    }
    return result;
  }

  sysvm::Payload take_result() override {
    return std::move(coro_.handle().promise().result);
  }

 private:
  TaskContext context_;
  Coro coro_;
};

}  // namespace fem2::navm

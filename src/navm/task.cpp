#include "navm/task.hpp"

#include <algorithm>

#include "navm/runtime.hpp"

namespace fem2::navm {

Runtime& TaskContext::runtime() const {
  FEM2_CHECK_MSG(runtime_ != nullptr, "task context has no runtime");
  return *runtime_;
}

TaskContext::CallAwait TaskContext::call_at(const Window& window,
                                            std::string procedure,
                                            sysvm::Payload args) {
  return call(runtime().window_cluster(window), std::move(procedure),
              std::move(args));
}

Window TaskContext::create_array(std::size_t rows, std::size_t cols,
                                 std::vector<double> init) {
  return runtime().create_array(*this, rows, cols, std::move(init));
}

Window TaskContext::create_vector(std::vector<double> init) {
  const std::size_t n = init.size();
  return runtime().create_array(*this, n, 1, std::move(init));
}

bool TaskContext::window_is_local(const Window& window) const {
  return runtime().window_cluster(window) == cluster();
}

// --- ReadAwait --------------------------------------------------------------

bool TaskContext::ReadAwait::await_ready() {
  if (ctx.window_is_local(window)) {
    is_local = true;
    ctx.charge_words(window.elements());
    local = ctx.runtime().gather(window);
    return true;
  }
  return false;
}

void TaskContext::block_on_window_read(const Window& window,
                                       hw::Cycles& issued_at) {
  const auto destination = runtime().window_cluster(window);
  issued_at = runtime().os().machine().now();
  const auto token = api_.remote_call(
      destination, "navm.win.read",
      sysvm::Payload::of(window, Window::kDescriptorBytes));
  api_.block_on_reply(token);
  suspend_kind_ = SuspendKind::Blocked;
}

void TaskContext::ReadAwait::await_suspend(std::coroutine_handle<>) {
  ctx.block_on_window_read(window, issued_at);
}

std::vector<double> TaskContext::ReadAwait::await_resume() {
  if (is_local) return std::move(local);
  ctx.runtime().note_remote_window_wait(
      window, ctx.runtime().os().machine().now() - issued_at);
  return std::move(ctx.wake_).take<std::vector<double>>();
}

// --- ReadIntoAwait ------------------------------------------------------------

bool TaskContext::ReadIntoAwait::await_ready() {
  if (ctx.window_is_local(window)) {
    is_local = true;
    ctx.charge_words(window.elements());
    ctx.runtime().gather_into(window, out);
    return true;
  }
  return false;
}

void TaskContext::ReadIntoAwait::await_suspend(std::coroutine_handle<>) {
  ctx.block_on_window_read(window, issued_at);
}

void TaskContext::ReadIntoAwait::await_resume() {
  if (is_local) return;
  ctx.runtime().note_remote_window_wait(
      window, ctx.runtime().os().machine().now() - issued_at);
  auto data = std::move(ctx.wake_).take<std::vector<double>>();
  FEM2_CHECK_MSG(data.size() == out.size(),
                 "read_into buffer does not match the window");
  std::copy(data.begin(), data.end(), out.begin());
  ctx.runtime().recycle_read_buffer(std::move(data));
}

// --- WriteAwait ---------------------------------------------------------------

bool TaskContext::WriteAwait::await_ready() {
  if (ctx.window_is_local(window)) {
    is_local = true;
    ctx.charge_words(window.elements());
    // A store into another task's array escapes this task's lifetime: it
    // cannot be undone by re-initiating the task, so the task is no longer
    // individually relocatable after a cluster loss.
    if (ctx.runtime().array_info(window.array).owner != ctx.self())
      ctx.api_.mark_side_effect();
    ctx.runtime().scatter(window, data);
    return true;
  }
  return false;
}

void TaskContext::WriteAwait::await_suspend(std::coroutine_handle<>) {
  const auto destination = ctx.runtime().window_cluster(window);
  issued_at = ctx.runtime().os().machine().now();
  const std::size_t bytes =
      Window::kDescriptorBytes + data.size() * sizeof(double);
  WriteArgs args{window, std::vector<double>(data.begin(), data.end())};
  const auto token = ctx.api_.remote_call(
      destination, "navm.win.write",
      sysvm::Payload::of(std::move(args), bytes));
  ctx.api_.block_on_reply(token);
  ctx.suspend_kind_ = SuspendKind::Blocked;
}

void TaskContext::WriteAwait::await_resume() {
  if (is_local) return;
  ctx.runtime().note_remote_window_wait(
      window, ctx.runtime().os().machine().now() - issued_at);
}

// --- Collectors -----------------------------------------------------------------

std::uint64_t TaskContext::make_collector(std::size_t expected) {
  return runtime().make_collector(*this, expected);
}

bool TaskContext::CollectAwait::await_ready() {
  return ctx.runtime().collector_full(collector);
}

void TaskContext::CollectAwait::await_suspend(std::coroutine_handle<>) {
  const auto token = ctx.runtime().os().allocate_call_token();
  ctx.runtime().collector_arm(collector, token);
  ctx.api_.block_on_reply(token);
  ctx.suspend_kind_ = SuspendKind::Blocked;
}

std::vector<sysvm::Payload> TaskContext::CollectAwait::await_resume() {
  return ctx.runtime().collector_take(collector);
}

TaskContext::CallAwait TaskContext::deposit(hw::ClusterId destination,
                                            std::uint64_t collector,
                                            sysvm::Payload value,
                                            std::uint64_t token) {
  const std::size_t bytes = 32 + value.bytes;
  DepositArgs args{collector, token, std::move(value)};
  return call(destination, "navm.collect",
              sysvm::Payload::of(std::move(args), bytes));
}

}  // namespace fem2::navm

#include "navm/runtime.hpp"

namespace fem2::navm {

Runtime::Runtime(sysvm::Os& os) : os_(os) {
  register_builtin_procedures();
  next_array_.assign(os_.machine().engine().shard_count(), 0);
  next_collector_.assign(os_.machine().engine().shard_count(), 0);
  // Cluster-loss recovery reaps tasks before re-initiating them; their
  // arrays and collectors die with them ("data lifetime - lifetime of owner
  // task").  The re-initiated incarnation recreates what it needs.
  os_.set_task_reaper([this](sysvm::TaskId task) { purge_owned_by(task); });
}

ArrayId Runtime::make_array_id() {
  const std::size_t shard = os_.machine().engine().current_shard();
  return next_array_[shard]++ * next_array_.size() + shard + 1;
}

std::uint64_t Runtime::make_collector_id() {
  const std::size_t shard = os_.machine().engine().current_shard();
  return next_collector_[shard]++ * next_collector_.size() + shard + 1;
}

void Runtime::purge_owned_by(sysvm::TaskId task) {
  std::erase_if(arrays_,
                [task](const auto& kv) { return kv.second.owner == task; });
  std::erase_if(collectors_,
                [task](const auto& kv) { return kv.second.owner == task; });
}

void Runtime::define_task(const std::string& name, TaskBody body,
                          TaskOptions options) {
  sysvm::CodeBlock block;
  block.name = name;
  block.code_bytes = options.code_bytes;
  block.activation_record_bytes = options.activation_record_bytes;
  block.factory = [this, body = std::move(body)](
                      sysvm::TaskApi& api,
                      sysvm::Payload params) -> std::unique_ptr<sysvm::TaskProgram> {
    return std::make_unique<CoroProgram>(api, std::move(params), this, body);
  };
  os_.register_task_type(std::move(block));
}

sysvm::TaskId Runtime::launch(const std::string& name, sysvm::Payload params,
                              hw::ClusterId from) {
  return os_.launch(name, std::move(params), from);
}

Window Runtime::create_array(TaskContext& ctx, std::size_t rows,
                             std::size_t cols, std::vector<double> init) {
  FEM2_CHECK(rows > 0 && cols > 0);
  const std::size_t n = rows * cols;
  if (init.empty()) {
    init.assign(n, 0.0);
  } else {
    FEM2_CHECK_MSG(init.size() == n, "array initializer size mismatch");
  }
  // Simulated storage: charged to the creating task's heap, freed with it.
  ctx.api().heap_allocate(n * sizeof(double));
  ctx.charge_words(n);  // initialization store
  // The array registry is global state pinned to this cluster: relocating
  // the owner alone would strand it, so the owner recovers via tree restart.
  ctx.api().mark_side_effect();

  ArrayInfo info;
  info.id = make_array_id();
  info.owner = ctx.self();
  info.cluster = ctx.cluster();
  info.rows = rows;
  info.cols = cols;
  info.data = std::move(init);
  const ArrayId id = info.id;
  arrays_.emplace(id, std::move(info));
  const Window full{id, 0, 0, rows, cols};
  if (observer_ != nullptr) {
    observer_->on_array_created(id, ctx.self());
    observer_->on_array_write(full);  // the initialization store
  }
  return full;
}

const Runtime::ArrayInfo& Runtime::array_info(ArrayId id) const {
  const auto it = arrays_.find(id);
  if (it == arrays_.end()) {
    throw support::Error(
        "window refers to array " + std::to_string(id) +
        " which no longer exists (its owner task was lost with its cluster "
        "and reaped during recovery)");
  }
  const ArrayInfo& info = it->second;
  FEM2_CHECK_MSG(!os_.task_finished(info.owner),
                 "window refers to an array whose owner task terminated "
                 "(data lifetime is the owner's lifetime)");
  if (!os_.machine().cluster_alive(info.cluster)) {
    throw support::Error(
        "window refers to array " + std::to_string(id) + " on cluster " +
        std::to_string(info.cluster.index) +
        ", which has failed; the data is unrecoverable");
  }
  return info;
}

std::vector<ArrayId> Runtime::array_ids() const {
  std::vector<ArrayId> out;
  out.reserve(arrays_.size());
  for (const auto& [id, info] : arrays_) out.push_back(id);
  return out;
}

const Runtime::ArrayInfo& Runtime::array_info_unchecked(ArrayId id) const {
  const auto it = arrays_.find(id);
  FEM2_CHECK_MSG(it != arrays_.end(), "unknown array id");
  return it->second;
}

hw::ClusterId Runtime::window_cluster(const Window& window) const {
  return array_info(window.array).cluster;
}

std::vector<double> Runtime::gather(const Window& window) const {
  if (observer_ != nullptr) observer_->on_array_read(window);
  const ArrayInfo& info = array_info(window.array);
  FEM2_CHECK_MSG(window.row0 + window.rows <= info.rows &&
                     window.col0 + window.cols <= info.cols,
                 "window exceeds array bounds");
  std::vector<double> out;
  out.reserve(window.elements());
  for (std::size_t r = 0; r < window.rows; ++r) {
    const std::size_t base = (window.row0 + r) * info.cols + window.col0;
    out.insert(out.end(), info.data.begin() + static_cast<std::ptrdiff_t>(base),
               info.data.begin() + static_cast<std::ptrdiff_t>(base + window.cols));
  }
  return out;
}

void Runtime::note_remote_window_wait(const Window& window, hw::Cycles wait) {
  if (observer_ != nullptr) observer_->on_remote_window_wait(window, wait);
}

void Runtime::scatter(const Window& window, std::span<const double> data) {
  if (observer_ != nullptr) observer_->on_array_write(window);
  const ArrayInfo& const_info = array_info(window.array);
  auto& info = const_cast<ArrayInfo&>(const_info);
  FEM2_CHECK_MSG(data.size() == window.elements(),
                 "scatter data size does not match window");
  for (std::size_t r = 0; r < window.rows; ++r) {
    const std::size_t base = (window.row0 + r) * info.cols + window.col0;
    for (std::size_t c = 0; c < window.cols; ++c)
      info.data[base + c] = data[r * window.cols + c];
  }
}

std::uint64_t Runtime::make_collector(TaskContext& ctx, std::size_t expected) {
  FEM2_CHECK(expected > 0);
  Collector c;
  c.expected = expected;
  c.owner = ctx.self();
  c.cluster = ctx.cluster();
  const std::uint64_t id = make_collector_id();
  collectors_.emplace(id, std::move(c));
  return id;
}

bool Runtime::collector_full(std::uint64_t id) const {
  const auto it = collectors_.find(id);
  FEM2_CHECK_MSG(it != collectors_.end(), "unknown collector");
  return it->second.items.size() >= it->second.expected;
}

std::vector<sysvm::Payload> Runtime::collector_take(std::uint64_t id) {
  const auto it = collectors_.find(id);
  FEM2_CHECK_MSG(it != collectors_.end(), "unknown collector");
  auto& c = it->second;
  FEM2_CHECK_MSG(c.items.size() >= c.expected, "collector not full");
  if (observer_ != nullptr) observer_->on_collector_take(id, c.owner);
  std::vector<sysvm::Payload> out = std::move(c.items);
  c.items.clear();  // auto-reset for the next phase
  c.waiting_token = 0;
  return out;
}

void Runtime::collector_arm(std::uint64_t id, sysvm::CallToken token) {
  const auto it = collectors_.find(id);
  FEM2_CHECK_MSG(it != collectors_.end(), "unknown collector");
  FEM2_CHECK_MSG(it->second.waiting_token == 0, "collector already armed");
  it->second.waiting_token = token;
}

std::vector<Runtime::CollectorInfo> Runtime::collector_infos() const {
  std::vector<CollectorInfo> out;
  out.reserve(collectors_.size());
  for (const auto& [id, c] : collectors_) {
    out.push_back(
        {id, c.owner, c.expected, c.items.size(), c.waiting_token != 0});
  }
  return out;
}

void Runtime::register_builtin_procedures() {
  os_.register_procedure(sysvm::Procedure{
      "navm.win.read", 128,
      [this](sysvm::ProcedureContext& ctx, const sysvm::Payload& args) {
        return procedure_window_read(ctx, args);
      },
      /*idempotent=*/true});
  os_.register_procedure(sysvm::Procedure{
      "navm.win.write", 128,
      [this](sysvm::ProcedureContext& ctx, const sysvm::Payload& args) {
        return procedure_window_write(ctx, args);
      }});
  os_.register_procedure(sysvm::Procedure{
      "navm.collect", 96,
      [this](sysvm::ProcedureContext& ctx, const sysvm::Payload& args) {
        return procedure_collect(ctx, args);
      }});
}

sysvm::Payload Runtime::procedure_window_read(sysvm::ProcedureContext& ctx,
                                              const sysvm::Payload& args) {
  const auto& window = args.as<Window>();
  FEM2_CHECK_MSG(window_cluster(window) == ctx.cluster,
                 "window read routed to the wrong cluster");
  ctx.charge_words(window.elements());
  return payload_reals(gather(window));
}

sysvm::Payload Runtime::procedure_window_write(sysvm::ProcedureContext& ctx,
                                               const sysvm::Payload& args) {
  const auto& wa = args.as<WriteArgs>();
  FEM2_CHECK_MSG(window_cluster(wa.window) == ctx.cluster,
                 "window write routed to the wrong cluster");
  ctx.charge_words(wa.window.elements());
  scatter(wa.window, wa.data);
  return sysvm::Payload{};
}

sysvm::Payload Runtime::procedure_collect(sysvm::ProcedureContext& ctx,
                                          const sysvm::Payload& args) {
  const auto& da = args.as<DepositArgs>();
  const auto it = collectors_.find(da.collector);
  if (it == collectors_.end()) {
    // A deposit can outlive its collector when the collector's owner was
    // reaped and restarted by cluster-loss recovery.  Dropping it (while
    // still replying to the depositor) is the correct quiet outcome: the
    // restarted owner makes a fresh collector with a fresh id.
    ctx.charge_words(1);
    return sysvm::Payload{};
  }
  auto& c = it->second;
  FEM2_CHECK_MSG(c.cluster == ctx.cluster,
                 "deposit routed to the wrong cluster");
  ctx.charge_words(4);  // bookkeeping
  if (da.token != 0 &&
      !c.seen.emplace(da.depositor, da.token).second) {
    // A re-initiated depositor replayed a deposit that was already
    // accepted from its previous incarnation; count it once.
    return sysvm::Payload{};
  }
  if (observer_ != nullptr) observer_->on_deposit(da.collector, da.depositor);
  c.items.push_back(da.value);
  if (c.items.size() >= c.expected && c.waiting_token != 0) {
    // Wake the waiting task with a local remote-return.
    sysvm::MsgRemoteReturn wake;
    wake.caller = c.owner;
    wake.token = c.waiting_token;
    os_.post(ctx.cluster, os_.task_cluster(c.owner),
             sysvm::Message{std::move(wake)});
    c.waiting_token = 0;
  }
  return sysvm::Payload{};
}

}  // namespace fem2::navm

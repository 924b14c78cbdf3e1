#include "sysvm/os.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "hw/topology.hpp"

namespace fem2::sysvm {

// ---------------------------------------------------------------------------
// TaskApi

TaskApi::TaskApi(Os& os, TaskId self) : os_(os), self_(self) {}

hw::ClusterId TaskApi::cluster() const { return os_.record(self_).cluster; }

std::uint32_t TaskApi::replication_index() const {
  return os_.record(self_).replication_index;
}

std::uint32_t TaskApi::replication_count() const {
  return os_.record(self_).replication_count;
}

void TaskApi::charge_flops(std::uint64_t flops) {
  charged_ += flops * os_.config().cycles_per_flop;
}

void TaskApi::charge_words(std::uint64_t words) {
  charged_ += words * os_.config().cycles_per_word;
}

void TaskApi::begin_step() {
  charged_ = 0;
  outgoing_.clear();
  intent_ = WaitIntent{};
}

std::vector<TaskId> TaskApi::initiate(
    const std::string& task_type, std::uint32_t k,
    const std::function<Payload(std::uint32_t)>& params_for) {
  FEM2_CHECK_MSG(k > 0, "initiate requires at least one replication");
  FEM2_CHECK_MSG(os_.has_task_type(task_type),
                 "initiate of unregistered task type: " + task_type);
  std::vector<TaskId> ids;
  ids.reserve(k);
  const hw::ClusterId source = cluster();
  for (std::uint32_t i = 0; i < k; ++i) {
    MsgInitiate m;
    m.task_type = task_type;
    m.task = os_.make_task_id();
    m.parent = self_;
    m.replication_index = i;
    m.replication_count = k;
    m.params = params_for ? params_for(i) : Payload{};
    ids.push_back(m.task);
    const hw::ClusterId target = os_.choose_cluster(source);
    os_.task_homes_.emplace(m.task, target);
    outgoing_.emplace_back(target, Message{std::move(m)});
  }
  return ids;
}

CallToken TaskApi::remote_call(hw::ClusterId destination,
                               std::string procedure, Payload args) {
  MsgRemoteCall m;
  m.procedure = std::move(procedure);
  m.caller = self_;
  m.token = os_.allocate_call_token();
  m.args = std::move(args);
  const CallToken token = m.token;
  outgoing_.emplace_back(destination, Message{std::move(m)});
  return token;
}

void TaskApi::resume_child(TaskId child, Payload datum) {
  MsgResumeChild m;
  m.child = child;
  m.datum = std::move(datum);
  outgoing_.emplace_back(os_.task_cluster(child), Message{std::move(m)});
}

void TaskApi::block_on_reply(CallToken token) {
  FEM2_CHECK_MSG(intent_.kind == WaitIntent::Kind::None,
                 "one blocking intent per step");
  intent_ = {WaitIntent::Kind::Reply, token, 0};
}

void TaskApi::block_on_child_terminations(std::size_t count) {
  FEM2_CHECK_MSG(intent_.kind == WaitIntent::Kind::None,
                 "one blocking intent per step");
  intent_ = {WaitIntent::Kind::ChildTerminations, 0, count};
}

void TaskApi::block_on_child_pauses(std::size_t count) {
  FEM2_CHECK_MSG(intent_.kind == WaitIntent::Kind::None,
                 "one blocking intent per step");
  intent_ = {WaitIntent::Kind::ChildPauses, 0, count};
}

void TaskApi::block_for_pause() {
  FEM2_CHECK_MSG(intent_.kind == WaitIntent::Kind::None,
                 "one blocking intent per step");
  intent_ = {WaitIntent::Kind::Pause, 0, 0};
  auto& rec = os_.record(self_);
  if (rec.parent != kNoTask) {
    MsgPauseNotify m;
    m.child = self_;
    m.parent = rec.parent;
    outgoing_.emplace_back(os_.task_cluster(rec.parent), Message{std::move(m)});
  }
}

std::vector<Payload> TaskApi::take_child_results() {
  auto& rec = os_.record(self_);
  std::vector<Payload> out = std::move(rec.child_results);
  rec.child_results.clear();
  return out;
}

std::vector<TaskId> TaskApi::take_paused_children() {
  auto& rec = os_.record(self_);
  std::vector<TaskId> out = std::move(rec.paused_children);
  rec.paused_children.clear();
  return out;
}

std::size_t TaskApi::heap_allocate(std::size_t bytes) {
  auto& rec = os_.record(self_);
  Heap& heap = os_.heap(rec.cluster);
  const std::size_t address = heap.allocate(bytes);
  if (address == Heap::kNullAddress) {
    throw hw::OutOfMemory("task heap allocation of " + std::to_string(bytes) +
                          " bytes failed in cluster " +
                          std::to_string(rec.cluster.index));
  }
  os_.machine().allocate(rec.cluster, heap.block_size(address));
  rec.owned_heap_blocks.push_back(address);
  return address;
}

void TaskApi::heap_free(std::size_t address) {
  auto& rec = os_.record(self_);
  Heap& heap = os_.heap(rec.cluster);
  os_.machine().release(rec.cluster, heap.block_size(address));
  heap.free(address);
  std::erase(rec.owned_heap_blocks, address);
}

void TaskApi::mark_side_effect() { os_.record(self_).restartable = false; }

// ---------------------------------------------------------------------------
// ProcedureContext

void ProcedureContext::charge_flops(std::uint64_t flops) {
  charged += flops * os.config().cycles_per_flop;
}

void ProcedureContext::charge_words(std::uint64_t words) {
  charged += words * os.config().cycles_per_word;
}

// ---------------------------------------------------------------------------
// Os

std::string_view task_state_name(TaskState s) {
  switch (s) {
    case TaskState::Ready: return "ready";
    case TaskState::Running: return "running";
    case TaskState::Blocked: return "blocked";
    case TaskState::Paused: return "paused";
    case TaskState::Finished: return "finished";
  }
  FEM2_UNREACHABLE("bad TaskState");
}

std::uint64_t OsStats::total_messages() const {
  std::uint64_t total = 0;
  for (auto v : messages_sent) total += v;
  return total;
}

std::uint64_t OsStats::total_message_bytes() const {
  std::uint64_t total = 0;
  for (auto v : message_bytes_sent) total += v;
  return total;
}

std::string OsStats::dump() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < kMessageTypeCount; ++i) {
    os << "messages_sent[" << i << "]=" << messages_sent[i] << "\n"
       << "message_bytes_sent[" << i << "]=" << message_bytes_sent[i] << "\n";
  }
  os << "tasks_initiated=" << tasks_initiated << "\n"
     << "tasks_finished=" << tasks_finished << "\n"
     << "procedures_executed=" << procedures_executed << "\n"
     << "kernel_dispatches=" << kernel_dispatches << "\n"
     << "steps_executed=" << steps_executed << "\n"
     << "steps_redone=" << steps_redone << "\n"
     << "ready_queue_peak=" << ready_queue_peak << "\n"
     << "retransmissions=" << retransmissions << "\n"
     << "duplicates_dropped=" << duplicates_dropped << "\n"
     << "acks_sent=" << acks_sent << "\n"
     << "clusters_lost=" << clusters_lost << "\n"
     << "tasks_relocated=" << tasks_relocated << "\n"
     << "trees_restarted=" << trees_restarted << "\n"
     << "orphans_reaped=" << orphans_reaped << "\n"
     << "stale_messages_dropped=" << stale_messages_dropped << "\n";
  return os.str();
}

Os::Os(hw::Machine& machine, OsOptions options)
    : machine_(machine), options_(options) {
  if (options_.retransmit_timeout == 0) {
    // Auto-derive the base RTO from the topology's worst-case one-way
    // path so slow topologies do not retransmit spuriously.
    const auto& config = machine_.config();
    options_.retransmit_timeout =
        4 * (machine_.topology().max_launch_delay() +
             config.message_sw_overhead + config.kernel_dispatch);
  }
  const std::size_t cluster_count = machine_.cluster_count();
  clusters_.resize(cluster_count);
  heaps_.reserve(cluster_count);
  for (std::size_t i = 0; i < cluster_count; ++i)
    heaps_.emplace_back(machine_.memory_capacity(), options_.heap_policy);
  running_.assign(machine_.config().total_pes(), std::nullopt);
  lanes_.resize(machine_.engine().shard_count());
  for (auto& lane : lanes_) lane.load_delta.assign(cluster_count, 0);
  load_board_.assign(cluster_count, 0);
  // The channel maps are fully populated up front, one channel per
  // directed cluster pair.
  for (std::uint32_t s = 0; s < cluster_count; ++s) {
    for (std::uint32_t d = 0; d < cluster_count; ++d) {
      if (s == d) continue;
      send_channels_[ChannelKey{s, d}];
      recv_channels_[ChannelKey{s, d}];
    }
  }
  machine_.set_cluster_service([this](hw::ClusterId c) { service(c); });
  machine_.set_work_lost_handler([this](hw::ClusterId c) { on_work_lost(c); });
  machine_.set_cluster_lost_handler(
      [this](hw::ClusterId c) { on_cluster_lost(c); });
  // A dropped packet's frame is taken out of its slot and dies here.
  machine_.set_packet_drop_handler([this](const hw::Packet& p) {
    frames_.take(static_cast<FramePool::Slot>(p.cargo));
  });
  machine_.engine().add_refresh_hook([this] { refresh_load_board(); });
}

Os::ShardLane& Os::lane() {
  return lanes_[machine_.engine().current_shard()];
}

TaskId Os::make_task_id() {
  const std::size_t idx = machine_.engine().current_shard();
  ShardLane& lane = lanes_[idx];
  return lane.next_task_id++ * lanes_.size() + idx + 1;
}

std::uint64_t Os::make_incarnation() {
  const std::size_t idx = machine_.engine().current_shard();
  ShardLane& lane = lanes_[idx];
  return lane.next_incarnation++ * lanes_.size() + idx + 1;
}

CallToken Os::allocate_call_token() {
  const std::size_t idx = machine_.engine().current_shard();
  ShardLane& lane = lanes_[idx];
  return lane.next_call_token++ * lanes_.size() + idx + 1;
}

void Os::refresh_load_board() {
  for (ShardLane& lane : lanes_) {
    for (std::size_t i = 0; i < load_board_.size(); ++i) {
      load_board_[i] += lane.load_delta[i];
      lane.load_delta[i] = 0;
    }
  }
}

void Os::register_task_type(CodeBlock block) {
  FEM2_CHECK_MSG(block.factory != nullptr, "code block without a factory");
  FEM2_CHECK_MSG(!block.name.empty(), "code block without a name");
  const std::string name = block.name;
  const bool inserted = code_.emplace(name, std::move(block)).second;
  FEM2_CHECK_MSG(inserted, "duplicate task type: " + name);
}

void Os::register_procedure(Procedure procedure) {
  FEM2_CHECK_MSG(procedure.fn != nullptr, "procedure without a body");
  const std::string name = procedure.name;
  const bool inserted = procedures_.emplace(name, std::move(procedure)).second;
  FEM2_CHECK_MSG(inserted, "duplicate procedure: " + name);
}

bool Os::has_task_type(std::string_view name) const {
  return code_.find(name) != code_.end();
}

TaskId Os::launch(const std::string& task_type, Payload params,
                  hw::ClusterId from) {
  FEM2_CHECK_MSG(has_task_type(task_type),
                 "launch of unregistered task type: " + task_type);
  MsgInitiate m;
  m.task_type = task_type;
  m.task = make_task_id();
  m.parent = kNoTask;
  m.params = std::move(params);
  const TaskId id = m.task;
  const hw::ClusterId target = choose_cluster(from);
  task_homes_.emplace(id, target);
  send(from, target, Message{std::move(m)});
  return id;
}

void Os::run() { machine_.engine().run(); }

TaskState Os::task_state(TaskId task) const { return record(task).state; }

bool Os::task_finished(TaskId task) const {
  const auto it = tasks_.find(task);
  return it != tasks_.end() && it->second.state == TaskState::Finished;
}

bool Os::task_known(TaskId task) const {
  const auto it = tasks_.find(task);
  return it != tasks_.end() && it->second.state != TaskState::Finished;
}

const Payload& Os::task_result(TaskId task) const {
  const auto& rec = record(task);
  FEM2_CHECK_MSG(rec.state == TaskState::Finished,
                 "task_result of an unfinished task");
  return rec.result;
}

hw::ClusterId Os::task_cluster(TaskId task) const {
  const auto it = task_homes_.find(task);
  FEM2_CHECK_MSG(it != task_homes_.end(),
                 "unknown task id " + std::to_string(task));
  return it->second;
}

std::size_t Os::live_tasks() const {
  std::size_t n = 0;
  for (const auto& [id, rec] : tasks_)
    if (rec.state != TaskState::Finished) ++n;
  return n;
}

std::vector<TaskId> Os::task_ids() const {
  std::vector<TaskId> out;
  out.reserve(tasks_.size());
  for (const auto& [id, rec] : tasks_) out.push_back(id);
  return out;
}

Os::TaskInfo Os::task_info(TaskId task) const {
  const auto& rec = record(task);
  return {rec.id,    rec.type,
          rec.parent, rec.cluster,
          rec.state,  rec.replication_index,
          rec.replication_count};
}

Os::WaitInfo Os::wait_info(TaskId task) const {
  const auto& rec = record(task);
  WaitInfo info;
  if (rec.state != TaskState::Blocked && rec.state != TaskState::Paused)
    return info;
  using Kind = TaskApi::WaitIntent::Kind;
  switch (rec.wait.kind) {
    case Kind::None:
      break;
    case Kind::Reply:
      info.kind = WaitInfo::Kind::Reply;
      info.token = rec.wait.token;
      break;
    case Kind::ChildTerminations:
      info.kind = WaitInfo::Kind::ChildTerminations;
      info.count = rec.wait.count;
      info.satisfied = rec.unconsumed_child_terms;
      break;
    case Kind::ChildPauses:
      info.kind = WaitInfo::Kind::ChildPauses;
      info.count = rec.wait.count;
      info.satisfied = rec.unconsumed_child_pauses;
      break;
    case Kind::Pause:
      info.kind = WaitInfo::Kind::Pause;
      break;
  }
  return info;
}

std::vector<Os::PendingCallInfo> Os::pending_call_infos() const {
  std::vector<PendingCallInfo> out;
  out.reserve(pending_calls_.size());
  for (const auto& [token, call] : pending_calls_)
    out.push_back({token, call.caller, call.destination});
  return out;
}

std::vector<Os::ChannelBacklog> Os::transport_backlog() const {
  std::vector<ChannelBacklog> out;
  for (const auto& [key, channel] : send_channels_) {
    if (channel.unacked.empty()) continue;
    out.push_back({hw::ClusterId{key.first}, hw::ClusterId{key.second},
                   channel.unacked.size()});
  }
  return out;
}

std::size_t Os::ready_depth(hw::ClusterId cluster) const {
  FEM2_CHECK(cluster.valid() && cluster.index < clusters_.size());
  return clusters_[cluster.index].ready.size();
}

Heap& Os::heap(hw::ClusterId cluster) {
  FEM2_CHECK(cluster.valid() && cluster.index < heaps_.size());
  return heaps_[cluster.index];
}

Os::TaskRecord& Os::record(TaskId task) {
  const auto it = tasks_.find(task);
  FEM2_CHECK_MSG(it != tasks_.end(),
                 "unknown task id " + std::to_string(task));
  return it->second;
}

const Os::TaskRecord& Os::record(TaskId task) const {
  const auto it = tasks_.find(task);
  FEM2_CHECK_MSG(it != tasks_.end(),
                 "unknown task id " + std::to_string(task));
  return it->second;
}

Os::ClusterState& Os::cluster_state(hw::ClusterId cluster) {
  FEM2_CHECK(cluster.valid() && cluster.index < clusters_.size());
  return clusters_[cluster.index];
}

hw::ClusterId Os::choose_cluster(hw::ClusterId source) {
  // The chosen cluster's load is reserved immediately (not when the
  // initiate message travels), so a burst of initiations within one task
  // step spreads instead of piling onto the momentarily-least-loaded
  // cluster.  Loads are read from the window-stale board plus this
  // kernel's own pending deltas.  Every policy places on live clusters
  // only; a dead Local source falls back to least-loaded.
  ShardLane& ln = lane();
  switch (options_.placement) {
    case Placement::Local:
      if (machine_.cluster_alive(source)) {
        ln.load_delta[source.index] += 1;
        return source;
      }
      break;
    case Placement::RoundRobin: {
      for (std::size_t tries = 0; tries < clusters_.size(); ++tries) {
        const auto idx = ln.round_robin++ % clusters_.size();
        const hw::ClusterId c{static_cast<std::uint32_t>(idx)};
        if (!machine_.cluster_alive(c)) continue;
        ln.load_delta[idx] += 1;
        return c;
      }
      throw support::Error("no alive clusters for task placement");
    }
    case Placement::LeastLoaded:
      break;
  }

  std::size_t best = ~std::size_t{0};
  std::int64_t best_load = std::numeric_limits<std::int64_t>::max();
  for (std::size_t i = 0; i < clusters_.size(); ++i) {
    const hw::ClusterId c{static_cast<std::uint32_t>(i)};
    if (!machine_.cluster_alive(c)) continue;  // isolate failed clusters
    const std::int64_t estimate = load_board_[i] + ln.load_delta[i];
    if (estimate < best_load) {
      best_load = estimate;
      best = i;
    }
  }
  if (best == ~std::size_t{0})
    throw support::Error("no alive clusters for task placement");
  ln.load_delta[best] += 1;
  return hw::ClusterId{static_cast<std::uint32_t>(best)};
}

hw::ClusterId Os::first_alive_cluster() const {
  for (std::uint32_t c = 0; c < machine_.cluster_count(); ++c)
    if (machine_.cluster_alive(hw::ClusterId{c})) return hw::ClusterId{c};
  throw support::Error("no alive clusters");
}

void Os::send(hw::ClusterId from, hw::ClusterId to, Message message) {
  // Code distribution: an initiate to a cluster that has not loaded the
  // task type is preceded by a load-code message (FIFO channel order
  // guarantees it arrives first).  Shipping decisions are tracked per
  // kernel lane; a cluster may receive the same code block from two
  // kernels, which models independent kernels shipping without a global
  // directory.
  if (options_.code_loading) {
    if (const auto* init = std::get_if<MsgInitiate>(&message)) {
      ShardLane& ln = lane();
      auto key = std::make_pair(to.index, init->task_type);
      if (!ln.shipped_code.contains(key)) {
        ln.shipped_code.insert(std::move(key));
        const auto it = code_.find(init->task_type);
        MsgLoadCode lc;
        lc.task_type = init->task_type;
        lc.code_bytes = it != code_.end() ? it->second.code_bytes : 4096;
        send(from, to, Message{std::move(lc)});
      }
    }
  }

  // Stamp remote calls with the caller's incarnation and remember where
  // they went, so cluster-loss recovery can find stranded callers and the
  // receiver can reject calls from reaped incarnations.
  if (auto* call = std::get_if<MsgRemoteCall>(&message)) {
    if (call->caller != kNoTask) {
      const auto it = tasks_.find(call->caller);
      if (it != tasks_.end()) call->caller_epoch = it->second.incarnation;
      pending_calls_[call->token] = {call->caller, to, call->caller_epoch};
    }
  }

  const auto type_idx = static_cast<std::size_t>(message_type(message));
  const std::size_t bytes = message_bytes(message);
  stats_.messages_sent[type_idx] += 1;
  stats_.message_bytes_sent[type_idx] += bytes;

  // Inter-cluster messages ride the reliable channel when enabled;
  // intra-cluster handoffs go through shared memory and cannot drop.
  if (options_.reliable_transport && from != to) {
    auto& channel = send_channels_.at(ChannelKey{from.index, to.index});
    const std::uint64_t seq = channel.send(std::move(message));
    transmit_frame(from, to, seq, *channel.message(seq));
    arm_retransmit(from, to, seq, 0);
    return;
  }
  send_frame(from, to, bytes,
             Frame{Frame::Kind::Plain, from.index, 0, std::move(message)});
}

void Os::send_frame(hw::ClusterId from, hw::ClusterId to, std::size_t bytes,
                    Frame frame) {
  machine_.send_packet(from, to, bytes, frames_.put(std::move(frame)));
}

void Os::transmit_frame(hw::ClusterId from, hw::ClusterId to,
                        std::uint64_t seq, const Message& message) {
  send_frame(from, to, message_bytes(message) + kFrameOverheadBytes,
             Frame{Frame::Kind::Data, from.index, seq, message});
}

void Os::send_ack(hw::ClusterId from, hw::ClusterId to, std::uint64_t seq) {
  stats_.acks_sent += 1;
  send_frame(from, to, kAckBytes, Frame{Frame::Kind::Ack, from.index, seq, {}});
}

void Os::arm_retransmit(hw::ClusterId from, hw::ClusterId to,
                        std::uint64_t seq, std::size_t attempts) {
  const hw::Cycles rto =
      hw::retransmit_backoff(options_.retransmit_timeout, attempts);
  machine_.engine().schedule(rto,
                             [this, from, to, seq] { retransmit(from, to, seq); });
}

void Os::retransmit(hw::ClusterId from, hw::ClusterId to, std::uint64_t seq) {
  const auto cit = send_channels_.find(ChannelKey{from.index, to.index});
  if (cit == send_channels_.end()) return;
  if (!cit->second.message(seq)) return;  // acknowledged meanwhile
  if (!machine_.cluster_alive(to)) return;  // recovery re-routes or drops
  if (!machine_.cluster_alive(from)) return;  // channel died with its source
  switch (cit->second.on_timer(seq, options_.max_retransmits)) {
    case hw::RetransmitDecision::AlreadyAcked:
      return;
    case hw::RetransmitDecision::Exhausted:
      throw support::Error(
          "cluster " + std::to_string(to.index) +
          " unreachable from cluster " + std::to_string(from.index) +
          ": frame " + std::to_string(seq) + " unacknowledged after " +
          std::to_string(options_.max_retransmits) + " retransmits");
    case hw::RetransmitDecision::Resend:
      break;
  }
  stats_.retransmissions += 1;
  transmit_frame(from, to, seq, *cit->second.message(seq));
  arm_retransmit(from, to, seq, cit->second.attempts(seq));
}

void Os::service(hw::ClusterId cluster) {
  assign_workers(cluster);
  auto& state = cluster_state(cluster);
  if (state.dispatching) return;
  if (machine_.queue_depth(cluster) == 0) return;
  const hw::PeId kernel = machine_.kernel_pe(cluster);
  if (!kernel.valid()) return;  // whole cluster failed: messages stall
  if (!machine_.try_acquire_pe(kernel)) return;
  state.dispatching = true;
  stats_.kernel_dispatches += 1;
  machine_.occupy(kernel, machine_.config().kernel_dispatch,
                  [this, cluster, kernel] {
                    // Decode while the kernel PE is still held so a nested
                    // service() cannot double-field the same packet.
                    dispatch_one(cluster);
                    cluster_state(cluster).dispatching = false;
                    machine_.release_worker(kernel);
                    service(cluster);
                  });
}

void Os::dispatch_one(hw::ClusterId cluster) {
  auto packet = machine_.pop_packet(cluster);
  if (!packet) return;  // queue drained by someone else
  decode(cluster, std::move(*packet));
}

void Os::decode(hw::ClusterId cluster, Packet_t&& packet) {
  Frame frame = frames_.take(static_cast<FramePool::Slot>(packet.cargo));
  switch (frame.kind) {
    case Frame::Kind::Plain:
      deliver(cluster, packet.source, std::move(frame.message));
      return;
    case Frame::Kind::Ack: {
      // We are the original sender: retire the acknowledged frame.
      const auto cit =
          send_channels_.find(ChannelKey{cluster.index, frame.src});
      if (cit != send_channels_.end()) cit->second.acknowledge(frame.seq);
      return;
    }
    case Frame::Kind::Data:
      break;
  }
  const hw::ClusterId src{frame.src};
  auto& channel = recv_channels_.at(ChannelKey{frame.src, cluster.index});
  // Ack everything that arrives, including duplicates (the first ack may
  // have been lost) and out-of-order frames (held, but received).
  send_ack(cluster, src, frame.seq);
  auto admission = channel.admit(frame.seq, std::move(frame.message));
  if (admission.duplicate) {
    stats_.duplicates_dropped += 1;
    return;
  }
  for (Message& released : admission.delivered)
    deliver(cluster, src, std::move(released));
}

void Os::deliver(hw::ClusterId cluster, hw::ClusterId from,
                 Message&& message) {
  if (observer_ != nullptr) observer_->on_message(cluster, message);
  std::visit(
      [&](auto&& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, MsgRemoteCall>) {
          handle(cluster, std::move(m), from);
        } else {
          handle(cluster, std::move(m));
        }
      },
      std::move(message));
}

void Os::push_ready(hw::ClusterId cluster, ReadyItem item, bool front) {
  auto& state = cluster_state(cluster);
  if (front) {
    state.ready.push_front(std::move(item));
  } else {
    state.ready.push_back(std::move(item));
  }
  stats_.ready_queue_peak =
      std::max<std::uint64_t>(stats_.ready_queue_peak, state.ready.size());
  assign_workers(cluster);
}

void Os::assign_workers(hw::ClusterId cluster) {
  auto& state = cluster_state(cluster);
  while (!state.ready.empty()) {
    const hw::PeId pe = machine_.acquire_worker(cluster);
    if (!pe.valid()) return;
    ReadyItem item = std::move(state.ready.front());
    state.ready.pop_front();
    start_work(pe, std::move(item));
  }
}

namespace {
std::uint64_t pe_key(const hw::MachineConfig& config, hw::PeId pe) {
  return static_cast<std::uint64_t>(pe.cluster.index) *
             config.pes_per_cluster +
         pe.index;
}
}  // namespace

void Os::start_work(hw::PeId pe, ReadyItem item) {
  const auto& config = machine_.config();

  if (auto* proc_work = std::get_if<ProcWork>(&item)) {
    // A call from a task that recovery reaped (or reaped and re-initiated
    // under the same id) is stale: executing it would act on behalf of a
    // task incarnation that no longer exists.
    if (proc_work->call.caller != kNoTask) {
      const auto cit = tasks_.find(proc_work->call.caller);
      const bool stale =
          cit == tasks_.end() ||
          (proc_work->call.caller_epoch != 0 &&
           cit->second.incarnation != proc_work->call.caller_epoch);
      if (stale) {
        stats_.stale_messages_dropped += 1;
        machine_.release_worker(pe);
        return;
      }
    }
    if (!proc_work->executed) {
      const auto it = procedures_.find(proc_work->call.procedure);
      FEM2_CHECK_MSG(it != procedures_.end(),
                     "remote call to unknown procedure: " +
                         proc_work->call.procedure);
      ProcedureContext ctx{*this, pe.cluster};
      if (observer_ != nullptr)
        observer_->on_procedure_begin(proc_work->call, pe.cluster);
      proc_work->result = it->second.fn(ctx, proc_work->call.args);
      if (observer_ != nullptr)
        observer_->on_procedure_end(proc_work->call, pe.cluster);
      proc_work->cycles = std::max<hw::Cycles>(1, ctx.charged);
      proc_work->executed = true;
      stats_.procedures_executed += 1;
    } else {
      stats_.steps_redone += 1;
    }
    const hw::Cycles duration =
        proc_work->cycles + config.message_sw_overhead;  // format the return
    running_[pe_key(config, pe)] = std::move(item);
    machine_.occupy(pe, duration, [this, pe] {
      // The PE survived, so its running_ slot still holds this work item
      // (work-lost recovery empties only the slots of failed PEs).
      auto& slot = running_[pe_key(machine_.config(), pe)];
      ProcWork work = std::get<ProcWork>(std::move(*slot));
      slot.reset();
      MsgRemoteReturn ret;
      ret.caller = work.call.caller;
      ret.token = work.call.token;
      ret.result = std::move(work.result);
      send(pe.cluster, work.from, Message{std::move(ret)});
      machine_.release_worker(pe);
    });
    return;
  }

  const TaskId task = std::get<TaskId>(item);
  const auto tit = tasks_.find(task);
  if (tit == tasks_.end()) {
    // Reaped by cluster-loss recovery while queued.
    stats_.stale_messages_dropped += 1;
    machine_.release_worker(pe);
    return;
  }
  auto& rec = tit->second;
  FEM2_CHECK_MSG(rec.state == TaskState::Ready,
                 "starting work on a task that is not ready");
  rec.state = TaskState::Running;

  if (!rec.step_pending) {
    rec.api->begin_step();
    Payload wake = std::move(rec.wake_value);
    rec.wake_value = Payload{};
    if (observer_ != nullptr) observer_->on_step_begin(task);
    rec.step = rec.program->resume(std::move(wake));
    if (observer_ != nullptr) observer_->on_step_end(task);
    // step_sends was emptied when the last step completed; swapping keeps
    // both buffers' capacity for the next step.
    rec.step_sends.swap(rec.api->outgoing_);
    rec.step.cycles = std::max<hw::Cycles>(
        1, rec.api->charged_ +
               rec.step_sends.size() * config.message_sw_overhead);
    rec.step_pending = true;
    stats_.steps_executed += 1;
  } else {
    stats_.steps_redone += 1;
  }

  running_[pe_key(config, pe)] = task;
  const std::uint64_t incarnation = rec.incarnation;
  machine_.occupy(pe, rec.step.cycles, [this, pe, task, incarnation] {
    running_[pe_key(machine_.config(), pe)].reset();
    complete_task_step(pe, task, incarnation);
    machine_.release_worker(pe);
  });
}

void Os::complete_task_step(hw::PeId pe, TaskId task,
                            std::uint64_t incarnation) {
  const auto it = tasks_.find(task);
  if (it == tasks_.end() || it->second.incarnation != incarnation) {
    // The task was reaped (and possibly re-initiated elsewhere) while this
    // step was charging cycles; its buffered effects die unapplied.
    return;
  }
  auto& rec = it->second;
  rec.step_pending = false;

  // Applying a send is the first moment the outside world can observe this
  // task, which ends silent restartability.  Idempotent read-only calls are
  // exempt — re-running them is observationally safe.
  for (const auto& [dst, msg] : rec.step_sends) {
    const auto* call = std::get_if<MsgRemoteCall>(&msg);
    if (call != nullptr) {
      const auto pit = procedures_.find(call->procedure);
      if (pit != procedures_.end() && pit->second.idempotent) continue;
    }
    rec.restartable = false;
    break;
  }

  // Apply buffered sends.
  for (auto& [dst, msg] : rec.step_sends) {
    if (observer_ != nullptr) observer_->on_task_send(rec.id, dst, msg);
    send(rec.cluster, dst, std::move(msg));
  }
  rec.step_sends.clear();

  switch (rec.step.outcome) {
    case StepResult::Outcome::Finished:
      finish_task(rec);
      break;
    case StepResult::Outcome::Yielded:
      rec.state = TaskState::Ready;
      push_ready(rec.cluster, rec.id);
      break;
    case StepResult::Outcome::Blocked:
      apply_block_intent(rec);
      break;
  }
  (void)pe;
}

void Os::finish_task(TaskRecord& rec) {
  rec.state = TaskState::Finished;
  rec.result = rec.program->take_result();
  stats_.tasks_finished += 1;
  lane().load_delta[rec.cluster.index] -= 1;
  if (observer_ != nullptr) observer_->on_task_finished(rec.id);

  // Release the activation record and any task-owned heap blocks
  // ("data lifetime - lifetime of owner task").
  Heap& h = heap(rec.cluster);
  for (const std::size_t addr : rec.owned_heap_blocks) {
    machine_.release(rec.cluster, h.block_size(addr));
    h.free(addr);
  }
  rec.owned_heap_blocks.clear();
  if (rec.ar_address != Heap::kNullAddress) {
    machine_.release(rec.cluster, h.block_size(rec.ar_address));
    h.free(rec.ar_address);
    rec.ar_address = Heap::kNullAddress;
  }
  rec.program.reset();

  if (rec.parent != kNoTask) {
    MsgTerminateNotify m;
    m.child = rec.id;
    m.parent = rec.parent;
    m.result = rec.result;
    const hw::ClusterId dst = task_cluster(rec.parent);
    Message msg{std::move(m)};
    if (observer_ != nullptr) observer_->on_task_send(rec.id, dst, msg);
    send(rec.cluster, dst, std::move(msg));
  }
}

void Os::apply_block_intent(TaskRecord& rec) {
  using Kind = TaskApi::WaitIntent::Kind;
  const auto intent = rec.api->intent_;
  rec.api->intent_ = TaskApi::WaitIntent{};

  switch (intent.kind) {
    case Kind::None:
      FEM2_UNREACHABLE("task blocked without a wait intent");
    case Kind::Reply: {
      const auto it = rec.replies.find(intent.token);
      if (it != rec.replies.end()) {
        Payload value = std::move(it->second);
        rec.replies.erase(it);
        make_ready(rec, std::move(value));
        return;
      }
      rec.state = TaskState::Blocked;
      rec.wait = intent;
      return;
    }
    case Kind::ChildTerminations: {
      if (rec.unconsumed_child_terms >= intent.count) {
        rec.unconsumed_child_terms -= intent.count;
        make_ready(rec, Payload{});
        return;
      }
      rec.state = TaskState::Blocked;
      rec.wait = intent;  // satisfied when unconsumed reaches count
      return;
    }
    case Kind::ChildPauses: {
      if (rec.unconsumed_child_pauses >= intent.count) {
        rec.unconsumed_child_pauses -= intent.count;
        make_ready(rec, Payload{});
        return;
      }
      rec.state = TaskState::Blocked;
      rec.wait = intent;
      return;
    }
    case Kind::Pause: {
      if (!rec.pending_resumes.empty()) {
        Payload datum = std::move(rec.pending_resumes.front());
        rec.pending_resumes.pop_front();
        make_ready(rec, std::move(datum));
        return;
      }
      rec.state = TaskState::Paused;
      rec.wait = intent;
      return;
    }
  }
  FEM2_UNREACHABLE("bad wait intent");
}

void Os::make_ready(TaskRecord& rec, Payload wake) {
  rec.state = TaskState::Ready;
  rec.wait = TaskApi::WaitIntent{};
  rec.wake_value = std::move(wake);
  push_ready(rec.cluster, rec.id);
}

void Os::on_work_lost(hw::ClusterId cluster) {
  // Requeue every work item whose PE is no longer alive, at the front so
  // recovery happens promptly.  Only this cluster's slots are scanned:
  // the lost work belongs to the cluster whose PE failed.
  const auto& config = machine_.config();
  const std::uint64_t base =
      static_cast<std::uint64_t>(cluster.index) * config.pes_per_cluster;
  for (std::uint32_t p = 0; p < config.pes_per_cluster; ++p) {
    auto& slot = running_[base + p];
    if (!slot.has_value()) continue;
    const hw::PeId pe{cluster, p};
    if (machine_.pe_alive(pe)) continue;
    ReadyItem item = std::move(*slot);
    slot.reset();
    if (const auto* task = std::get_if<TaskId>(&item)) {
      const auto it = tasks_.find(*task);
      if (it == tasks_.end()) continue;  // reaped mid-step: drop the redo
      it->second.state = TaskState::Ready;
    }
    push_ready(cluster, std::move(item), /*front=*/true);
  }
}

// ---------------------------------------------------------------------------
// Cluster-loss recovery

std::optional<TaskId> Os::message_addressee(const Message& m) {
  return std::visit(
      [](const auto& v) -> std::optional<TaskId> {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, MsgInitiate>) return v.task;
        if constexpr (std::is_same_v<T, MsgPauseNotify>) return v.parent;
        if constexpr (std::is_same_v<T, MsgResumeChild>) return v.child;
        if constexpr (std::is_same_v<T, MsgTerminateNotify>) return v.parent;
        if constexpr (std::is_same_v<T, MsgRemoteReturn>) return v.caller;
        // Remote calls and code loads are cluster-addressed.
        return std::nullopt;
      },
      m);
}

bool Os::is_restartable(const TaskRecord& rec) const {
  // A task can be silently re-run from its initiate parameters only if the
  // outside world has neither seen it act nor handed it state it would
  // lose: no applied non-idempotent sends, and an empty mailbox.
  return rec.restartable && rec.state != TaskState::Finished &&
         rec.replies.empty() && rec.child_results.empty() &&
         rec.paused_children.empty() && rec.pending_resumes.empty() &&
         rec.unconsumed_child_terms == 0 && rec.unconsumed_child_pauses == 0;
}

TaskId Os::restart_root(TaskId task) const {
  // Highest unfinished ancestor: restarting there regenerates every
  // protocol interaction the victim's loss invalidated.
  TaskId current = task;
  while (true) {
    const auto it = tasks_.find(current);
    if (it == tasks_.end()) return current;
    const TaskId parent = it->second.parent;
    if (parent == kNoTask) return current;
    const auto pit = tasks_.find(parent);
    if (pit == tasks_.end() || pit->second.state == TaskState::Finished)
      return current;
    current = parent;
  }
}

void Os::reap_task(TaskId task) {
  const auto it = tasks_.find(task);
  if (it == tasks_.end()) return;
  TaskRecord& rec = it->second;
  if (task_reaper_) task_reaper_(task);

  if (machine_.cluster_alive(rec.cluster)) {
    Heap& h = heaps_[rec.cluster.index];
    for (const std::size_t addr : rec.owned_heap_blocks) {
      machine_.release(rec.cluster, h.block_size(addr));
      h.free(addr);
    }
    if (rec.ar_address != Heap::kNullAddress) {
      machine_.release(rec.cluster, h.block_size(rec.ar_address));
      h.free(rec.ar_address);
    }
    auto& state = cluster_state(rec.cluster);
    if (rec.state != TaskState::Finished)
      lane().load_delta[rec.cluster.index] -= 1;
    std::erase_if(state.ready, [&](const ReadyItem& item) {
      const auto* queued = std::get_if<TaskId>(&item);
      return queued != nullptr && *queued == task;
    });
  }
  task_homes_.erase(task);
  tasks_.erase(task);
}

void Os::reinitiate_task(TaskId task) {
  stats_.tasks_relocated += 1;
  MsgInitiate m;
  TaskId parent = kNoTask;
  {
    const auto it = tasks_.find(task);
    FEM2_CHECK_MSG(it != tasks_.end(), "re-initiating an unknown task");
    const TaskRecord& rec = it->second;
    m.task_type = rec.type;
    m.task = rec.id;
    m.parent = rec.parent;
    m.replication_index = rec.replication_index;
    m.replication_count = rec.replication_count;
    m.params = rec.saved_params;
    parent = rec.parent;
  }

  reap_task(task);

  // The re-initiate models recovery traffic from the coordinating cluster:
  // the parent's home when it is alive, otherwise any survivor.
  hw::ClusterId source = hw::ClusterId{};
  if (parent != kNoTask) {
    const auto pit = tasks_.find(parent);
    if (pit != tasks_.end() && machine_.cluster_alive(pit->second.cluster))
      source = pit->second.cluster;
  }
  if (!source.valid()) source = first_alive_cluster();

  const hw::ClusterId target = choose_cluster(source);
  task_homes_.emplace(m.task, target);
  send(source, target, Message{std::move(m)});
}

void Os::flush_transport_to(hw::ClusterId cluster) {
  for (auto& [key, channel] : send_channels_) {
    if (key.second != cluster.index || channel.unacked.empty()) continue;
    std::map<std::uint64_t, UnackedFrame> unacked = std::move(channel.unacked);
    channel.unacked.clear();
    const hw::ClusterId source{key.first};
    for (auto& [seq, frame] : unacked) {
      if (auto* init = std::get_if<MsgInitiate>(&frame.message)) {
        // The task never came to exist; re-route its initiate to a live
        // cluster (unless its parent was reaped meanwhile).
        if (init->parent != kNoTask && !tasks_.contains(init->parent)) {
          stats_.stale_messages_dropped += 1;
          task_homes_.erase(init->task);
          continue;
        }
        const hw::ClusterId target = choose_cluster(source);
        task_homes_[init->task] = target;
        stats_.tasks_relocated += 1;
        send(source, target, std::move(frame.message));
        continue;
      }
      const auto addressee = message_addressee(frame.message);
      const auto home =
          addressee ? task_homes_.find(*addressee) : task_homes_.end();
      if (!addressee || home == task_homes_.end() ||
          !tasks_.contains(*addressee) ||
          !machine_.cluster_alive(home->second)) {
        stats_.stale_messages_dropped += 1;
        continue;
      }
      // Follow the addressee to its new home on a fresh channel sequence.
      send(source, home->second, std::move(frame.message));
    }
  }
}

void Os::flush_transport_from(hw::ClusterId cluster) {
  // The dead cluster's send channels: each unacknowledged frame either never
  // arrived, or arrived and only its ack was lost.  Retire the channel state
  // (silencing its retransmit timers) and salvage what still matters.
  for (auto& [key, channel] : send_channels_) {
    if (key.first != cluster.index || channel.unacked.empty()) continue;
    std::map<std::uint64_t, UnackedFrame> unacked = std::move(channel.unacked);
    channel.unacked.clear();
    for (auto& [seq, frame] : unacked) {
      if (auto* init = std::get_if<MsgInitiate>(&frame.message)) {
        if (tasks_.contains(init->task)) continue;  // delivered; ack was lost
        if (init->parent != kNoTask && !tasks_.contains(init->parent)) {
          // Parent reaped (or itself mid-reinitiate): the restarted tree
          // re-creates its own children.
          stats_.stale_messages_dropped += 1;
          task_homes_.erase(init->task);
          continue;
        }
        const hw::ClusterId source = first_alive_cluster();
        const hw::ClusterId target = choose_cluster(source);
        task_homes_[init->task] = target;
        stats_.tasks_relocated += 1;
        send(source, target, std::move(frame.message));
        continue;
      }
      if (auto* term = std::get_if<MsgTerminateNotify>(&frame.message)) {
        // A child that finished on the dead cluster before it died: its
        // result survives in the task table, so the notification can be
        // re-sent from a live source — but only if it was never delivered
        // and the parent is still around to consume it.
        const auto child = tasks_.find(term->child);
        const auto home = task_homes_.find(term->parent);
        if (child != tasks_.end() && !child->second.terminate_delivered &&
            tasks_.contains(term->parent) && home != task_homes_.end() &&
            machine_.cluster_alive(home->second)) {
          send(first_alive_cluster(), home->second, std::move(frame.message));
          continue;
        }
      }
      // Everything else is covered by task-level recovery: an undelivered
      // pause/resume involves a task that lived on the dead cluster (already
      // a victim), and a lost remote return leaves its pending call intact,
      // making the caller a victim.
      stats_.stale_messages_dropped += 1;
    }
  }
}

void Os::on_cluster_lost(hw::ClusterId cluster) {
  stats_.clusters_lost += 1;

  // The cluster's kernel state dies with the hardware: queued work, the
  // dispatch latch, its code registry, and the heap's contents.  The load
  // it carried vanishes from the placement board, as do every lane's
  // pending deltas and code-shipping memory for it.
  auto& state = cluster_state(cluster);
  state.ready.clear();
  state.dispatching = false;
  state.loaded_code.clear();
  load_board_[cluster.index] = 0;
  for (auto& ln : lanes_) {
    ln.load_delta[cluster.index] = 0;
    std::erase_if(ln.shipped_code, [&](const auto& entry) {
      return entry.first == cluster.index;
    });
  }
  heaps_[cluster.index] = Heap(machine_.memory_capacity(),
                               options_.heap_policy);

  // Held (out-of-order) frames lived in the dead cluster's memory; the
  // channel sequence state is NIC-resident and survives.
  for (auto& [key, channel] : recv_channels_)
    if (key.second == cluster.index) channel.held.clear();

  // Frames from the dead cluster held for reordering at live receivers have
  // already physically arrived (and been acknowledged); the sequence gaps
  // below them can never fill now.  Deliver them in order before recovery
  // decides who is a victim, so their effects (task records, delivered
  // terminations, retired calls) are visible to the victim computation.
  for (auto& [key, channel] : recv_channels_) {
    if (key.first != cluster.index || channel.held.empty()) continue;
    const hw::ClusterId dst{key.second};
    if (!machine_.cluster_alive(dst)) continue;
    std::map<std::uint64_t, Message> held = std::move(channel.held);
    channel.held.clear();
    for (auto& [seq, message] : held) {
      channel.next_expected = seq + 1;
      deliver(dst, cluster, std::move(message));
    }
  }

  // Victims: unfinished tasks homed here, plus callers stranded mid remote
  // call into here (their reply will never come).
  std::set<TaskId> victims;
  for (const auto& [id, rec] : tasks_)
    if (rec.cluster == cluster && rec.state != TaskState::Finished)
      victims.insert(id);
  for (const auto& [token, call] : pending_calls_) {
    if (call.destination != cluster) continue;
    const auto it = tasks_.find(call.caller);
    if (it != tasks_.end() && it->second.state != TaskState::Finished &&
        it->second.incarnation == call.caller_epoch)
      victims.insert(call.caller);
  }

  if (machine_.alive_clusters() == 0) {
    // In-flight work counts as live too: an earlier kill in the same event
    // may have re-initiated tasks whose initiate messages are still on the
    // wire, so tasks_ alone under-counts.  A placement reservation without a
    // task record is exactly an initiate that has not landed yet (framed or
    // not), and unacknowledged frames cover everything else.
    std::size_t in_flight = 0;
    for (const auto& [id, home] : task_homes_)
      if (!tasks_.contains(id)) in_flight += 1;
    for (const auto& [key, channel] : send_channels_)
      in_flight += channel.unacked.size();
    if (live_tasks() > 0 || in_flight > 0) {
      throw support::Error("all clusters failed with " +
                           std::to_string(live_tasks()) +
                           " unfinished tasks and " +
                           std::to_string(in_flight) +
                           " undelivered messages; the computation is "
                           "unrecoverable");
    }
    return;
  }

  // Partition into individually-relocatable leaves and tree restarts.
  std::set<TaskId> roots;
  std::vector<TaskId> leaves;
  for (const TaskId id : victims) {
    const auto it = tasks_.find(id);
    if (it == tasks_.end()) continue;
    const auto& rec = it->second;
    if (rec.cluster == cluster && is_restartable(rec)) {
      leaves.push_back(id);
    } else {
      roots.insert(restart_root(id));
    }
  }

  // Tree restarts: reap the whole subtree, then re-initiate the root under
  // its original id, so an external waiter on task_result(root) never
  // notices beyond the elapsed time.
  for (const TaskId root : roots) {
    if (!tasks_.contains(root)) continue;
    std::vector<TaskId> subtree{root};
    for (std::size_t i = 0; i < subtree.size(); ++i) {
      for (const auto& [id, rec] : tasks_)
        if (rec.parent == subtree[i]) subtree.push_back(id);
    }
    for (std::size_t i = subtree.size(); i > 1; --i) reap_task(subtree[i - 1]);
    stats_.orphans_reaped += subtree.size() - 1;
    reinitiate_task(root);
    stats_.trees_restarted += 1;
  }

  // Restartable leaves untouched by a tree restart relocate individually.
  for (const TaskId id : leaves) {
    if (!tasks_.contains(id)) continue;
    reinitiate_task(id);
  }

  // Retire stranded call bookkeeping: calls into the dead cluster, and
  // calls whose caller incarnation no longer exists.
  std::erase_if(pending_calls_, [&](const auto& entry) {
    if (entry.second.destination == cluster) return true;
    const auto it = tasks_.find(entry.second.caller);
    return it == tasks_.end() ||
           it->second.incarnation != entry.second.caller_epoch;
  });

  // Unacknowledged frames to the dead cluster follow their addressee's new
  // home or are dropped as stale, and frames the dead cluster itself had in
  // flight are re-sent from a live source or retired.
  flush_transport_to(cluster);
  flush_transport_from(cluster);
}

// ---------------------------------------------------------------------------
// Message handlers (run at kernel decode time)

void Os::handle(hw::ClusterId cluster, MsgInitiate&& m) {
  if (m.parent != kNoTask && !tasks_.contains(m.parent)) {
    // Orphan initiate: the parent's subtree was reaped by cluster-loss
    // recovery while this message was in flight.  The restarted tree
    // re-creates its own children, so this one must not run.  Undo the
    // placement reservation made at send time.
    stats_.stale_messages_dropped += 1;
    task_homes_.erase(m.task);
    lane().load_delta[cluster.index] -= 1;
    return;
  }
  if (tasks_.contains(m.task)) {
    // Duplicate initiate (the task already exists here or was re-homed).
    stats_.stale_messages_dropped += 1;
    return;
  }
  const auto it = code_.find(m.task_type);
  FEM2_CHECK_MSG(it != code_.end(),
                 "initiate of unknown task type: " + m.task_type);
  const CodeBlock& block = it->second;

  // "an initiate task message may require the following steps: find code
  // for task, allocate an activation record, copy parameters from the
  // message queue into activation record, enter task in ready queue".
  TaskRecord rec;
  rec.id = m.task;
  rec.type = m.task_type;
  rec.parent = m.parent;
  rec.cluster = cluster;
  rec.replication_index = m.replication_index;
  rec.replication_count = m.replication_count;

  Heap& h = heap(cluster);
  const std::size_t ar_bytes =
      block.activation_record_bytes + m.params.bytes;
  const std::size_t address = h.allocate(std::max<std::size_t>(ar_bytes, 8));
  if (address == Heap::kNullAddress) {
    throw hw::OutOfMemory("activation record allocation failed in cluster " +
                          std::to_string(cluster.index));
  }
  machine_.allocate(cluster, h.block_size(address));
  rec.ar_address = address;
  rec.ar_bytes = ar_bytes;

  rec.saved_params = m.params;  // kept for re-initiation after cluster loss
  rec.incarnation = make_incarnation();
  rec.api = std::make_unique<TaskApi>(*this, rec.id);
  rec.program = block.factory(*rec.api, std::move(m.params));
  FEM2_CHECK_MSG(rec.program != nullptr, "task factory returned null");
  rec.state = TaskState::Ready;

  const TaskId id = rec.id;
  const TaskId parent = rec.parent;
  tasks_.emplace(id, std::move(rec));
  stats_.tasks_initiated += 1;
  if (observer_ != nullptr) observer_->on_task_created(id, parent);
  push_ready(cluster, id);
}

void Os::handle(hw::ClusterId cluster, MsgPauseNotify&& m) {
  (void)cluster;
  const auto it = tasks_.find(m.parent);
  if (it == tasks_.end()) {
    stats_.stale_messages_dropped += 1;
    return;
  }
  auto& parent = it->second;
  parent.paused_children.push_back(m.child);
  parent.unconsumed_child_pauses += 1;
  if (parent.state == TaskState::Blocked &&
      parent.wait.kind == TaskApi::WaitIntent::Kind::ChildPauses &&
      parent.unconsumed_child_pauses >= parent.wait.count) {
    parent.unconsumed_child_pauses -= parent.wait.count;
    make_ready(parent, Payload{});
  }
}

void Os::handle(hw::ClusterId cluster, MsgResumeChild&& m) {
  (void)cluster;
  const auto it = tasks_.find(m.child);
  if (it == tasks_.end()) {
    stats_.stale_messages_dropped += 1;
    return;
  }
  auto& child = it->second;
  // Delivering a datum is external state the child cannot silently replay.
  child.restartable = false;
  if (child.state == TaskState::Paused) {
    make_ready(child, std::move(m.datum));
  } else {
    // Resume raced ahead of the child's pause; deliver on next pause.
    child.pending_resumes.push_back(std::move(m.datum));
  }
}

void Os::handle(hw::ClusterId cluster, MsgTerminateNotify&& m) {
  (void)cluster;
  if (const auto cit = tasks_.find(m.child); cit != tasks_.end())
    cit->second.terminate_delivered = true;
  const auto it = tasks_.find(m.parent);
  if (it == tasks_.end()) {
    stats_.stale_messages_dropped += 1;
    return;
  }
  auto& parent = it->second;
  parent.child_results.push_back(std::move(m.result));
  parent.unconsumed_child_terms += 1;
  if (parent.state == TaskState::Blocked &&
      parent.wait.kind == TaskApi::WaitIntent::Kind::ChildTerminations &&
      parent.unconsumed_child_terms >= parent.wait.count) {
    parent.unconsumed_child_terms -= parent.wait.count;
    make_ready(parent, Payload{});
  }
}

void Os::handle(hw::ClusterId cluster, MsgRemoteCall&& m, hw::ClusterId from) {
  ProcWork work;
  work.call = std::move(m);
  work.from = from;
  push_ready(cluster, std::move(work));
}

void Os::handle(hw::ClusterId cluster, MsgRemoteReturn&& m) {
  (void)cluster;
  pending_calls_.erase(m.token);
  const auto it = tasks_.find(m.caller);
  if (it == tasks_.end()) {
    stats_.stale_messages_dropped += 1;
    return;
  }
  auto& caller = it->second;
  if (caller.state == TaskState::Blocked &&
      caller.wait.kind == TaskApi::WaitIntent::Kind::Reply &&
      caller.wait.token == m.token) {
    make_ready(caller, std::move(m.result));
  } else {
    caller.replies.emplace(m.token, std::move(m.result));
  }
}

void Os::handle(hw::ClusterId cluster, MsgLoadCode&& m) {
  cluster_state(cluster).loaded_code.insert(m.task_type);
}

}  // namespace fem2::sysvm

#include "hw/machine.hpp"

#include <algorithm>

#include "hw/topology.hpp"

namespace fem2::hw {

Machine::Machine(const MachineConfig& config)
    : config_(config), net_rng_(config.network_seed) {
  FEM2_CHECK_MSG(config_.clusters > 0, "machine needs at least one cluster");
  FEM2_CHECK_MSG(config_.pes_per_cluster > 0,
                 "machine needs at least one PE per cluster");
  topology_ = config_.topology;
  if (topology_ == nullptr)
    topology_ = std::make_shared<FlatTopology>(config_);
  FEM2_CHECK_MSG(topology_->clusters() == config_.clusters,
                 "topology cluster count does not match the machine");
  // The engine window is the topology's minimum cross-cluster launch
  // delay: no packet sent inside a window can be delivered inside it.
  const Cycles window = topology_->min_launch_delay();
  FEM2_CHECK_MSG(window > 0, "topology min launch delay must be positive");
  engine_.configure(config_.clusters, window);
  pes_ = std::vector<PeSlot>(config_.total_pes());
  clusters_.resize(config_.clusters);
  links_.resize(config_.clusters * config_.clusters);
  for (auto& l : links_) l.drop_probability = config_.network_drop_probability;
  channel_free_at_.assign(topology_->channel_count(), 0);
  // Statically severed links (degraded topologies) take effect before the
  // first event, exactly like a FaultPlan::fail_link at t=0.
  for (const auto& [src, dst] : topology_->severed_links())
    link(src, dst).severed = true;
  metrics_.pes.resize(config_.total_pes());
  metrics_.clusters.resize(config_.clusters);
  metrics_.network.clusters = config_.clusters;
  metrics_.network.traffic_matrix.assign(config_.clusters * config_.clusters,
                                         0);
}

void Machine::check_cluster(ClusterId cluster) const {
  FEM2_CHECK_MSG(cluster.valid() && cluster.index < config_.clusters,
                 "invalid cluster id");
}

std::size_t Machine::pe_flat_index(PeId pe) const {
  check_cluster(pe.cluster);
  FEM2_CHECK_MSG(pe.index < config_.pes_per_cluster, "invalid PE index");
  return pe.cluster.index * config_.pes_per_cluster + pe.index;
}

Machine::PeSlot& Machine::slot(PeId pe) { return pes_[pe_flat_index(pe)]; }
const Machine::PeSlot& Machine::slot(PeId pe) const {
  return pes_[pe_flat_index(pe)];
}

PeMetrics& Machine::pe_metrics(PeId pe) {
  return metrics_.pes[pe_flat_index(pe)];
}

const Topology& Machine::topology() const { return *topology_; }

void Machine::send_packet(ClusterId src, ClusterId dst, std::size_t bytes,
                          std::uint64_t cargo) {
  check_cluster(src);
  check_cluster(dst);

  auto& src_metrics = metrics_.clusters[src.index];
  src_metrics.packets_out += 1;
  src_metrics.bytes_out += bytes;
  auto& net = metrics_.network;
  net.traffic_matrix[src.index * config_.clusters + dst.index] += 1;
  const Packet packet{src, dst, bytes, cargo};
  auto deliver = [this, packet] { deliver_packet(packet); };

  if (src == dst) {
    // Intra-cluster handoffs go through shared memory and never drop.
    net.local_messages += 1;
    net.local_bytes += bytes;
    Cycles start = now() + config_.intra_cluster_latency;
    if (config_.model_memory_contention) {
      const auto transfer = static_cast<Cycles>(
          config_.memory_cycles_per_byte * static_cast<double>(bytes));
      auto& port = clusters_[dst.index].memory_port_free_at;
      start = std::max(start, port);
      port = start + transfer;
      net.memory_port_busy_cycles += transfer;
      start += transfer;
    }
    record_trace({now(), TraceKind::MessageSent, src, 0xffffffffu, bytes});
    engine_.schedule_at(start, std::move(deliver));
    return;
  }

  // Inter-cluster: link lottery, channel contention, then delivery, which
  // runs in the destination cluster's context.  The launch delay is at
  // least the engine window, so the delivery lands in a later phase.
  const auto& l = link(src, dst);
  if (l.severed ||
      (l.drop_probability > 0.0 && net_rng_.chance(l.drop_probability))) {
    drop_packet(packet);
    return;
  }
  net.messages += 1;
  net.bytes += bytes;
  const Cycles launch = topology_->launch_delay(src, dst, now());
  FEM2_CHECK_MSG(launch >= engine_.window(),
                 "topology launch delay below the engine window");
  const auto transfer = static_cast<Cycles>(
      topology_->cycles_per_byte(src, dst) * static_cast<double>(bytes));
  Cycles start = now() + launch;
  if (config_.model_network_contention) {
    auto& ch = channel_free_at_[topology_->channel(src, dst)];
    start = std::max(start, ch);
    ch = start + transfer;
    net.channel_busy_cycles += transfer;
  }
  const Cycles deliver_at = start + transfer;
  net.latency.record(deliver_at - now());
  record_trace({now(), TraceKind::MessageSent, src, 0xffffffffu, bytes});
  engine_.schedule_on(dst.index, deliver_at, std::move(deliver));
}

void Machine::deliver_packet(const Packet& packet) {
  const ClusterId dst = packet.destination;
  const std::size_t bytes = packet.bytes;
  auto& cl = clusters_[dst.index];
  if (cl.lost) {
    // Nobody is home: the packet evaporates at the dead cluster's network
    // interface.
    drop_packet(packet);
    return;
  }
  cl.queue.push_back(packet);
  auto& cm = metrics_.clusters[dst.index];
  cm.packets_in += 1;
  cm.bytes_in += bytes;
  cm.queue_peak = std::max<std::uint64_t>(cm.queue_peak, cl.queue.size());
  record_trace({now(), TraceKind::MessageDelivered, dst, 0xffffffffu, bytes});
  notify_service(dst);
}

std::optional<Packet> Machine::pop_packet(ClusterId cluster) {
  check_cluster(cluster);
  auto& q = clusters_[cluster.index].queue;
  if (q.empty()) return std::nullopt;
  return q.pop_front();
}

std::size_t Machine::queue_depth(ClusterId cluster) const {
  check_cluster(cluster);
  return clusters_[cluster.index].queue.size();
}

void Machine::set_cluster_service(ClusterService service) {
  service_ = std::move(service);
}

void Machine::set_work_lost_handler(WorkLostHandler handler) {
  work_lost_ = std::move(handler);
}

void Machine::notify_service(ClusterId cluster) {
  if (service_) service_(cluster);
}

PeId Machine::kernel_pe(ClusterId cluster) const {
  check_cluster(cluster);
  for (std::uint32_t i = 0; i < config_.pes_per_cluster; ++i) {
    const PeId pe{cluster, i};
    if (slot(pe).state != PeState::Failed) {
      return pe;
    }
  }
  return PeId{};
}

PeId Machine::acquire_worker(ClusterId cluster) {
  check_cluster(cluster);
  const PeId kernel = kernel_pe(cluster);
  if (!kernel.valid()) return PeId{};  // cluster entirely failed
  for (std::uint32_t i = 0; i < config_.pes_per_cluster; ++i) {
    const PeId pe{cluster, i};
    if (pe == kernel && config_.pes_per_cluster > 1) continue;
    if (slot(pe).state == PeState::Idle) {
      slot(pe).state = PeState::Busy;
      return pe;
    }
  }
  return PeId{};
}

bool Machine::try_acquire_pe(PeId pe) {
  auto& s = slot(pe);
  if (s.state != PeState::Idle) return false;
  s.state = PeState::Busy;
  return true;
}

void Machine::release_worker(PeId pe) {
  auto& s = slot(pe);
  const PeState st = s.state;
  if (st == PeState::Failed) return;  // died while working
  FEM2_CHECK_MSG(st == PeState::Busy, "releasing a PE that is not busy");
  s.state = PeState::Idle;
  // A freed PE may unblock queued messages.
  notify_service(pe.cluster);
}

std::uint32_t Machine::begin_work(PeId pe, Cycles duration) {
  const auto& s = slot(pe);
  FEM2_CHECK_MSG(s.state != PeState::Failed, "occupying a failed PE");
  auto& pm = metrics_.pes[pe_flat_index(pe)];
  pm.busy_cycles += duration;
  pm.work_items += 1;
  record_trace({now(), TraceKind::WorkStarted, pe.cluster, pe.index, 0});
  return s.generation;
}

bool Machine::end_work(PeId pe, std::uint32_t generation) {
  record_trace({now(), TraceKind::WorkFinished, pe.cluster, pe.index, 0});
  if (slot(pe).generation == generation) return true;
  // The PE failed (or was power-cycled) while this work was in flight.
  if (work_lost_) work_lost_(pe.cluster);
  return false;
}

bool Machine::pe_alive(PeId pe) const {
  return slot(pe).state != PeState::Failed;
}

bool Machine::pe_busy(PeId pe) const {
  return slot(pe).state == PeState::Busy;
}

std::size_t Machine::alive_pes(ClusterId cluster) const {
  check_cluster(cluster);
  std::size_t n = 0;
  for (std::uint32_t i = 0; i < config_.pes_per_cluster; ++i)
    if (pe_alive(PeId{cluster, i})) ++n;
  return n;
}

std::size_t Machine::idle_workers(ClusterId cluster) const {
  check_cluster(cluster);
  const PeId kernel = kernel_pe(cluster);
  std::size_t n = 0;
  for (std::uint32_t i = 0; i < config_.pes_per_cluster; ++i) {
    const PeId pe{cluster, i};
    if (pe == kernel && config_.pes_per_cluster > 1) continue;
    if (slot(pe).state == PeState::Idle) ++n;
  }
  return n;
}

void Machine::fail_pe(PeId pe) {
  auto& s = slot(pe);
  const PeState st = s.state;
  if (st == PeState::Failed) return;
  const bool was_busy = st == PeState::Busy;
  s.state = PeState::Failed;
  s.generation += 1;
  failed_count_ += 1;
  record_trace({now(), TraceKind::PeFailed, pe.cluster, pe.index, 0});
  if (was_busy && work_lost_) work_lost_(pe.cluster);
  if (alive_pes(pe.cluster) == 0) {
    handle_cluster_death(pe.cluster);
    return;
  }
  // Isolating the fault may promote a new kernel PE; wake the service so it
  // can continue fielding messages.
  notify_service(pe.cluster);
}

void Machine::restore_pe(PeId pe) {
  auto& s = slot(pe);
  if (s.state != PeState::Failed) return;
  s.state = PeState::Idle;
  s.generation += 1;
  failed_count_ -= 1;
  auto& cl = clusters_[pe.cluster.index];
  if (cl.lost) {
    // The cluster comes back as a blank node: empty queue, empty memory.
    cl.lost = false;
    failed_clusters_ -= 1;
  }
  notify_service(pe.cluster);
}

std::size_t Machine::failed_pe_count() const { return failed_count_; }

void Machine::fail_cluster(ClusterId cluster) {
  check_cluster(cluster);
  if (clusters_[cluster.index].lost) return;
  for (std::uint32_t i = 0; i < config_.pes_per_cluster; ++i) {
    const PeId pe{cluster, i};
    auto& s = slot(pe);
    const PeState st = s.state;
    if (st == PeState::Failed) continue;
    const bool was_busy = st == PeState::Busy;
    s.state = PeState::Failed;
    s.generation += 1;
    failed_count_ += 1;
    record_trace({now(), TraceKind::PeFailed, cluster, i, 0});
    if (was_busy && work_lost_) work_lost_(cluster);
  }
  handle_cluster_death(cluster);
}

void Machine::handle_cluster_death(ClusterId cluster) {
  auto& cl = clusters_[cluster.index];
  if (cl.lost) return;
  cl.lost = true;
  failed_clusters_ += 1;
  // Purge everything that lived in the cluster: undecoded input packets and
  // the shared memory's contents die with the hardware.
  while (!cl.queue.empty()) drop_packet(cl.queue.pop_front());
  cl.memory_in_use = 0;
  metrics_.clusters[cluster.index].memory_in_use = 0;
  record_trace({now(), TraceKind::ClusterFailed, cluster, 0xffffffffu, 0});
  if (cluster_lost_) cluster_lost_(cluster);
}

bool Machine::cluster_alive(ClusterId cluster) const {
  check_cluster(cluster);
  return !clusters_[cluster.index].lost && alive_pes(cluster) > 0;
}

std::size_t Machine::alive_clusters() const {
  std::size_t n = 0;
  for (std::uint32_t c = 0; c < config_.clusters; ++c)
    if (cluster_alive(ClusterId{c})) ++n;
  return n;
}

std::size_t Machine::failed_cluster_count() const { return failed_clusters_; }

Machine::LinkSlot& Machine::link(ClusterId src, ClusterId dst) {
  check_cluster(src);
  check_cluster(dst);
  return links_[src.index * config_.clusters + dst.index];
}

const Machine::LinkSlot& Machine::link(ClusterId src, ClusterId dst) const {
  check_cluster(src);
  check_cluster(dst);
  return links_[src.index * config_.clusters + dst.index];
}

void Machine::set_drop_probability(double p) {
  FEM2_CHECK_MSG(p >= 0.0 && p < 1.0, "drop probability must be in [0, 1)");
  for (auto& l : links_) l.drop_probability = p;
}

void Machine::set_link_drop_probability(ClusterId src, ClusterId dst,
                                        double p) {
  FEM2_CHECK_MSG(p >= 0.0 && p < 1.0, "drop probability must be in [0, 1)");
  link(src, dst).drop_probability = p;
}

void Machine::fail_link(ClusterId src, ClusterId dst) {
  link(src, dst).severed = true;
  record_trace({now(), TraceKind::LinkFailed, dst, src.index, 0});
}

void Machine::restore_link(ClusterId src, ClusterId dst) {
  link(src, dst).severed = false;
}

bool Machine::link_severed(ClusterId src, ClusterId dst) const {
  return link(src, dst).severed;
}

void Machine::drop_packet(const Packet& packet) {
  metrics_.network.dropped_messages += 1;
  metrics_.network.dropped_bytes += packet.bytes;
  record_trace({now(), TraceKind::MessageDropped, packet.destination,
                packet.source.index, packet.bytes});
  if (packet_dropped_) packet_dropped_(packet);
}

void Machine::allocate(ClusterId cluster, std::size_t bytes) {
  check_cluster(cluster);
  auto& cl = clusters_[cluster.index];
  if (cl.memory_in_use + bytes > config_.memory_per_cluster) {
    throw OutOfMemory("cluster " + std::to_string(cluster.index) +
                      " shared memory exhausted: in use " +
                      std::to_string(cl.memory_in_use) + " + request " +
                      std::to_string(bytes) + " > capacity " +
                      std::to_string(config_.memory_per_cluster));
  }
  cl.memory_in_use += bytes;
  auto& cm = metrics_.clusters[cluster.index];
  cm.memory_in_use = cl.memory_in_use;
  cm.memory_high_water = std::max(cm.memory_high_water, cl.memory_in_use);
}

void Machine::release(ClusterId cluster, std::size_t bytes) {
  check_cluster(cluster);
  auto& cl = clusters_[cluster.index];
  FEM2_CHECK_MSG(bytes <= cl.memory_in_use, "releasing more than allocated");
  cl.memory_in_use -= bytes;
  metrics_.clusters[cluster.index].memory_in_use = cl.memory_in_use;
}

std::size_t Machine::memory_in_use(ClusterId cluster) const {
  check_cluster(cluster);
  return clusters_[cluster.index].memory_in_use;
}

}  // namespace fem2::hw

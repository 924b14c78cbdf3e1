// The FEM-2 machine model: clusters of processing elements around a shared
// memory, connected by a common inter-cluster network, driven by the
// discrete-event engine.
//
// The hardware layer is mechanism only.  Policy — which PE fields a message,
// how tasks are scheduled — belongs to the system programmer's VM
// (src/sysvm), which installs a ClusterService callback.  Per the paper,
// the kernel role is pinned to one PE per cluster ("within each cluster,
// one PE runs the operating system kernel"); reconfigurability is modeled
// by promoting the lowest-index surviving PE when the kernel PE fails.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "hw/config.hpp"
#include "hw/event.hpp"
#include "hw/metrics.hpp"
#include "hw/trace.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace fem2::hw {

/// A message on the wire.  The hardware layer only moves and accounts
/// for it; `cargo` is an opaque handle the sender resolves on delivery
/// (the OS layer keeps the message itself in its in-flight frame table).
struct Packet {
  ClusterId source;
  ClusterId destination;
  std::size_t bytes = 0;
  std::uint64_t cargo = 0;
};

/// Thrown when a cluster's shared memory is exhausted.
class OutOfMemory : public support::Error {
 public:
  using support::Error::Error;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const MachineConfig& config() const { return config_; }
  /// The inter-cluster network shape driving latency, bandwidth and
  /// contention (config.topology, or the flat seed model when unset).
  const Topology& topology() const;
  Engine& engine() { return engine_; }
  const Engine& engine() const { return engine_; }
  Cycles now() const { return engine_.now(); }

  std::size_t cluster_count() const { return config_.clusters; }

  // --- packets --------------------------------------------------------
  /// Deliver a packet to `dst`'s input queue after modeled latency
  /// (intra-cluster shared-memory handoff, or network with per-destination
  /// channel serialization).  The cluster service is notified on arrival.
  void send_packet(ClusterId src, ClusterId dst, std::size_t bytes,
                   std::uint64_t cargo);

  std::optional<Packet> pop_packet(ClusterId cluster);
  std::size_t queue_depth(ClusterId cluster) const;

  /// Installed by the OS layer; invoked when a packet arrives or a PE frees
  /// up in the cluster.  May be invoked spuriously; must be idempotent.
  using ClusterService = std::function<void(ClusterId)>;
  void set_cluster_service(ClusterService service);

  /// Invoked when a PE fails mid-work; receives the cluster whose work was
  /// lost so the OS layer can re-dispatch.
  using WorkLostHandler = std::function<void(ClusterId)>;
  void set_work_lost_handler(WorkLostHandler handler);

  /// Invoked once when a cluster's last alive PE fails (via fail_cluster or
  /// a sequence of fail_pe calls).  The cluster's input queue and shared
  /// memory are already purged when the handler runs; the OS layer uses it
  /// to relocate the tasks that lived there.
  using ClusterLostHandler = std::function<void(ClusterId)>;
  void set_cluster_lost_handler(ClusterLostHandler handler) {
    cluster_lost_ = std::move(handler);
  }

  /// Invoked once for every packet the machine drops: on a lossy or
  /// severed link, at a dead destination, and when a lost cluster's input
  /// queue is purged.  The sender frees whatever the cargo refers to.
  using PacketDropHandler = std::function<void(const Packet&)>;
  void set_packet_drop_handler(PacketDropHandler handler) {
    packet_dropped_ = std::move(handler);
  }

  // --- processing elements ---------------------------------------------
  /// The PE currently running the OS kernel in this cluster: the
  /// lowest-index alive PE.  Invalid id if the whole cluster has failed.
  PeId kernel_pe(ClusterId cluster) const;

  /// Claim an idle, alive, non-kernel PE (any PE may process any message,
  /// per the paper).  With a single-PE cluster the kernel PE doubles as the
  /// worker.  Returns an invalid id when none is available.
  PeId acquire_worker(ClusterId cluster);
  void release_worker(PeId pe);

  /// Claim a specific PE (e.g. the kernel PE for dispatch).  Returns false
  /// if it is busy or failed.
  bool try_acquire_pe(PeId pe);

  /// Charge `duration` busy cycles to `pe`, then run `on_complete`.
  /// If the PE fails before completion the completion is dropped and the
  /// work-lost handler fires instead.  Does not acquire/release the PE.
  /// The completion rides inside the one scheduled event's action.
  template <typename F>
  void occupy(PeId pe, Cycles duration, F on_complete) {
    const std::uint32_t generation = begin_work(pe, duration);
    // Anchor the completion to the PE's own cluster shard, also when the
    // work is dispatched from a global event.
    engine_.schedule_on(pe.cluster.index, now() + duration,
                        [this, pe, generation,
                         on_complete = std::move(on_complete)]() mutable {
                          if (end_work(pe, generation)) on_complete();
                        });
  }

  bool pe_alive(PeId pe) const;
  bool pe_busy(PeId pe) const;
  std::size_t alive_pes(ClusterId cluster) const;
  std::size_t idle_workers(ClusterId cluster) const;

  // --- faults -----------------------------------------------------------
  void fail_pe(PeId pe);
  void restore_pe(PeId pe);
  std::size_t failed_pe_count() const;

  /// Fail every PE of a cluster at once, purge its input queue and shared
  /// memory, and fire the cluster-lost handler.  Idempotent.
  void fail_cluster(ClusterId cluster);
  bool cluster_alive(ClusterId cluster) const;
  std::size_t alive_clusters() const;
  std::size_t failed_cluster_count() const;

  // --- lossy / severable inter-cluster network ---------------------------
  /// Set the drop probability of every inter-cluster link (0 disables).
  void set_drop_probability(double p);
  /// Per-link override (src→dst direction only).
  void set_link_drop_probability(ClusterId src, ClusterId dst, double p);
  /// Sever / repair one directed link.  A severed link drops everything.
  void fail_link(ClusterId src, ClusterId dst);
  void restore_link(ClusterId src, ClusterId dst);
  bool link_severed(ClusterId src, ClusterId dst) const;

  // --- shared memory ------------------------------------------------------
  /// Throws OutOfMemory if the cluster's capacity would be exceeded.
  void allocate(ClusterId cluster, std::size_t bytes);
  void release(ClusterId cluster, std::size_t bytes);
  std::size_t memory_in_use(ClusterId cluster) const;
  std::size_t memory_capacity() const { return config_.memory_per_cluster; }

  // --- metrics -----------------------------------------------------------
  const MachineMetrics& metrics() const { return metrics_; }
  PeMetrics& pe_metrics(PeId pe);

  /// Attach an execution tracer (optional; not owned).  Pass nullptr to
  /// detach.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

 private:
  enum class PeState { Idle, Busy, Failed };

  struct PeSlot {
    PeState state = PeState::Idle;
    std::uint32_t generation = 0;  ///< bumped on fail/restore
  };

  struct ClusterSlot {
    std::deque<Packet> queue;
    Cycles memory_port_free_at = 0;  ///< shared-memory port serialization
    std::size_t memory_in_use = 0;
    bool lost = false;  ///< cluster-lost handler already fired
  };

  struct LinkSlot {
    double drop_probability = 0.0;
    bool severed = false;
  };

  PeSlot& slot(PeId pe);
  const PeSlot& slot(PeId pe) const;
  std::size_t pe_flat_index(PeId pe) const;
  void notify_service(ClusterId cluster);
  void check_cluster(ClusterId cluster) const;
  LinkSlot& link(ClusterId src, ClusterId dst);
  const LinkSlot& link(ClusterId src, ClusterId dst) const;
  /// Fires the cluster-lost handler once alive_pes drops to zero.
  void handle_cluster_death(ClusterId cluster);
  void drop_packet(const Packet& packet);
  /// occupy's halves: charge the PE and return its generation; at the end,
  /// record the finish and say whether the PE survived to complete.
  std::uint32_t begin_work(PeId pe, Cycles duration);
  bool end_work(PeId pe, std::uint32_t generation);

  /// The arrival half of a send.
  void deliver_packet(const Packet& packet);
  void record_trace(const TraceEvent& ev) {
    if (tracer_ != nullptr) tracer_->record(ev);
  }

  MachineConfig config_;
  std::shared_ptr<const Topology> topology_;
  Engine engine_;
  std::vector<PeSlot> pes_;
  std::vector<ClusterSlot> clusters_;
  std::vector<LinkSlot> links_;  ///< row-major src×dst, inter-cluster only
  std::vector<Cycles> channel_free_at_;  ///< topology contention channels
  ClusterService service_;
  WorkLostHandler work_lost_;
  ClusterLostHandler cluster_lost_;
  PacketDropHandler packet_dropped_;
  MachineMetrics metrics_;
  Tracer* tracer_ = nullptr;
  std::size_t failed_count_ = 0;
  std::size_t failed_clusters_ = 0;
  support::Rng net_rng_;
};

}  // namespace fem2::hw

// Counters for the three quantities the paper's simulation program targets:
// processing (busy cycles per PE), storage (shared-memory high water), and
// communication (messages and bytes, intra- vs inter-cluster).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hw/config.hpp"

namespace fem2::hw {

struct PeMetrics {
  Cycles busy_cycles = 0;
  std::uint64_t work_items = 0;  ///< dispatches executed on this PE
};

struct ClusterMetrics {
  std::uint64_t packets_in = 0;
  std::uint64_t packets_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t kernel_dispatches = 0;
  std::size_t memory_in_use = 0;
  std::size_t memory_high_water = 0;
  std::uint64_t queue_peak = 0;  ///< deepest input queue seen
};

/// End-to-end latency distribution of delivered inter-cluster packets
/// (send to delivery, launch latency + contention + transfer).  HDR-style
/// histogram: exact below 16 cycles, then 16 linear sub-buckets per
/// power-of-two range, so any quantile is within ~6% of the true value.
/// Samples are recorded when a packet is launched, at send time.
struct LatencyHistogram {
  static constexpr std::size_t kSub = 16;

  std::uint64_t count = 0;
  Cycles sum = 0;
  Cycles min = 0;
  Cycles max = 0;
  std::vector<std::uint64_t> buckets;  ///< grown on demand

  void record(Cycles v);
  double mean() const;
  /// Upper bound of the bucket holding quantile q (q in [0, 1]).
  Cycles quantile(double q) const;

  static std::size_t bucket_index(Cycles v);
  static Cycles bucket_upper(std::size_t index);
};

struct NetworkMetrics {
  std::uint64_t messages = 0;        ///< inter-cluster only
  std::uint64_t bytes = 0;
  Cycles channel_busy_cycles = 0;    ///< total serialization on channels
  std::uint64_t local_messages = 0;  ///< intra-cluster (shared-memory) sends
  std::uint64_t local_bytes = 0;
  Cycles memory_port_busy_cycles = 0;  ///< shared-memory port serialization

  // Fault model: packets lost to the lossy/severed network or to failed
  // destination clusters.  Dropped packets still count in packets_out /
  // traffic_matrix (the source paid for the send).
  std::uint64_t dropped_messages = 0;
  std::uint64_t dropped_bytes = 0;

  /// Source×destination message counts (row-major, clusters²) — the
  /// communication pattern the paper's simulations were to measure.
  std::vector<std::uint64_t> traffic_matrix;
  std::size_t clusters = 0;

  /// Delivery-latency distribution of inter-cluster packets (drops are not
  /// deliveries and do not sample).
  LatencyHistogram latency;

  std::uint64_t traffic(std::size_t from, std::size_t to) const;
  /// Rendered source×destination table.
  std::string render_traffic_matrix() const;
};

struct MachineMetrics {
  std::vector<PeMetrics> pes;          ///< indexed cluster*ppc + pe
  std::vector<ClusterMetrics> clusters;
  NetworkMetrics network;

  Cycles total_busy_cycles() const;
  double pe_utilization(Cycles elapsed) const;  ///< over alive+failed PEs
  std::uint64_t total_messages() const;
  std::uint64_t total_bytes() const;
  std::size_t memory_high_water() const;

  std::string summary(Cycles elapsed) const;

  /// Exhaustive, byte-stable dump of every counter (one line per field).
  /// Two runs are bit-identical iff their dumps compare equal; the
  /// determinism tests diff this across repeated runs.
  std::string dump() const;
};

}  // namespace fem2::hw

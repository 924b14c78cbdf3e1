// Execution tracing for the machine simulator: records message and PE
// activity events so a run's temporal pattern can be inspected — the
// "storage, processing, and communication patterns" of the paper's
// simulation program, as a timeline rather than totals.
//
// The tracer is optional and attached to a Machine before the run; it
// keeps a bounded event list (oldest dropped beyond the cap) and renders
// text timelines (a per-PE utilization Gantt, a message-rate profile).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hw/config.hpp"

namespace fem2::hw {

enum class TraceKind : std::uint8_t {
  MessageSent,
  MessageDelivered,
  MessageDropped,  ///< lost to a lossy/severed link or dead cluster
  WorkStarted,   ///< PE begins a busy interval
  WorkFinished,  ///< busy interval ends
  PeFailed,
  PeRestored,
  ClusterFailed,
  LinkFailed,
};

std::string_view trace_kind_name(TraceKind k);

struct TraceEvent {
  Cycles time = 0;
  TraceKind kind = TraceKind::MessageSent;
  ClusterId cluster;            ///< where it happened (destination for sends)
  std::uint32_t pe = 0xffffffffu;  ///< PE index, if applicable
  std::size_t bytes = 0;        ///< message size, if applicable

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 200'000) : capacity_(capacity) {}

  void record(TraceEvent event);

  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t dropped() const { return dropped_; }
  void clear();

  /// Per-PE busy fraction within [begin, end), one row per PE, rendered as
  /// a text Gantt with `buckets` columns ('#' ≥75% busy, '+' ≥25%, '.' >0).
  std::string render_pe_gantt(const MachineConfig& config, Cycles begin,
                              Cycles end, std::size_t buckets = 60) const;

  /// Messages delivered per time bucket over [begin, end).
  std::string render_message_profile(Cycles begin, Cycles end,
                                     std::size_t buckets = 60) const;

 private:
  std::size_t capacity_;
  std::size_t dropped_ = 0;
  std::vector<TraceEvent> events_;
};

}  // namespace fem2::hw

// Shared harness of the outside-in benchmark: the closed-loop run clock,
// the span tracer, the db::Vfs decorator for the traced run, and the
// metric report.  Workloads call the libraries only through their public
// headers; every span is opened here, around a call into one layer.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "db/vfs.hpp"
#include "fem/model.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< root for data directories and trace dumps
};

// --- metrics -----------------------------------------------------------

class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// One JSON object: {"correct", "attempted", "failed", "metrics"}.
  std::string json(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const;
  void print_table() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);
double mean(const std::vector<double>& values);
double max_abs(const std::vector<double>& values);
double peak_rss_mb();

/// The benches' standard workload: an nx x ny plane-stress cantilever
/// sheet, fixed on the left, with `load` of tip shear (load set
/// "tip-shear") spread over the right edge.
fem2::fem::StructureModel cantilever_sheet(std::size_t nx, std::size_t ny,
                                           double load);

// --- spans ---------------------------------------------------------------

/// One timed call into a layer.  Times are ns since the tracer's epoch.
struct Span {
  const char* name = "";
  std::int64_t start = 0;
  std::int64_t end = -1;
  std::int32_t parent = -1;  ///< index of the enclosing span on this thread
  std::uint64_t op = 0;      ///< 0 = not attributed to an op
  std::uint32_t tid = 0;
};

/// In-memory span recorder, written out as Chrome trace-event JSON at
/// exit.  Spans nest per thread; a span opened on a thread with no open
/// span takes that thread's current op id (set_thread_op).
class Tracer {
 public:
  Tracer();

  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }

  std::int64_t now_ns() const;
  static void set_thread_op(std::uint64_t op);

  std::int32_t open(const char* name);
  void close(std::int32_t index);
  /// A span timed by the caller (e.g. an op that overlaps other ops).
  void add(const char* name, std::int64_t start, std::int64_t end,
           std::uint64_t op);

  std::vector<Span> spans() const;
  void name_thread(const std::string& name);
  bool write_chrome_json(const std::string& path) const;

 private:
  std::uint32_t thread_id_locked();

  std::atomic<bool> on_{false};
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::uint64_t, std::uint32_t> tids_;  ///< hashed thread id
  std::map<std::uint32_t, std::string> thread_names_;
};

/// RAII span; a null or switched-off tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer != nullptr && tracer->on() ? tracer : nullptr),
        index_(tracer_ ? tracer_->open(name) : -1) {}
  ~Scope() {
    if (tracer_) tracer_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

/// Per-op self time of each layer, from the spans of the traced ops.
struct LayerTimes {
  /// name -> one sample per traced op (ms of self time in that op).
  std::map<std::string, std::vector<double>> self_ms;
  /// Share of the client thread's in-op wall time spent inside a layer
  /// span (ops may overlap; both sides are measured as interval unions).
  double coverage = 0.0;
};

/// Spans named `op_name` delimit an op; every other span carrying the id
/// of an op in `traced_ops` is a layer span of that op.
LayerTimes layer_times(const std::vector<Span>& spans, const char* op_name,
                       const std::vector<std::uint64_t>& traced_ops,
                       std::uint32_t client_tid);

// --- storage boundary ------------------------------------------------------

/// db::Vfs decorator that counts and times writes, syncs (file and
/// directory) and renames, and records a span for each while the tracer
/// is on.  Used by the db workloads in the traced run only.
class CountingVfs : public fem2::db::Vfs {
 public:
  struct Totals {
    std::uint64_t write_bytes = 0;
    double write_ms = 0.0;
    std::uint64_t syncs = 0;
    double sync_ms = 0.0;
    double rename_ms = 0.0;
  };

  CountingVfs(std::shared_ptr<fem2::db::Vfs> inner, Tracer* tracer);

  std::unique_ptr<fem2::db::VfsFile> open_append(
      const std::string& path) override;
  std::unique_ptr<fem2::db::VfsFile> create_truncate(
      const std::string& path) override;
  std::optional<std::string> read_file(const std::string& path) override;
  void rename(const std::string& from, const std::string& to) override;
  void dir_sync(const std::string& dir) override;

  Totals totals() const;

  /// Report the db.* rows: Vfs time and traffic between two snapshots of
  /// the totals, per op.
  static void report(const Totals& before, const Totals& after,
                     std::uint64_t ops, Report& out);

  // Called by the wrapped files.
  void count_write(std::size_t bytes, std::int64_t ns);
  void count_sync(std::int64_t ns);
  Tracer* tracer() const { return tracer_; }

 private:
  std::shared_ptr<fem2::db::Vfs> inner_;
  Tracer* tracer_;
  std::atomic<std::uint64_t> write_bytes_{0}, write_ns_{0};
  std::atomic<std::uint64_t> syncs_{0}, sync_ns_{0};
  std::atomic<std::uint64_t> rename_ns_{0};
};

// --- the closed loop -------------------------------------------------------

/// Clock and sample keeper for one run.  The loop runs ops until
/// `seconds` have passed; ops that start in the first tenth (at most 2 s)
/// are warm-up and are checked but not timed.  Set-up is timed at the
/// start and again at evenly spaced points (probes), each time building
/// a full throwaway copy of the workload's state; the fastest counts.
/// In the traced run, tracing switches on and off in 0.5 s blocks so
/// traced and untraced ops sample the same host conditions.
///
/// With `rotate_cpus`, the calling thread moves to the next CPU of the
/// process's affinity mask every kCpuSlotS seconds.  On a VM the host
/// slows single vCPUs for seconds at a time, each on its own schedule;
/// visiting every vCPU lets a run's fastest op and set-up find one that
/// is not slowed.  Only for workloads whose ops run on the calling
/// thread: threads it starts would inherit its one-CPU mask.
class Run {
 public:
  static constexpr int kSetupProbes = 100;
  static constexpr double kCpuSlotS = 0.25;

  Run(const Args& args, bool rotate_cpus);

  /// True while the run lasts; moves to the next CPU when one is due.
  bool more();
  /// True when a set-up probe is due; the caller drains, then calls
  /// time_setup with a throwaway build.
  bool setup_due() const;
  /// Time one complete set-up; returns what `build` built so the caller
  /// can keep it (the first) or throw it away outside the timed region.
  template <class Build>
  auto time_setup(Build&& build) {
    const auto t0 = Clock::now();
    auto state = build();
    setup_s_.push_back(ms_between(t0, Clock::now()) / 1000.0);
    return state;
  }
  /// Wall time to exclude from ops_per_s (probes, their teardown, the
  /// traced run's replays).
  void add_pause(double ms) { pause_ms_ += ms; }

  /// In the traced run, whether the current block traces its ops.  The
  /// caller drains in-flight ops before a block switch takes effect.
  bool block_traced() const;
  bool block_switch_due(bool current) const {
    return trace_ && block_traced() != current;
  }

  /// Record a finished op.  `ok` = its outputs passed their checks.
  void record_op(std::uint64_t op, Clock::time_point start,
                 Clock::time_point end, bool ok, bool traced);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::uint64_t>& traced_ops() const { return traced_ops_; }

  /// End-to-end metrics (untraced run) or trace.overhead_pct (traced).
  void report(Report& out) const;

 private:
  bool trace_;
  double seconds_;
  std::vector<int> cpus_;  ///< CPUs to rotate over; empty = no rotation
  std::size_t next_cpu_ = 0;
  Clock::time_point next_move_{};
  Clock::time_point start_;
  Clock::time_point warm_;
  Clock::time_point end_;
  double pause_ms_ = 0.0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<double> untraced_ms_;
  std::vector<double> traced_ms_;
  std::vector<std::uint64_t> traced_ops_;
  std::vector<double> setup_s_;
  Clock::time_point first_warm_start_{};
  Clock::time_point last_end_{};
};

/// Report each layer's self time per op (mean over traced ops, so the
/// layers add up to the op) under the metric name `metric_of` gives its
/// span, in ms or (for names ending in _us) in µs, plus
/// trace.coverage_pct.
void report_layers(const LayerTimes& layers,
                   const std::map<std::string, std::string>& metric_of,
                   Report& out);

/// Fresh, empty directory under `root` unique to this process.
std::string fresh_directory(const std::string& root, const std::string& tag);
void remove_directory(const std::string& path);

// --- workloads ---------------------------------------------------------------

struct Outcome {
  Report report;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

Outcome run_sim_solve(const Args& args);
Outcome run_host_solve(const Args& args);
Outcome run_serve_mix(const Args& args);

}  // namespace perfbench

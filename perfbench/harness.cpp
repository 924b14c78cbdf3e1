#include "harness.hpp"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <set>
#include <sstream>
#include <thread>

#include "fem/mesh.hpp"

namespace perfbench {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// --- metrics -----------------------------------------------------------

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {value, unit};
}

namespace {

/// Shortest text that reads back as exactly `v`: every measured digit.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  return std::string(buf, end);
}

}  // namespace

std::string Report::json(bool correct, std::uint64_t attempted,
                         std::uint64_t failed) const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << json_number(metric.first) << ", \"unit\": \"" << metric.second
       << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

void Report::print_table() const {
  for (const auto& [name, metric] : metrics_) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-28s %14.6g %s\n", name.c_str(),
                  metric.first, metric.second.c_str());
    std::cout << line;
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double max_abs(const std::vector<double>& values) {
  double m = 0.0;
  for (const double v : values) m = std::max(m, std::abs(v));
  return m;
}

fem2::fem::StructureModel cantilever_sheet(std::size_t nx, std::size_t ny,
                                           double load) {
  fem2::fem::PlateMeshOptions mesh;
  mesh.nx = nx;
  mesh.ny = ny;
  mesh.width = static_cast<double>(nx) / 8.0;
  mesh.height = static_cast<double>(ny) / 8.0;
  mesh.material.youngs_modulus = 70e9;
  mesh.material.thickness = 0.005;
  return fem2::fem::make_cantilever_plate(mesh, load);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching process's peak when that
  // was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  }
  return 0.0;
}

// --- spans ---------------------------------------------------------------

namespace {

thread_local std::vector<std::int32_t> t_open;  // this thread's open spans
thread_local std::uint64_t t_op = 0;

std::uint64_t this_thread_key() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

}  // namespace

Tracer::Tracer() : epoch_(Clock::now()) { spans_.reserve(1 << 16); }

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

void Tracer::set_thread_op(std::uint64_t op) { t_op = op; }

std::uint32_t Tracer::thread_id_locked() {
  const auto [it, inserted] = tids_.emplace(
      this_thread_key(), static_cast<std::uint32_t>(tids_.size() + 1));
  return it->second;
}

std::int32_t Tracer::open(const char* name) {
  Span span;
  span.name = name;
  span.parent = t_open.empty() ? -1 : t_open.back();
  span.start = now_ns();
  std::lock_guard lock(mutex_);
  span.op = span.parent >= 0 ? spans_[span.parent].op : t_op;
  span.tid = thread_id_locked();
  spans_.push_back(span);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  t_open.push_back(index);
  return index;
}

void Tracer::close(std::int32_t index) {
  const std::int64_t end = now_ns();
  t_open.pop_back();
  std::lock_guard lock(mutex_);
  spans_[index].end = end;
}

void Tracer::add(const char* name, std::int64_t start, std::int64_t end,
                 std::uint64_t op) {
  std::lock_guard lock(mutex_);
  Span span;
  span.name = name;
  span.start = start;
  span.end = end;
  span.op = op;
  span.tid = thread_id_locked();
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

void Tracer::name_thread(const std::string& name) {
  std::lock_guard lock(mutex_);
  thread_names_[thread_id_locked()] = name;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard lock(mutex_);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  std::set<std::uint32_t> tids;
  for (const auto& [key, tid] : tids_) tids.insert(tid);
  for (const auto tid : tids) {
    const auto it = thread_names_.find(tid);
    const std::string name = it != thread_names_.end()
                                 ? it->second
                                 : "worker " + std::to_string(tid);
    sep();
    out << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, "
           "\"tid\": "
        << tid << ", \"args\": {\"name\": \"" << name << "\"}}";
  }
  char buf[64];
  for (const auto& s : spans_) {
    if (s.end < s.start) continue;
    sep();
    out << "{\"ph\": \"X\", \"name\": \"" << s.name
        << "\", \"pid\": 1, \"tid\": " << s.tid << ", \"ts\": ";
    std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(s.start) / 1e3);
    out << buf << ", \"dur\": ";
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(s.end - s.start) / 1e3);
    out << buf << ", \"args\": {\"op\": " << s.op << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

LayerTimes layer_times(const std::vector<Span>& spans, const char* op_name,
                       const std::vector<std::uint64_t>& traced_ops,
                       std::uint32_t client_tid) {
  LayerTimes out;
  const std::set<std::uint64_t> traced(traced_ops.begin(), traced_ops.end());
  const std::string op_span = op_name;

  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const auto& s : spans) {
    if (s.parent >= 0 && s.end >= s.start)
      child_ns[s.parent] += s.end - s.start;
  }

  // name -> op -> self ns
  std::map<std::string, std::map<std::uint64_t, std::int64_t>> self;
  std::vector<std::pair<std::int64_t, std::int64_t>> op_intervals;
  std::int64_t covered_ns = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end < s.start || !traced.contains(s.op)) continue;
    if (s.name == op_span) {
      if (s.tid == client_tid) op_intervals.emplace_back(s.start, s.end);
      continue;
    }
    self[s.name][s.op] += (s.end - s.start) - child_ns[i];
    const bool top = s.parent < 0 || spans[s.parent].name == op_span;
    if (top && s.tid == client_tid) covered_ns += s.end - s.start;
  }
  for (const auto& [name, per_op] : self) {
    auto& samples = out.self_ms[name];
    for (const auto op : traced) {
      const auto it = per_op.find(op);
      samples.push_back(it == per_op.end() ? 0.0
                                           : static_cast<double>(it->second) /
                                                 1e6);
    }
  }

  std::sort(op_intervals.begin(), op_intervals.end());
  std::int64_t union_ns = 0;
  std::int64_t cur_lo = 0;
  std::int64_t cur_hi = -1;
  for (const auto& [lo, hi] : op_intervals) {
    if (lo > cur_hi) {
      if (cur_hi >= cur_lo) union_ns += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (cur_hi >= cur_lo) union_ns += cur_hi - cur_lo;
  out.coverage = union_ns > 0 ? static_cast<double>(covered_ns) /
                                    static_cast<double>(union_ns)
                              : 0.0;
  return out;
}

void report_layers(const LayerTimes& layers,
                   const std::map<std::string, std::string>& metric_of,
                   Report& out) {
  for (const auto& [span, metric] : metric_of) {
    const auto it = layers.self_ms.find(span);
    const double ms = it == layers.self_ms.end() ? 0.0 : mean(it->second);
    const bool micro = metric.ends_with("_us");
    out.set(metric, micro ? ms * 1e3 : ms, micro ? "us" : "ms");
  }
  out.set("trace.coverage_pct", 100.0 * layers.coverage, "%");
}

// --- storage boundary ------------------------------------------------------

namespace {

std::uint64_t to_ns(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

class CountingFile : public fem2::db::VfsFile {
 public:
  CountingFile(std::unique_ptr<fem2::db::VfsFile> inner, CountingVfs& owner)
      : VfsFile(inner->path()), inner_(std::move(inner)), owner_(owner) {}

  std::size_t write_some(const char* data, std::size_t bytes) override {
    Scope span(owner_.tracer(), "db.vfs.write");
    const auto t0 = Clock::now();
    const std::size_t n = inner_->write_some(data, bytes);
    owner_.count_write(n, static_cast<std::int64_t>(to_ns(t0, Clock::now())));
    return n;
  }
  void sync() override {
    Scope span(owner_.tracer(), "db.vfs.sync");
    const auto t0 = Clock::now();
    inner_->sync();
    owner_.count_sync(static_cast<std::int64_t>(to_ns(t0, Clock::now())));
  }
  void truncate(std::uint64_t bytes) override { inner_->truncate(bytes); }
  std::uint64_t size() override { return inner_->size(); }

 private:
  std::unique_ptr<fem2::db::VfsFile> inner_;
  CountingVfs& owner_;
};

}  // namespace

CountingVfs::CountingVfs(std::shared_ptr<fem2::db::Vfs> inner, Tracer* tracer)
    : inner_(std::move(inner)), tracer_(tracer) {}

std::unique_ptr<fem2::db::VfsFile> CountingVfs::open_append(
    const std::string& path) {
  return std::make_unique<CountingFile>(inner_->open_append(path), *this);
}

std::unique_ptr<fem2::db::VfsFile> CountingVfs::create_truncate(
    const std::string& path) {
  return std::make_unique<CountingFile>(inner_->create_truncate(path), *this);
}

std::optional<std::string> CountingVfs::read_file(const std::string& path) {
  return inner_->read_file(path);
}

void CountingVfs::rename(const std::string& from, const std::string& to) {
  Scope span(tracer_, "db.vfs.rename");
  const auto t0 = Clock::now();
  inner_->rename(from, to);
  rename_ns_.fetch_add(to_ns(t0, Clock::now()), std::memory_order_relaxed);
}

void CountingVfs::dir_sync(const std::string& dir) {
  Scope span(tracer_, "db.vfs.sync");
  const auto t0 = Clock::now();
  inner_->dir_sync(dir);
  count_sync(static_cast<std::int64_t>(to_ns(t0, Clock::now())));
}

void CountingVfs::count_write(std::size_t bytes, std::int64_t ns) {
  write_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  write_ns_.fetch_add(static_cast<std::uint64_t>(ns),
                      std::memory_order_relaxed);
}

void CountingVfs::count_sync(std::int64_t ns) {
  syncs_.fetch_add(1, std::memory_order_relaxed);
  sync_ns_.fetch_add(static_cast<std::uint64_t>(ns),
                     std::memory_order_relaxed);
}

CountingVfs::Totals CountingVfs::totals() const {
  Totals t;
  t.write_bytes = write_bytes_.load();
  t.write_ms = static_cast<double>(write_ns_.load()) / 1e6;
  t.syncs = syncs_.load();
  t.sync_ms = static_cast<double>(sync_ns_.load()) / 1e6;
  t.rename_ms = static_cast<double>(rename_ns_.load()) / 1e6;
  return t;
}

void CountingVfs::report(const Totals& before, const Totals& after,
                         std::uint64_t ops, Report& out) {
  const double n = static_cast<double>(std::max<std::uint64_t>(ops, 1));
  out.set("db.write_ms", (after.write_ms - before.write_ms) / n, "ms");
  out.set("db.sync_ms", (after.sync_ms - before.sync_ms) / n, "ms");
  out.set("db.rename_ms", (after.rename_ms - before.rename_ms) / n, "ms");
  out.set("db.fsyncs_per_op",
          static_cast<double>(after.syncs - before.syncs) / n, "count");
  out.set("db.write_kb_per_op",
          static_cast<double>(after.write_bytes - before.write_bytes) /
              1024.0 / n,
          "KiB");
}

// --- the closed loop -------------------------------------------------------

Run::Run(const Args& args, bool rotate_cpus)
    : trace_(args.trace),
      seconds_(args.seconds),
      start_(Clock::now()) {
  const double warm_s = std::min(2.0, 0.1 * seconds_);
  warm_ = start_ + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(warm_s));
  end_ = start_ + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds_));
  cpu_set_t allowed;
  if (rotate_cpus && sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
    }
    if (cpus_.size() < 2) cpus_.clear();
  }
  next_move_ = start_;
}

bool Run::more() {
  const auto now = Clock::now();
  if (!cpus_.empty() && now >= next_move_) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_cpu_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);  // 0 = the calling thread
    next_move_ = now + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kCpuSlotS));
  }
  return now < end_;
}

bool Run::setup_due() const {
  // Probe k = 1..kSetupProbes is due at (k - 0.5)/kSetupProbes of the
  // run; setup_s_[0] is the initial set-up.
  const double elapsed = ms_between(start_, Clock::now()) / 1000.0;
  const auto due = static_cast<std::size_t>(
      std::min<double>(kSetupProbes,
                       std::floor(elapsed / seconds_ * kSetupProbes + 0.5)));
  return setup_s_.size() < due + 1;
}

bool Run::block_traced() const {
  const double elapsed = ms_between(start_, Clock::now()) / 1000.0;
  return trace_ && static_cast<long>(elapsed / 0.5) % 2 == 1;
}

void Run::record_op(std::uint64_t op, Clock::time_point start,
                    Clock::time_point end, bool ok, bool traced) {
  ++attempted_;
  if (!ok) ++failed_;
  if (traced) traced_ops_.push_back(op);
  if (start < warm_) return;
  if (first_warm_start_ == Clock::time_point{}) first_warm_start_ = start;
  last_end_ = end;
  (traced ? traced_ms_ : untraced_ms_).push_back(ms_between(start, end));
}

void Run::report(Report& out) const {
  const double min_untraced =
      untraced_ms_.empty()
          ? 0.0
          : *std::min_element(untraced_ms_.begin(), untraced_ms_.end());
  if (trace_) {
    const double min_traced =
        traced_ms_.empty()
            ? 0.0
            : *std::min_element(traced_ms_.begin(), traced_ms_.end());
    out.set("trace.overhead_pct",
            min_untraced > 0 ? 100.0 * (min_traced / min_untraced - 1.0) : 0.0,
            "%");
    return;
  }
  out.set("setup_s",
          setup_s_.empty() ? 0.0
                           : *std::min_element(setup_s_.begin(), setup_s_.end()),
          "s");
  out.set("setup_s_p50", median(setup_s_), "s");
  out.set("setup_count", static_cast<double>(setup_s_.size()), "count");
  out.set("op_ms_min", min_untraced, "ms");
  out.set("op_ms_p50", quantile(untraced_ms_, 0.50), "ms");
  out.set("op_ms_p95", quantile(untraced_ms_, 0.95), "ms");
  out.set("op_ms_p99", quantile(untraced_ms_, 0.99), "ms");
  out.set("ops", static_cast<double>(untraced_ms_.size()), "count");
  const double wall_ms = ms_between(first_warm_start_, last_end_) - pause_ms_;
  out.set("ops_per_s",
          wall_ms > 0 ? 1000.0 * static_cast<double>(untraced_ms_.size()) /
                            wall_ms
                      : 0.0,
          "1/s");
  out.set("ok_ratio",
          attempted_ > 0 ? static_cast<double>(attempted_ - failed_) /
                               static_cast<double>(attempted_)
                         : 0.0,
          "ratio");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
}

std::string fresh_directory(const std::string& root, const std::string& tag) {
  static int counter = 0;
  const std::filesystem::path dir =
      std::filesystem::path(root) /
      (tag + "-" + std::to_string(::getpid()) + "-" +
       std::to_string(counter++));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

void remove_directory(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench

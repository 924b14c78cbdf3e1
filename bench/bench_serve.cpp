// E14 — fem2-serve: group commit vs one-fsync-per-commit, and the
// snapshot query path.
//
// Part 1, the WAL discipline itself: 64 committing sessions (threads)
// hammer one persistent engine E11-style.  Classic mode pays one fsync
// per commit, serialized on the WAL tail; a batch window lets one
// leader fsync for everyone who arrived in time.  The headline metric —
// the speedup group commit buys at 64 sessions — is measured here, at
// the engine, where the fsync discipline is the only variable.
//
// Part 2, end to end: the same contrast through the full server stack
// (admission, per-session FIFOs, worker pool, appvm command
// interpreter).  Pipelined clients issue `store` commands; on a small
// host the interpreter's CPU cost caps the end-to-end ratio well below
// the WAL-level one, and the gap between the two tables is exactly that
// per-command overhead.
//
// Part 3, the read side: Server::query serves kind-index and full-scan
// filters on the caller's thread, never touching the queue or the WAL;
// we report per-query latency over the store the workload just built.
#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "db/engine.hpp"
#include "serve/server.hpp"

using namespace fem2;

namespace {

constexpr std::size_t kSessions = 64;
constexpr std::size_t kPayloadBytes = 256;
constexpr auto kWindow = std::chrono::microseconds(500);

std::size_t wal_ops_per_session() { return bench::smoke() ? 4 : 64; }
std::size_t wal_repeats() { return bench::smoke() ? 1 : 3; }
std::size_t serve_ops_per_session() { return bench::smoke() ? 8 : 64; }
std::size_t query_rounds() { return bench::smoke() ? 200 : 2000; }

struct RunResult {
  double elapsed_ms = 0.0;
  std::uint64_t commits = 0;
  std::uint64_t batches = 0;
  std::uint64_t max_batch = 0;
  double commits_per_s = 0.0;
  double query_us_kind = 0.0;
  double query_us_scan = 0.0;
};

db::EngineOptions engine_options(const std::filesystem::path& dir,
                                 std::chrono::microseconds window) {
  std::filesystem::remove_all(dir);
  db::EngineOptions options;
  options.directory = dir.string();
  options.compact_after_bytes = 0;
  options.group_commit_window = window;
  return options;
}

/// Part 1: `sessions` threads commit straight against the engine, each
/// an unconditional 256-byte store over a private name pool; window == 0 is
/// the classic one-fsync-per-commit discipline.
RunResult run_wal(const std::filesystem::path& dir, std::size_t sessions,
                  std::chrono::microseconds window) {
  db::Engine engine(engine_options(dir, window));
  const std::string payload(kPayloadBytes, 'g');
  const std::size_t per_session = wal_ops_per_session();

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(sessions);
  for (std::size_t s = 0; s < sessions; ++s) {
    threads.emplace_back([&engine, &payload, s, per_session] {
      for (std::size_t i = 0; i < per_session; ++i) {
        engine.put("wal-" + std::to_string(s) + "-" + std::to_string(i % 4),
                   "model", payload);
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto stop = std::chrono::steady_clock::now();

  RunResult result;
  result.elapsed_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  result.commits = sessions * per_session;
  const auto stats = engine.stats();
  result.batches = stats.group_batches;
  result.max_batch = stats.group_max_batch;
  result.commits_per_s =
      1000.0 * static_cast<double>(result.commits) / result.elapsed_ms;
  return result;
}

/// Part 2: the same contrast end to end — pipelined clients issue
/// `store` commands through admission, the FIFOs and the worker pool.
RunResult run_serve(const std::filesystem::path& dir, std::size_t sessions,
                    std::chrono::microseconds window) {
  auto engine = std::make_shared<db::Engine>(engine_options(dir, window));

  serve::ServerOptions sopts;
  // Commit batching needs committers in flight together, so the pool is
  // as wide as the session count (workers blocked in a batch fsync or on
  // the window's cv cost no CPU).
  sopts.workers = static_cast<unsigned>(std::min<std::size_t>(sessions, 64));
  sopts.queue_capacity = 8192;
  // The bench tenant legitimately keeps sessions * pipeline requests in
  // flight; quota rejections are a different experiment (the chaos one).
  sopts.default_quota.max_sessions = 128;
  sopts.default_quota.max_inflight = 8192;
  serve::Server server(engine, sopts);

  // Setup (untimed): one session per client, each with a small meshed
  // model so `store` has something to serialize.
  std::vector<std::uint64_t> ids;
  ids.reserve(sessions);
  for (std::size_t s = 0; s < sessions; ++s) {
    auto opened = server.open_session("bench", "user-" + std::to_string(s));
    if (opened.session == 0) throw std::runtime_error(opened.response.text);
    ids.push_back(opened.session);
    const auto meshed = server.call(opened.session, "mesh beam segments=1");
    if (!meshed.ok) throw std::runtime_error(meshed.text);
  }

  const std::size_t per_session = serve_ops_per_session();
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(sessions);
  for (std::size_t s = 0; s < sessions; ++s) {
    clients.emplace_back([&server, &ids, s, per_session] {
      // Pipelined client: keep a window of async submissions in flight
      // (the session FIFO preserves their order) instead of paying a
      // full round-trip per command.
      constexpr std::size_t kPipeline = 16;
      std::vector<std::future<appvm::Response>> inflight;
      inflight.reserve(kPipeline);
      auto drain = [&inflight] {
        for (auto& f : inflight) {
          const auto response = f.get();
          if (!response.ok) throw std::runtime_error(response.text);
        }
        inflight.clear();
      };
      for (std::size_t i = 0; i < per_session; ++i) {
        // Distinct per-session names: throughput, not CAS contention.
        const auto name = "e14-" + std::to_string(s) + "-" +
                          std::to_string(i % 4);
        inflight.push_back(server.submit(ids[s], "store " + name));
        if (inflight.size() == kPipeline) drain();
      }
      drain();
    });
  }
  for (auto& t : clients) t.join();
  const auto stop = std::chrono::steady_clock::now();

  RunResult result;
  result.elapsed_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  result.commits = sessions * per_session;
  const auto stats = engine->stats();
  result.batches = stats.group_batches;
  result.max_batch = stats.group_max_batch;
  result.commits_per_s =
      1000.0 * static_cast<double>(result.commits) / result.elapsed_ms;

  // Part 3: snapshot reads on the populated store (caller's thread).
  db::QueryFilter by_kind;
  by_kind.kind = "model";
  const auto q0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < query_rounds(); ++i) {
    (void)server.query(by_kind);
  }
  const auto q1 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < query_rounds(); ++i) {
    (void)server.query({});
  }
  const auto q2 = std::chrono::steady_clock::now();
  result.query_us_kind =
      std::chrono::duration<double, std::micro>(q1 - q0).count() /
      static_cast<double>(query_rounds());
  result.query_us_scan =
      std::chrono::duration<double, std::micro>(q2 - q1).count() /
      static_cast<double>(query_rounds());

  for (const auto id : ids) server.close_session(id);
  return result;
}

void table_row(support::Table& table, std::size_t sessions,
               const std::string& mode, const RunResult& result) {
  table.row()
      .cell(static_cast<std::uint64_t>(sessions))
      .cell(mode)
      .cell(result.commits)
      .cell(result.elapsed_ms, 1)
      .cell(result.commits_per_s, 0)
      .cell(result.batches)
      .cell(result.max_batch);
}

}  // namespace

int main(int argc, char** argv) {
  bench::init("E14", argc, argv);
  std::cout << "E14: fem2-serve group commit vs per-commit fsync\n"
            << "     " << kSessions << " sessions, "
            << kWindow.count() << " us batch window vs fsync on every "
            << "commit;\n     WAL discipline at the engine, then end to "
            << "end through the server\n\n";

  const auto base = std::filesystem::temp_directory_path() / "fem2_bench_serve";
  std::filesystem::remove_all(base);

  // --- Part 1: the WAL discipline at the engine -------------------------
  support::Table wal_table("engine commit throughput, 64 committing sessions");
  wal_table.set_header({"sessions", "mode", "commits", "elapsed-ms",
                        "commits/s", "batches", "max-batch"});
  // Best of N repeats: on a small shared host a single short run is at
  // the mercy of scheduler and device noise.
  auto best_wal = [&base](const std::string& tag,
                          std::chrono::microseconds window) {
    RunResult best;
    for (std::size_t r = 0; r < wal_repeats(); ++r) {
      const auto result =
          run_wal(base / (tag + std::to_string(r)), kSessions, window);
      if (result.commits_per_s > best.commits_per_s) best = result;
    }
    return best;
  };
  const auto wal_classic =
      best_wal("wal_classic", std::chrono::microseconds(0));
  const auto wal_grouped = best_wal("wal_grouped", kWindow);
  table_row(wal_table, kSessions, "classic", wal_classic);
  table_row(wal_table, kSessions, "grouped", wal_grouped);
  wal_table.print(std::cout);
  const double wal_speedup =
      wal_grouped.commits_per_s / wal_classic.commits_per_s;
  bench::note("wal_commits_per_s_s64_classic", wal_classic.commits_per_s,
              "commits/s");
  bench::note("wal_commits_per_s_s64_grouped", wal_grouped.commits_per_s,
              "commits/s");
  bench::note("group_speedup_s64", wal_speedup, "x");
  std::cout << "\n";

  // --- Part 2: end to end through the server ----------------------------
  support::Table serve_table("server commit throughput, pipelined clients");
  serve_table.set_header({"sessions", "mode", "commits", "elapsed-ms",
                          "commits/s", "batches", "max-batch"});
  const auto serve_16 = run_serve(base / "serve_s16_grouped", 16, kWindow);
  const auto serve_grouped = run_serve(base / "serve_s64_grouped", kSessions,
                                       kWindow);
  const auto serve_classic = run_serve(base / "serve_s64_classic", kSessions,
                                       std::chrono::microseconds(0));
  table_row(serve_table, 16, "grouped", serve_16);
  table_row(serve_table, kSessions, "grouped", serve_grouped);
  table_row(serve_table, kSessions, "classic", serve_classic);
  serve_table.print(std::cout);
  const double serve_speedup =
      serve_grouped.commits_per_s / serve_classic.commits_per_s;
  bench::note("serve_commits_per_s_s16_grouped", serve_16.commits_per_s,
              "commits/s");
  bench::note("serve_commits_per_s_s64_grouped", serve_grouped.commits_per_s,
              "commits/s");
  bench::note("serve_commits_per_s_s64_classic", serve_classic.commits_per_s,
              "commits/s");
  bench::note("serve_group_speedup_s64", serve_speedup, "x");
  bench::note("query_us_kind_index", serve_grouped.query_us_kind, "us");
  bench::note("query_us_scan", serve_grouped.query_us_scan, "us");

  std::filesystem::remove_all(base);

  std::cout << "\nReading: classic mode serializes one fsync per commit on\n"
               "the WAL tail, so 64 sessions queue behind the device, while\n"
               "the window lets one leader fsync for the whole cohort: "
            << wal_speedup << "x at the engine.\nEnd to end the interpreter's "
               "per-command CPU narrows that to " << serve_speedup
            << "x\non this host; the queries ride the snapshot path and "
               "never block.\n";
  if (!bench::smoke() && wal_speedup < 5.0) {
    std::cout << "FAIL: expected >= 5x group-commit speedup at 64 sessions\n";
    bench::finish();
    return 1;
  }
  return bench::finish();
}

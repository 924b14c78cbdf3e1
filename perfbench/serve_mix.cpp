// serve_mix: one engineer's edit cycle through the multi-tenant server.
// A serve::Server with 2 workers runs over a db::Engine with 16
// sessions in 2 tenants, each holding an 8x4 plate model.  An op pipelines
// retrieve / solve / begin / store if-rev=head / store results / commit
// into one session's FIFO, then reads the model index and the session's
// history on the client thread.  Two ops are in flight, on distinct
// sessions.  serve, appvm's interpreter and db's small transactional
// writes beside indexed reads do the work here.
//
// The cycle stores the model it retrieved unchanged (no `load` command,
// which appends), so every stored model keeps its size from op to op.
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <set>

#include "appvm/command.hpp"
#include "appvm/database.hpp"
#include "db/engine.hpp"
#include "db/query.hpp"
#include "harness.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

using namespace fem2;

constexpr std::size_t kSessions = 16;
constexpr std::size_t kInFlight = 2;
constexpr std::size_t kHistoryLimit = 8;  ///< db::EngineOptions default

/// The six pipelined commands of an op, by the verb names the per-layer
/// metrics use.
constexpr std::size_t kVerbs = 6;
constexpr const char* kWaitSpan[kVerbs] = {
    "serve.wait.retrieve", "serve.wait.solve",         "serve.wait.begin",
    "serve.wait.store",    "serve.wait.store_results", "serve.wait.commit"};
constexpr const char* kExecSpan[kVerbs] = {
    "appvm.exec.retrieve", "appvm.exec.solve",         "appvm.exec.begin",
    "appvm.exec.store",    "appvm.exec.store_results", "appvm.exec.commit"};
constexpr const char* kVerb[kVerbs] = {"retrieve", "solve",         "begin",
                                       "store",    "store_results", "commit"};

struct Session {
  std::uint64_t id = 0;
  std::string tenant;
  std::string model;
  std::string results;
  std::uint64_t revision = 0;  ///< model revision this session last committed
  std::uint64_t commits = 0;   ///< commits that wrote the model

  std::vector<std::string> cycle() const {
    return {"retrieve " + model,
            "solve tip-shear using pcg",
            "begin",
            "store " + model + " if-rev=head",
            "store results " + results,
            "commit"};
  }
};

struct State {
  std::string dir;
  std::shared_ptr<CountingVfs> vfs;  ///< traced run only
  std::shared_ptr<db::Engine> engine;
  std::unique_ptr<serve::Server> server;
  std::vector<Session> sessions;

  State() = default;
  State(const State&) = delete;
  State& operator=(const State&) = delete;
  ~State() {
    server.reset();
    engine.reset();
    remove_directory(dir);
  }
};

std::string load_text(double load) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", load);
  return buf;
}

std::unique_ptr<State> build_state(const Args& args, Tracer* tracer,
                                   const std::vector<double>& scales) {
  auto s = std::make_unique<State>();
  s->dir = fresh_directory(args.work_dir + "/data", "serve_mix");
  // Defaults (no group commit, 4 MiB checkpoints), except that commits
  // are not fsynced: an op's fastest time would otherwise carry one
  // fsync, and on the ext4 VM the bounds were set on, the fsync floor rose
  // by 30-50% for minutes at a time, more than the op_ms_min bound.
  // host_solve keeps the fsync.
  db::EngineOptions options;
  options.sync_on_commit = false;
  options.directory = s->dir;
  if (tracer != nullptr) {
    s->vfs = std::make_shared<CountingVfs>(db::Vfs::posix(), tracer);
    options.vfs = s->vfs;
  }
  s->engine = std::make_shared<db::Engine>(options);
  serve::ServerOptions server_options;
  server_options.workers = 2;
  s->server = std::make_unique<serve::Server>(s->engine, server_options);
  for (std::size_t i = 0; i < kSessions; ++i) {
    Session session;
    session.tenant = i < kSessions / 2 ? "t0" : "t1";
    const auto opened = s->server->open_session(session.tenant,
                                                "u" + std::to_string(i));
    if (opened.session == 0)
      throw std::runtime_error("open_session: " + opened.response.text);
    session.id = opened.session;
    session.model = session.tenant + "-m" + std::to_string(i);
    session.results = session.model + "-res";
    for (const std::string& line :
         {"mesh plate nx=8 ny=4 load=" + load_text(1'000.0 * scales[i]),
          "store " + session.model}) {
      const auto response = s->server->call(session.id, line);
      if (!response.ok)
        throw std::runtime_error(line + ": " + response.text);
    }
    session.revision = 1;
    session.commits = 1;
    s->sessions.push_back(std::move(session));
  }
  return s;
}

struct InFlight {
  std::uint64_t op = 0;
  std::size_t session = 0;
  bool traced = false;
  Clock::time_point start;
  std::int64_t start_ns = 0;
  std::vector<std::future<appvm::Response>> futures;
};

std::uint64_t revision_in(const std::string& text) {
  const auto at = text.find(" rev ");
  if (at == std::string::npos) return 0;
  return std::strtoull(text.c_str() + at + 5, nullptr, 10);
}

}  // namespace

Outcome run_serve_mix(const Args& args) {
  Tracer tracer;
  tracer.name_thread("client");
  Tracer* const vfs_tracer = args.trace ? &tracer : nullptr;
  Run run(args, /*rotate_cpus=*/false);
  std::mt19937_64 rng(args.seed);
  std::uniform_int_distribution<int> exponent(-7, 5);
  std::vector<double> scales(kSessions);
  for (double& s : scales) s = std::ldexp(1.0, exponent(rng));
  std::vector<std::size_t> order(kSessions);
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);

  const auto state =
      run.time_setup([&] { return build_state(args, vfs_tracer, scales); });
  serve::Server& server = *state->server;
  std::set<std::string> models;
  for (const auto& s : state->sessions) models.insert(s.model);
  const auto vfs_before =
      state->vfs ? state->vfs->totals() : CountingVfs::Totals{};
  const auto checkpoints_before = state->engine->stats().checkpoints;

  std::deque<InFlight> inflight;
  std::uint64_t next_op = 1;
  std::size_t next_slot = 0;
  std::uint64_t ops = 0;
  bool block = false;

  auto submit = [&] {
    InFlight f;
    f.op = next_op++;
    f.session = order[next_slot++ % kSessions];
    f.traced = block;
    Tracer::set_thread_op(f.op);
    f.start = Clock::now();
    f.start_ns = tracer.now_ns();
    const auto lines = state->sessions[f.session].cycle();
    {
      Scope span(f.traced ? &tracer : nullptr, "serve.submit");
      for (const auto& line : lines)
        f.futures.push_back(server.submit(state->sessions[f.session].id, line));
    }
    inflight.push_back(std::move(f));
  };

  auto complete = [&] {
    InFlight f = std::move(inflight.front());
    inflight.pop_front();
    Tracer* const t = f.traced ? &tracer : nullptr;
    Tracer::set_thread_op(f.op);
    Session& session = state->sessions[f.session];
    appvm::Response responses[kVerbs];
    for (std::size_t i = 0; i < kVerbs; ++i) {
      Scope span(t, kWaitSpan[i]);
      responses[i] = f.futures[i].get();
    }
    db::QueryResult index;
    {
      Scope span(t, "db.query");
      db::QueryFilter filter;
      filter.kind = "model";
      index = server.query(filter);
    }
    std::vector<appvm::DatabaseVersionInfo> history;
    {
      Scope span(t, "db.history");
      history = server.history(session.model);
    }
    const auto end = Clock::now();
    if (t != nullptr) tracer.add("op", f.start_ns, tracer.now_ns(), f.op);

    // Output checks, outside the timed region.
    bool ok = true;
    for (const auto& r : responses) ok = ok && r.ok;
    ok = ok && revision_in(responses[0].text) == session.revision;
    if (responses[5].ok) {
      ++session.revision;
      ++session.commits;
    }
    ok = ok && history.size() == std::min(session.commits, kHistoryLimit);
    std::set<std::string> seen;
    for (const auto& row : index.rows) seen.insert(row.name);
    ok = ok && index.rows.size() == models.size() && seen == models;
    ++ops;
    run.record_op(f.op, f.start, end, ok, f.traced);
  };

  auto drain = [&] {
    while (!inflight.empty()) complete();
  };

  // Replays run every session's edit cycle twice with nothing else in
  // flight: once command by command through Server::call, and once
  // through a private appvm::Session on the same engine.  The direct run
  // gives appvm.exec_ms.<verb>; serve.overhead_us compares the two per
  // verb by medians, since a commit that triggers a checkpoint is far
  // slower than the rest.  Which of the two runs first alternates from
  // session to session, so neither always finds warm caches.
  std::vector<double> exec_ms[kVerbs];
  std::vector<double> call_ms[kVerbs];
  std::uint64_t replays = 0;
  std::uint64_t replays_failed = 0;
  appvm::Database facade(state->engine);
  auto replay_cycle = [&](const Session& session, bool served) {
    std::optional<appvm::Session> local;
    if (!served) local.emplace(facade, "replay", session.tenant);
    const auto lines = session.cycle();
    bool ok = true;
    for (std::size_t i = 0; i < kVerbs; ++i) {
      Scope span(&tracer, served ? "serve.call" : kExecSpan[i]);
      const auto t0 = Clock::now();
      const auto response = served ? server.call(session.id, lines[i])
                                   : local->execute(lines[i]);
      (served ? call_ms : exec_ms)[i].push_back(ms_between(t0, Clock::now()));
      ok = ok && response.ok &&
           (i != 0 || revision_in(response.text) == session.revision);
    }
    return ok;
  };
  auto replay = [&] {
    tracer.set_on(true);
    Tracer::set_thread_op(0);
    for (std::size_t i = 0; i < state->sessions.size(); ++i) {
      Session& session = state->sessions[i];
      const bool served_first = i % 2 == 0;
      for (const bool served : {served_first, !served_first}) {
        if (!replay_cycle(session, served)) ++replays_failed;
        ++session.revision;
        ++session.commits;
        ++replays;
      }
    }
    tracer.set_on(false);
  };

  while (run.more()) {
    if (run.setup_due()) {
      drain();
      const auto t0 = Clock::now();
      {
        const auto probe = run.time_setup(
            [&] { return build_state(args, nullptr, scales); });
      }
      run.add_pause(ms_between(t0, Clock::now()));
      continue;
    }
    if (run.block_switch_due(block)) {
      drain();
      if (block) {
        const auto t0 = Clock::now();
        replay();
        run.add_pause(ms_between(t0, Clock::now()));
      }
      block = !block;
      tracer.set_on(block);
      continue;
    }
    while (inflight.size() < kInFlight) submit();
    complete();
  }
  drain();
  tracer.set_on(false);
  if (args.trace && replays == 0) replay();

  Outcome out;
  // Replays are edit cycles too, checked the same way.
  out.attempted = run.attempted() + replays;
  out.failed = run.failed() + replays_failed;
  run.report(out.report);
  const auto stats = server.stats();
  std::cout << "serve_mix: " << ops << " ops, peak queue "
            << stats.peak_queue_depth << ", rejected "
            << stats.rejected_quota + stats.rejected_overload << "\n";
  if (!args.trace) return out;

  const auto layers = layer_times(tracer.spans(), "op", run.traced_ops(), 1);
  std::map<std::string, std::string> metric_of = {
      {"serve.submit", "serve.submit_us"},
      {"db.query", "db.query_us"},
      {"db.history", "db.history_us"}};
  for (std::size_t i = 0; i < kVerbs; ++i)
    metric_of[kWaitSpan[i]] = std::string("serve.wait_ms.") + kVerb[i];
  report_layers(layers, metric_of, out.report);
  for (std::size_t i = 0; i < kVerbs; ++i)
    out.report.set(std::string("appvm.exec_ms.") + kVerb[i],
                   mean(exec_ms[i]), "ms");

  double overhead_ms = 0.0;
  for (std::size_t i = 0; i < kVerbs; ++i)
    overhead_ms += median(call_ms[i]) - median(exec_ms[i]);
  out.report.set("serve.overhead_us", 1e3 * overhead_ms / kVerbs, "us");
  out.report.set("serve.peak_queue",
                 static_cast<double>(stats.peak_queue_depth), "count");
  out.report.set(
      "serve.rejected",
      static_cast<double>(stats.rejected_quota + stats.rejected_overload),
      "count");
  CountingVfs::report(vfs_before, state->vfs->totals(), ops + replays,
                      out.report);
  out.report.set(
      "db.checkpoints",
      static_cast<double>(state->engine->stats().checkpoints -
                          checkpoints_before),
      "count");
  tracer.write_chrome_json(args.work_dir + "/trace-serve_mix.json");
  return out;
}

}  // namespace perfbench

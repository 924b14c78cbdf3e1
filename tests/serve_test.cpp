// fem2-serve tests: admission control (session caps, inflight caps, a
// deterministically-clocked token bucket), the actor-model scheduling
// invariant (per-session FIFO order on a shared worker pool), overload
// and shutdown behavior, the snapshot read path, the refusal of host-file
// commands (save, open) in served sessions, and a concurrent
// multi-tenant stress that the tsan CI job runs with a real pool.
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "appvm/command.hpp"
#include "db/engine.hpp"
#include "serve/admission.hpp"
#include "serve/server.hpp"

using namespace fem2;
using appvm::Response;
using serve::Admit;
using serve::AdmissionController;
using serve::Server;
using serve::ServerOptions;
using serve::TenantQuota;

namespace {

/// A hand-cranked clock for driving token buckets without sleeping.
struct FakeClock {
  std::chrono::steady_clock::time_point now{};
  AdmissionController::Clock fn() {
    return [this] { return now; };
  }
  void advance(std::chrono::milliseconds by) { now += by; }
};

std::shared_ptr<db::Engine> memory_engine() {
  return std::make_shared<db::Engine>();
}

ServerOptions small_pool(unsigned workers = 2) {
  ServerOptions options;
  options.workers = workers;
  return options;
}

}  // namespace

// ---------------------------------------------------------------------------
// AdmissionController in isolation

TEST(Admission, SessionCapIsPerTenant) {
  AdmissionController admission({.max_sessions = 2});
  EXPECT_EQ(admission.admit_session("acme"), Admit::Ok);
  EXPECT_EQ(admission.admit_session("acme"), Admit::Ok);
  EXPECT_EQ(admission.admit_session("acme"), Admit::SessionLimit);
  // Another tenant is unaffected by acme's cap.
  EXPECT_EQ(admission.admit_session("globex"), Admit::Ok);
  admission.release_session("acme");
  EXPECT_EQ(admission.admit_session("acme"), Admit::Ok);
}

TEST(Admission, InflightCapReleasesOnCompletion) {
  AdmissionController admission({.max_inflight = 2});
  EXPECT_EQ(admission.admit_request("acme"), Admit::Ok);
  EXPECT_EQ(admission.admit_request("acme"), Admit::Ok);
  EXPECT_EQ(admission.admit_request("acme"), Admit::InflightLimit);
  admission.complete_request("acme");
  EXPECT_EQ(admission.admit_request("acme"), Admit::Ok);
  const auto stats = admission.stats_for("acme");
  EXPECT_EQ(stats.inflight, 2u);
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.rejected, 1u);
}

TEST(Admission, TokenBucketRefillsFromInjectedClock) {
  FakeClock clock;
  TenantQuota quota;
  quota.ops_per_second = 10.0;  // one token per 100ms
  quota.burst = 2.0;
  AdmissionController admission(quota, clock.fn());

  // The bucket primes full: exactly `burst` requests pass, then rate.
  EXPECT_EQ(admission.admit_request("acme"), Admit::Ok);
  EXPECT_EQ(admission.admit_request("acme"), Admit::Ok);
  EXPECT_EQ(admission.admit_request("acme"), Admit::RateLimit);

  clock.advance(std::chrono::milliseconds(100));  // +1 token
  EXPECT_EQ(admission.admit_request("acme"), Admit::Ok);
  EXPECT_EQ(admission.admit_request("acme"), Admit::RateLimit);

  // Refill is capped at the burst size, not the elapsed time.
  clock.advance(std::chrono::milliseconds(10'000));
  EXPECT_EQ(admission.admit_request("acme"), Admit::Ok);
  EXPECT_EQ(admission.admit_request("acme"), Admit::Ok);
  EXPECT_EQ(admission.admit_request("acme"), Admit::RateLimit);
}

TEST(Admission, QuotaOverridesArePerTenant) {
  AdmissionController admission({.max_sessions = 64});
  admission.set_quota("small", {.max_sessions = 1});
  EXPECT_EQ(admission.quota_for("small").max_sessions, 1u);
  EXPECT_EQ(admission.quota_for("other").max_sessions, 64u);
  EXPECT_EQ(admission.admit_session("small"), Admit::Ok);
  EXPECT_EQ(admission.admit_session("small"), Admit::SessionLimit);
}

// ---------------------------------------------------------------------------
// Server: session lifecycle and quota classification

TEST(Serve, SessionQuotaAnswersQuotaExceeded) {
  auto engine = memory_engine();
  ServerOptions options = small_pool();
  options.default_quota.max_sessions = 1;
  Server server(engine, options);

  const auto first = server.open_session("acme", "alice");
  ASSERT_NE(first.session, 0u);
  const auto second = server.open_session("acme", "bob");
  EXPECT_EQ(second.session, 0u);
  EXPECT_FALSE(second.response.ok);
  EXPECT_EQ(second.response.kind, Response::FailureKind::QuotaExceeded);
  EXPECT_TRUE(Response::retryable(second.response.kind));

  // Closing the first session frees the slot.
  EXPECT_TRUE(server.close_session(first.session).ok);
  EXPECT_NE(server.open_session("acme", "bob").session, 0u);
  EXPECT_EQ(server.stats().sessions_rejected, 1u);
}

TEST(Serve, UnknownSessionIsNotRetryable) {
  Server server(memory_engine(), small_pool());
  const auto response = server.call(999, "list");
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.kind, Response::FailureKind::Other);
  EXPECT_FALSE(Response::retryable(response.kind));
  EXPECT_FALSE(server.close_session(999).ok);
}

TEST(Serve, RateLimitedCallRetriesViaInjectedSleeper) {
  auto clock = std::make_shared<FakeClock>();
  auto engine = memory_engine();
  ServerOptions options = small_pool();
  options.admission_clock = clock->fn();
  options.default_quota.ops_per_second = 1.0;  // one token, slow refill
  options.default_quota.burst = 1.0;
  options.retry_policy.max_attempts = 16;
  options.retry_policy.initial_backoff = std::chrono::milliseconds(200);
  options.retry_policy.max_backoff = std::chrono::milliseconds(800);
  Server server(engine, options);
  // The retry backoff advances the fake clock instead of sleeping, so the
  // bucket refills exactly as fast as the client backs off.
  std::atomic<int> sleeps{0};
  server.set_sleeper([clock, &sleeps](std::chrono::microseconds delay) {
    sleeps += 1;
    clock->advance(std::chrono::duration_cast<std::chrono::milliseconds>(
        delay * 40));
  });

  const auto opened = server.open_session("acme", "alice");
  ASSERT_NE(opened.session, 0u);
  EXPECT_TRUE(server.call_with_retry(opened.session, "list").ok);
  // Token spent; the next call must be rate-limited at least once, then
  // succeed after backoff refills the bucket.
  EXPECT_TRUE(server.call_with_retry(opened.session, "list").ok);
  EXPECT_GE(sleeps.load(), 1);
  EXPECT_GE(server.stats().rejected_quota, 1u);
  // `executed` trails the future by one lock acquisition; `submitted`
  // counts at accept time and is exact here.
  EXPECT_EQ(server.stats().submitted, 2u);
}

// ---------------------------------------------------------------------------
// Scheduling: per-session FIFO on a shared pool

TEST(Serve, SessionCommandsExecuteInSubmissionOrder) {
  auto engine = memory_engine();
  Server server(engine, small_pool(4));
  const auto opened = server.open_session("acme", "alice");
  ASSERT_NE(opened.session, 0u);

  // Async-submit interleaved (re-mesh, store) pairs without waiting.
  // FIFO execution means version k of "obj" was built by mesh k; any
  // reordering pairs a store with the wrong mesh and the byte sizes —
  // compared against a serial reference below — give it away.
  constexpr std::size_t kRounds = 8;
  std::vector<std::future<Response>> futures;
  for (std::size_t round = 0; round < kRounds; ++round) {
    const std::string mesh =
        "mesh truss bays=" + std::to_string(2 + (round % 4)) +
        " load=" + std::to_string(100 + round);
    futures.push_back(server.submit(opened.session, mesh));
    futures.push_back(server.submit(opened.session, "store obj"));
  }
  for (auto& future : futures) EXPECT_TRUE(future.get().ok);

  appvm::Database reference;  // serial re-run of the same command script
  appvm::Session serial(reference, "ref");
  for (std::size_t round = 0; round < kRounds; ++round) {
    serial.execute("mesh truss bays=" + std::to_string(2 + (round % 4)) +
                   " load=" + std::to_string(100 + round));
    serial.execute("store obj");
  }
  const auto actual = server.history("obj");
  const auto expected = reference.history("obj");
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].revision, expected[i].revision);
    EXPECT_EQ(actual[i].bytes, expected[i].bytes) << "reordered at " << i;
  }
}

TEST(Serve, SessionsCannotReachHostFiles) {
  namespace fs = std::filesystem;
  const fs::path unwritten =
      fs::path(::testing::TempDir()) / "fem2_serve_save_refused.txt";
  const fs::path model_file =
      fs::path(::testing::TempDir()) / "fem2_serve_open_refused.txt";
  fs::remove(unwritten);
  // A console session still writes model files.
  appvm::Database local;
  appvm::Session console(local);
  ASSERT_TRUE(console.execute("mesh truss bays=3 load=50").ok);
  ASSERT_TRUE(console.execute("save " + model_file.string()).ok);
  ASSERT_TRUE(fs::exists(model_file));

  Server server(memory_engine(), small_pool());
  const auto opened = server.open_session("acme", "alice");
  ASSERT_NE(opened.session, 0u);
  ASSERT_TRUE(server.call(opened.session, "mesh plate nx=2 ny=2").ok);
  const std::string before = server.call(opened.session, "show model").text;

  for (const std::string& line :
       {"save " + unwritten.string(), " \tsave " + unwritten.string()}) {
    const Response saved = server.call(opened.session, line);
    EXPECT_FALSE(saved.ok) << line;
    EXPECT_EQ(saved.kind, Response::FailureKind::Other) << line;
  }
  EXPECT_FALSE(fs::exists(unwritten));

  const Response read =
      server.call(opened.session, "open " + model_file.string());
  EXPECT_FALSE(read.ok);
  EXPECT_EQ(read.kind, Response::FailureKind::Other);
  // The workspace still holds the plate, not the file's truss.
  EXPECT_EQ(server.call(opened.session, "show model").text, before);
  fs::remove(model_file);
}

TEST(Serve, OversizedMeshFailsBeforeBuilding) {
  // Served sessions share the console's mesh size limit: sizes far beyond
  // it (one overflows 64 bits) fail before any model is built, and the
  // session's workspace keeps its model.
  Server server(memory_engine(), small_pool());
  const auto opened = server.open_session("acme", "alice");
  ASSERT_NE(opened.session, 0u);
  ASSERT_TRUE(server.call(opened.session, "mesh truss bays=3 load=50").ok);
  const std::string before = server.call(opened.session, "show model").text;
  for (const char* line : {"mesh plate nx=4294967296 ny=4294967296",
                           "mesh plate nx=100000 ny=100000",
                           "mesh beam segments=1000000000000",
                           "mesh truss bays=1000000000000"}) {
    const Response r = server.call(opened.session, line);
    EXPECT_FALSE(r.ok) << line;
    EXPECT_EQ(r.kind, Response::FailureKind::Other) << line;
    EXPECT_NE(r.text.find(std::to_string(appvm::Session::kMaxMeshNodes)),
              std::string::npos)
        << r.text;
    EXPECT_EQ(server.call(opened.session, "show model").text, before) << line;
  }
}

TEST(Serve, DensePathsRefuseOversizedModelsBeforeDensifying) {
  // Served sessions share the console's dense dof limit: `solve using
  // cholesky` and `modes` on a model past it fail at once (a 7,500-dof
  // dense matrix alone would be 450 MB), and the session keeps its model
  // and results.
  Server server(memory_engine(), small_pool());
  const auto opened = server.open_session("acme", "alice");
  ASSERT_NE(opened.session, 0u);
  for (const auto& [mesh, load_set] :
       {std::pair<const char*, const char*>{"mesh beam segments=500", "tip"},
        {"mesh beam segments=2499", "tip"},
        {"mesh plate nx=49 ny=49", "tip-shear"},
        {"mesh truss bays=376", "deck"}}) {
    ASSERT_TRUE(server.call(opened.session, mesh).ok) << mesh;
    const std::string solve = std::string("solve ") + load_set;
    ASSERT_TRUE(server.call(opened.session, solve + " using skyline").ok);
    const std::string model = server.call(opened.session, "show model").text;
    const std::string results =
        server.call(opened.session, "show displacements").text;
    for (const std::string& line :
         {solve + " using cholesky", std::string("modes"),
          std::string("modes 3")}) {
      const Response r = server.call(opened.session, line);
      EXPECT_FALSE(r.ok) << mesh << ": " << line;
      EXPECT_EQ(r.kind, Response::FailureKind::Other) << line;
      EXPECT_NE(r.text.find(std::to_string(appvm::Session::kMaxDenseDofs)),
                std::string::npos)
          << r.text;
      EXPECT_EQ(server.call(opened.session, "show model").text, model);
      EXPECT_EQ(server.call(opened.session, "show displacements").text,
                results);
    }
  }
}

TEST(Serve, ModeCountsAboveTheLimitFailBeforeAssembling) {
  // Served sessions share the console's mode count limit; a refused count
  // is answered before the model is looked at and leaves it as it was.
  Server server(memory_engine(), small_pool());
  const auto opened = server.open_session("acme", "alice");
  ASSERT_NE(opened.session, 0u);
  const std::string over =
      std::to_string(appvm::Session::kMaxModes + 1);
  const std::string limit =
      std::to_string(appvm::Session::kMaxModes) + " modes";
  const auto refuse_all = [&] {
    for (const std::string& line :
         {"modes " + over, std::string("modes 1000"),
          std::string("modes 18446744073709551615")}) {
      const Response r = server.call(opened.session, line);
      EXPECT_FALSE(r.ok) << line;
      EXPECT_EQ(r.kind, Response::FailureKind::Other) << line;
      EXPECT_NE(r.text.find(limit), std::string::npos) << r.text;
    }
  };
  refuse_all();
  ASSERT_TRUE(
      server.call(opened.session, "mesh beam segments=10 length=1 load=5").ok);
  const std::string model = server.call(opened.session, "show model").text;
  refuse_all();
  EXPECT_EQ(server.call(opened.session, "show model").text, model);
  const Response at_limit = server.call(
      opened.session, "modes " + std::to_string(appvm::Session::kMaxModes));
  EXPECT_TRUE(at_limit.ok) << at_limit.text;
}

TEST(Serve, FullQueueAnswersOverloaded) {
  auto engine = memory_engine();
  ServerOptions options = small_pool(1);
  options.queue_capacity = 1;
  Server server(engine, options);
  const auto opened = server.open_session("acme", "alice");
  ASSERT_NE(opened.session, 0u);

  // With room for one queued request, a back-to-back pair must
  // eventually trip the overload answer (the worker can steal the first
  // request between the two submits, so loop a bounded number of times).
  bool overloaded = false;
  for (int i = 0; i < 1000 && !overloaded; ++i) {
    auto first = server.submit(opened.session, "list");
    auto second = server.submit(opened.session, "list");
    for (Response response : {first.get(), second.get()}) {
      if (!response.ok) {
        EXPECT_EQ(response.kind, Response::FailureKind::Overloaded);
        EXPECT_TRUE(Response::retryable(response.kind));
        overloaded = true;
      }
    }
  }
  EXPECT_TRUE(overloaded);
  EXPECT_GE(server.stats().rejected_overload, 1u);
}

TEST(Serve, CloseSessionDrainsItsQueue) {
  auto engine = memory_engine();
  Server server(engine, small_pool());
  const auto opened = server.open_session("acme", "alice");
  ASSERT_NE(opened.session, 0u);

  server.submit(opened.session, "mesh truss bays=3 load=50");
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 10; ++i)
    futures.push_back(server.submit(opened.session, "store obj"));
  EXPECT_TRUE(server.close_session(opened.session).ok);

  // Everything submitted before the close ran to completion...
  for (auto& future : futures) EXPECT_TRUE(future.get().ok);
  EXPECT_EQ(engine->revision_of("obj"), 10u);
  // ...and the slot is free again.
  EXPECT_EQ(server.stats().open_sessions, 0u);
  EXPECT_NE(server.open_session("acme", "bob").session, 0u);
}

TEST(Serve, DestructorDrainsAcceptedWork) {
  auto engine = memory_engine();
  std::vector<std::future<Response>> futures;
  {
    Server server(engine, small_pool());
    const auto opened = server.open_session("acme", "alice");
    ASSERT_NE(opened.session, 0u);
    server.submit(opened.session, "mesh truss bays=2 load=10");
    for (int i = 0; i < 5; ++i)
      futures.push_back(server.submit(opened.session, "store obj"));
  }
  // Accepted futures must all resolve — a shutdown never drops work.
  for (auto& future : futures) EXPECT_TRUE(future.get().ok);
  EXPECT_EQ(engine->revision_of("obj"), 5u);
}

// ---------------------------------------------------------------------------
// Snapshot read path

TEST(Serve, QueryBypassesTheQueue) {
  auto engine = memory_engine();
  Server server(engine, small_pool());
  const auto opened = server.open_session("acme", "alice");
  ASSERT_NE(opened.session, 0u);
  EXPECT_TRUE(server.call(opened.session, "mesh truss bays=3 load=50").ok);
  EXPECT_TRUE(server.call(opened.session, "store bridge").ok);
  EXPECT_TRUE(server.call(opened.session, "store bridge-deck").ok);

  db::QueryFilter filter;
  filter.name_prefix = "bridge";
  const auto result = server.query(filter);
  EXPECT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.plan, "name-range");
  // The snapshot path never counts against the request queue.
  EXPECT_EQ(server.stats().submitted, 3u);
  EXPECT_EQ(server.history("bridge").size(), 1u);
}

// ---------------------------------------------------------------------------
// Concurrent multi-tenant stress (exercised under tsan in CI)

TEST(Serve, ConcurrentTenantsKeepRevisionInvariant) {
  auto engine = memory_engine();
  ServerOptions options = small_pool(4);
  options.retry_policy.max_attempts = 128;
  options.retry_policy.initial_backoff = std::chrono::microseconds(50);
  options.retry_policy.max_backoff = std::chrono::microseconds(1000);
  Server server(engine, options);

  constexpr std::size_t kClients = 8;
  constexpr std::size_t kOps = 25;
  std::atomic<std::uint64_t> acked_stores{0};
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const std::string tenant = c % 2 ? "acme" : "globex";
      const auto opened =
          server.open_session(tenant, "user-" + std::to_string(c));
      if (opened.session == 0) {
        failures += 1;
        return;
      }
      server.call(opened.session,
                  "mesh truss bays=" + std::to_string(2 + c % 3) +
                      " load=" + std::to_string(10 + c));
      for (std::size_t op = 0; op < kOps; ++op) {
        // CAS store on one contested name: the retry loop must absorb
        // every conflict; only genuine failures count.
        const auto r =
            server.call_with_retry(opened.session, "store contested"
                                                   " if-rev=head");
        if (r.ok)
          acked_stores += 1;
        else
          failures += 1;
        if (op % 5 == 0) server.query({});
      }
      server.close_session(opened.session);
    });
  }
  for (auto& client : clients) client.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(acked_stores.load(), kClients * kOps);
  // The invariant that makes "no lost writes" concrete: every acked CAS
  // bumped the revision exactly once.
  EXPECT_EQ(engine->revision_of("contested"), kClients * kOps);
  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, stats.executed);
  EXPECT_EQ(stats.open_sessions, 0u);
}

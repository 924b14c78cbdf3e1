// fem2-serve: the multi-tenant server front-end.
//
// A Server multiplexes many concurrent sessions onto a fixed worker pool.
// Each open session owns a private appvm::Session (workspace + command
// interpreter) and a FIFO of submitted command lines; sessions with
// pending work sit in a ready queue that the workers drain.  The
// scheduling invariant is the actor model's: a session is owned by at
// most one worker at a time, so its commands execute in submission order
// with no locking inside the command interpreter.
//
// An idle worker spins briefly (with yield) on the ready count for
// latency, then parks on a condition variable for the idle tail.  Pool
// width honors FEM2_HOST_THREADS.
//
// Admission control runs before anything is queued: per-tenant session,
// inflight and rate quotas (admission.hpp) answer QuotaExceeded, and a
// full global queue answers Overloaded — both retryable kinds, so
// call_with_retry (and a thin client's execute_with_retry) backs off and
// re-submits under the shared db::RetryPolicy.
//
// Reads that touch no workspace — query/retrieve-style lookups — have a
// dedicated snapshot path (Server::query, Server::history) served on the
// caller's thread straight from the engine's indexes: they never enter
// the queue, never touch the WAL, and never wait on a group commit's
// fsync.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "appvm/command.hpp"
#include "appvm/database.hpp"
#include "db/query.hpp"
#include "db/retry.hpp"
#include "serve/admission.hpp"

namespace fem2::serve {

struct ServerOptions {
  /// Worker pool width; 0 = FEM2_HOST_THREADS, else hardware concurrency
  /// (clamped to [1, 256]).
  unsigned workers = 0;
  /// Global bound on queued requests across all sessions; a full queue
  /// answers Overloaded instead of buffering without limit.
  std::size_t queue_capacity = 1024;
  /// Quota for tenants without an explicit override.
  TenantQuota default_quota;
  /// Backoff schedule for call_with_retry.
  db::RetryPolicy retry_policy;
  /// Ready-queue spins (with yield) before a worker parks on the
  /// condition variable; the host engine's latency/burn trade-off.
  std::size_t spin_iterations = 256;
  /// Clock for the admission token buckets; null = steady_clock (tests
  /// inject a fake to drive rate limits deterministically).
  AdmissionController::Clock admission_clock;
};

struct ServerStats {
  std::uint64_t submitted = 0;         ///< requests accepted into a FIFO
  std::uint64_t executed = 0;          ///< requests completed by workers
  std::uint64_t rejected_quota = 0;    ///< admission said no
  std::uint64_t rejected_overload = 0; ///< global queue was full
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_rejected = 0;
  std::size_t open_sessions = 0;
  std::size_t queue_depth = 0;         ///< queued requests right now
  std::size_t peak_queue_depth = 0;
  unsigned workers = 0;
};

/// Result of open_session: a handle (0 when rejected) plus the response
/// carrying the rejection reason and retry classification.
struct OpenSession {
  std::uint64_t session = 0;
  appvm::Response response;
};

class Server {
 public:
  explicit Server(std::shared_ptr<db::Engine> engine,
                  ServerOptions options = {});
  /// Drains queued work, then stops the pool.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // --- session lifecycle --------------------------------------------------
  OpenSession open_session(const std::string& tenant,
                           const std::string& user);
  /// Waits for the session's queued commands to finish, then closes it.
  appvm::Response close_session(std::uint64_t session);

  // --- command path (through the queue, per-session FIFO order) ----------
  /// Submit one command line; blocks until a worker has executed it.
  appvm::Response call(std::uint64_t session, const std::string& line);
  /// Like call(), but re-submits while the failure is retryable
  /// (conflict, transient I/O, quota, overload) under the retry policy.
  appvm::Response call_with_retry(std::uint64_t session,
                                  const std::string& line);
  /// Async submit; the future resolves when a worker executes the line.
  std::future<appvm::Response> submit(std::uint64_t session,
                                      const std::string& line);

  // --- snapshot read path (caller's thread, no queue, no WAL) ------------
  db::QueryResult query(const db::QueryFilter& filter) const;
  std::vector<appvm::DatabaseVersionInfo> history(
      const std::string& name) const;

  // --- admin --------------------------------------------------------------
  void set_quota(const std::string& tenant, TenantQuota quota);
  TenantStats tenant_stats(const std::string& tenant) const;
  ServerStats stats() const;
  unsigned workers() const { return pool_width_; }
  /// Injectable backoff wait for call_with_retry (tests record instead of
  /// sleeping).
  void set_sleeper(db::Sleeper sleeper) { sleeper_ = std::move(sleeper); }

 private:
  struct Request {
    std::string line;
    bool with_retry = false;
    std::promise<appvm::Response> done;
  };
  struct SessionState {
    std::uint64_t id = 0;
    std::string tenant;
    appvm::Session session;
    std::deque<Request> fifo;
    bool scheduled = false;  ///< in ready_ or owned by a worker
    bool closing = false;

    SessionState(std::uint64_t id, const std::string& tenant,
                 appvm::Database& database, const std::string& user)
        : id(id), tenant(tenant), session(database, user, tenant) {}
  };

  static unsigned default_pool_width();
  void worker_main();
  std::shared_ptr<SessionState> next_ready();
  void process_one(const std::shared_ptr<SessionState>& state);
  void enqueue_locked(const std::shared_ptr<SessionState>& state);

  std::shared_ptr<db::Engine> engine_;
  appvm::Database database_;  ///< shared façade; thread-safe over engine_
  ServerOptions options_;
  AdmissionController admission_;
  unsigned pool_width_ = 1;

  mutable std::mutex mutex_;
  std::condition_variable ready_cv_;
  std::condition_variable drain_cv_;  ///< close_session / shutdown drains
  std::map<std::uint64_t, std::shared_ptr<SessionState>> sessions_;
  std::deque<std::shared_ptr<SessionState>> ready_;
  std::atomic<std::size_t> ready_count_{0};  ///< workers spin on this
  std::atomic<bool> stop_{false};
  bool accepting_ = true;
  std::uint64_t next_session_ = 1;
  std::size_t queued_ = 0;
  ServerStats stats_;
  db::Sleeper sleeper_ = db::sleep_for;
  std::vector<std::thread> pool_;
};

}  // namespace fem2::serve

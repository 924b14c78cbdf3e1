#include "serve/server.hpp"

#include <algorithm>
#include <string_view>

#include "support/check.hpp"
#include "support/strings.hpp"

namespace fem2::serve {

namespace {

/// `save <file>` and `open <file>` would let any tenant write, or read as
/// a model, whatever path the server process can reach, so a served
/// session answers them without running them.  The verb is the line's
/// first whitespace-separated word, as Session::execute reads it.
bool touches_host_files(std::string_view line) {
  line = support::trim(line);
  const std::string_view verb(line.begin(),
                              std::ranges::find_if(line, support::is_space));
  return verb == "save" || verb == "open";
}

}  // namespace

Server::Server(std::shared_ptr<db::Engine> engine, ServerOptions options)
    : engine_(std::move(engine)),
      database_(engine_),
      options_(options),
      admission_(options.default_quota, options.admission_clock),
      pool_width_(std::clamp(options.workers != 0
                                 ? options.workers
                                 : std::thread::hardware_concurrency(),
                             1u, 256u)) {
  FEM2_CHECK_MSG(engine_ != nullptr, "Server needs an engine");
  FEM2_CHECK_MSG(options_.queue_capacity >= 1,
                 "queue_capacity must admit at least one request");
  stats_.workers = pool_width_;
  pool_.reserve(pool_width_);
  for (unsigned i = 0; i < pool_width_; ++i)
    pool_.emplace_back([this] { worker_main(); });
}

Server::~Server() {
  std::unique_lock lock(mutex_);
  accepting_ = false;
  // Every accepted request is answered before the pool stops: queued_
  // only reaches zero once the last worker has delivered its response.
  drain_cv_.wait(lock, [&] { return queued_ == 0; });
  stop_.store(true, std::memory_order_release);
  ready_cv_.notify_all();
  lock.unlock();
  for (auto& worker : pool_) worker.join();
}

// --- session lifecycle -----------------------------------------------------

OpenSession Server::open_session(const std::string& tenant,
                                 const std::string& user) {
  {
    std::lock_guard lock(mutex_);
    if (!accepting_)
      return {0,
              {false, "server is shutting down",
               appvm::Response::FailureKind::Overloaded}};
  }
  const Admit admit = admission_.admit_session(tenant);
  if (admit != Admit::Ok) {
    std::lock_guard lock(mutex_);
    stats_.sessions_rejected += 1;
    return {0,
            {false,
             "tenant '" + tenant + "' over quota: " +
                 std::string(admit_name(admit)),
             appvm::Response::FailureKind::QuotaExceeded}};
  }
  std::lock_guard lock(mutex_);
  const std::uint64_t id = next_session_++;
  sessions_.emplace(
      id, std::make_shared<SessionState>(id, tenant, database_, user));
  stats_.sessions_opened += 1;
  return {id,
          {true, "session " + std::to_string(id) + " open for tenant '" +
                     tenant + "'"}};
}

appvm::Response Server::close_session(std::uint64_t session) {
  std::shared_ptr<SessionState> state;
  {
    std::unique_lock lock(mutex_);
    const auto it = sessions_.find(session);
    if (it == sessions_.end())
      return {false, "no such session " + std::to_string(session),
              appvm::Response::FailureKind::Other};
    state = it->second;
    if (state->closing)
      return {false, "session " + std::to_string(session) + " already closing",
              appvm::Response::FailureKind::Other};
    state->closing = true;
    // Everything already in the FIFO still runs; only new submissions are
    // refused.  Wait until a worker has delivered the last response.
    drain_cv_.wait(lock,
                   [&] { return state->fifo.empty() && !state->scheduled; });
    sessions_.erase(session);
  }
  admission_.release_session(state->tenant);
  return {true, "session " + std::to_string(session) + " closed"};
}

// --- command path ----------------------------------------------------------

std::future<appvm::Response> Server::submit(std::uint64_t session,
                                            const std::string& line) {
  const auto reject = [](appvm::Response response) {
    std::promise<appvm::Response> done;
    done.set_value(std::move(response));
    return done.get_future();
  };

  std::lock_guard lock(mutex_);
  if (!accepting_)
    return reject({false, "server is shutting down",
                   appvm::Response::FailureKind::Overloaded});
  const auto it = sessions_.find(session);
  if (it == sessions_.end() || it->second->closing)
    return reject({false, "no such session " + std::to_string(session),
                   appvm::Response::FailureKind::Other});
  const std::shared_ptr<SessionState>& state = it->second;
  if (queued_ >= options_.queue_capacity) {
    stats_.rejected_overload += 1;
    return reject({false,
                   "server queue is full (" + std::to_string(queued_) +
                       " requests pending)",
                   appvm::Response::FailureKind::Overloaded});
  }
  const Admit admit = admission_.admit_request(state->tenant);
  if (admit != Admit::Ok) {
    stats_.rejected_quota += 1;
    return reject({false,
                   "tenant '" + state->tenant + "' over quota: " +
                       std::string(admit_name(admit)),
                   appvm::Response::FailureKind::QuotaExceeded});
  }

  Request request;
  request.line = line;
  auto future = request.done.get_future();
  state->fifo.push_back(std::move(request));
  queued_ += 1;
  stats_.submitted += 1;
  stats_.peak_queue_depth = std::max(stats_.peak_queue_depth, queued_);
  enqueue_locked(state);
  return future;
}

appvm::Response Server::call(std::uint64_t session, const std::string& line) {
  return submit(session, line).get();
}

appvm::Response Server::call_with_retry(std::uint64_t session,
                                        const std::string& line) {
  // Retry from the caller's side of the queue: a rejected or conflicted
  // request backs off here and re-enters admission, instead of a worker
  // sleeping through the backoff with a pool slot held.
  return appvm::with_retry(options_.retry_policy, sleeper_,
                           [&] { return call(session, line); });
}

// --- snapshot read path ----------------------------------------------------

db::QueryResult Server::query(const db::QueryFilter& filter) const {
  return engine_->query(filter);
}

std::vector<appvm::DatabaseVersionInfo> Server::history(
    const std::string& name) const {
  return database_.history(name);
}

// --- admin -----------------------------------------------------------------

void Server::set_quota(const std::string& tenant, TenantQuota quota) {
  admission_.set_quota(tenant, quota);
}

TenantStats Server::tenant_stats(const std::string& tenant) const {
  return admission_.stats_for(tenant);
}

ServerStats Server::stats() const {
  std::lock_guard lock(mutex_);
  ServerStats out = stats_;
  out.open_sessions = sessions_.size();
  out.queue_depth = queued_;
  out.workers = pool_width_;
  return out;
}

// --- worker pool -----------------------------------------------------------

void Server::enqueue_locked(const std::shared_ptr<SessionState>& state) {
  if (state->scheduled) return;  // already queued or owned by a worker
  state->scheduled = true;
  ready_.push_back(state);
  ready_cv_.notify_one();
}

void Server::worker_main() {
  for (;;) {
    const std::shared_ptr<SessionState> state = next_ready();
    if (!state) return;
    process_one(state);
  }
}

std::shared_ptr<Server::SessionState> Server::next_ready() {
  std::unique_lock lock(mutex_);
  ready_cv_.wait(lock, [&] {
    return stop_.load(std::memory_order_acquire) || !ready_.empty();
  });
  if (ready_.empty()) return nullptr;  // stopping
  auto state = ready_.front();
  ready_.pop_front();
  return state;
}

void Server::process_one(const std::shared_ptr<SessionState>& state) {
  Request request;
  {
    std::lock_guard lock(mutex_);
    if (state->fifo.empty()) {  // stale wakeup; nothing to run
      state->scheduled = false;
      drain_cv_.notify_all();
      return;
    }
    request = std::move(state->fifo.front());
    state->fifo.pop_front();
  }

  // The actor invariant makes this safe without locks: `scheduled` stays
  // true from dequeue to requeue, so no other worker touches this
  // session's interpreter or workspace concurrently.
  appvm::Response response =
      touches_host_files(request.line)
          ? appvm::Response{false,
                            "save and open touch host files; a served "
                            "session cannot run them",
                            appvm::Response::FailureKind::Other}
          : state->session.execute(request.line);
  request.done.set_value(std::move(response));
  admission_.complete_request(state->tenant);

  std::lock_guard lock(mutex_);
  queued_ -= 1;
  stats_.executed += 1;
  if (!state->fifo.empty()) {
    // More queued work: back of the ready line, still scheduled, so the
    // session's commands stay in submission order.
    ready_.push_back(state);
    ready_cv_.notify_one();
  } else {
    state->scheduled = false;
  }
  drain_cv_.notify_all();
}

}  // namespace fem2::serve

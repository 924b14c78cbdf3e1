#include "db/engine.hpp"

#include <algorithm>
#include <filesystem>

#include "db/snapshot.hpp"

namespace fem2::db {

namespace {

std::string conflict_message(const std::string& name, std::uint64_t expected,
                             std::uint64_t actual) {
  std::string msg = "conflict on '" + name + "': ";
  if (expected == 0) {
    msg += "object already exists at revision " + std::to_string(actual);
  } else if (actual == 0) {
    msg += "expected revision " + std::to_string(expected) +
           " but the object does not exist";
  } else {
    msg += "expected revision " + std::to_string(expected) +
           " but current revision is " + std::to_string(actual);
  }
  return msg;
}

}  // namespace

ConflictError::ConflictError(std::string name, std::uint64_t expected,
                             std::uint64_t actual)
    : Error(conflict_message(name, expected, actual)),
      name_(std::move(name)),
      expected_(expected),
      actual_(actual) {}

DegradedError::DegradedError(const std::string& reason)
    : Error("engine is degraded (read-only): " + reason), reason_(reason) {}

Engine::Engine(EngineOptions options)
    : options_(std::move(options)),
      vfs_(options_.vfs ? options_.vfs : Vfs::posix()) {
  FEM2_CHECK_MSG(options_.history_limit >= 1,
                 "history_limit must keep at least the current version");
  if (!options_.directory.empty()) open_locked();
}

Engine::~Engine() = default;

void Engine::open_locked() {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(options_.directory, ec);
  if (ec)
    throw Error("cannot create database directory '" + options_.directory +
                "': " + ec.message());
  snapshot_path_ = options_.directory + "/snapshot.f2db";
  const std::string wal_path = options_.directory + "/wal.f2db";

  // Phase 1: the last checkpoint.
  if (auto snapshot = load_snapshot(*vfs_, snapshot_path_)) {
    next_txn_ = snapshot->next_txn;
    for (auto& chain : snapshot->chains)
      objects_.emplace(std::move(chain.name),
                       Chain{std::move(chain.versions)});
    stats_.recovered_snapshot = true;
  }

  // Phase 2: replay the log on top — committed transactions only.
  const ReplayResult replayed = Wal::replay(*vfs_, wal_path);
  std::map<std::uint64_t, std::vector<WalRecord>> pending;
  for (const auto& record : replayed.records) {
    // Never reuse a txn id that reached the log, committed or not: a
    // sheared transaction's orphaned writes must not be adopted by a
    // later transaction that happens to get the same id.
    next_txn_ = std::max(next_txn_, record.txn + 1);
    switch (record.type) {
      case RecordType::TxnBegin:
        pending[record.txn].clear();
        break;
      case RecordType::Put:
      case RecordType::Erase:
        pending[record.txn].push_back(record);
        break;
      case RecordType::TxnAbort:
        pending.erase(record.txn);
        break;
      case RecordType::TxnCommit: {
        const auto it = pending.find(record.txn);
        if (it == pending.end()) break;  // compacted away or duplicate
        for (const auto& write : it->second) {
          // Idempotence guard for a crash between snapshot publish and
          // log truncation: the snapshot already holds these versions,
          // and revisions are monotonic per name, so anything at or
          // below the chain's head is a duplicate.
          const auto chain = objects_.find(write.name);
          if (chain != objects_.end() && !chain->second.versions.empty() &&
              chain->second.versions.back().revision >= write.revision)
            continue;
          apply_version_locked(
              write.name,
              Version{write.revision, write.type == RecordType::Erase,
                      write.txn, write.kind, write.value});
        }
        pending.erase(it);
        stats_.recovered_txns += 1;
        break;
      }
    }
  }
  stats_.recovery_discarded_txns = pending.size();
  stats_.recovery_discarded_bytes =
      replayed.total_bytes - replayed.valid_bytes;

  // Shear the torn tail so new commits append after valid data.
  wal_ = std::make_unique<Wal>(vfs_, wal_path, replayed.valid_bytes,
                               replayed.records.size());

  // Snapshot-loaded chains bypass apply_version_locked, so the secondary
  // indexes are rebuilt wholesale once the table is final.
  rebuild_indexes_locked();
}

// --- version-chain primitives (callers hold mutex_) -----------------------

const Engine::Version* Engine::current_version_locked(
    const std::string& name) const {
  const auto it = objects_.find(name);
  if (it == objects_.end() || it->second.versions.empty()) return nullptr;
  return &it->second.versions.back();
}

Engine::HeadView Engine::effective_head_locked(const std::string& name) const {
  // A batch that reached the log but not yet its fsync has already claimed
  // revisions; later transactions must validate and number against that
  // in-flight head, not the applied table, or two batches would mint the
  // same revision for one name.
  const auto pending = pending_heads_.find(name);
  if (pending != pending_heads_.end()) return pending->second;
  const Version* current = current_version_locked(name);
  if (!current) return HeadView{0, true};
  return HeadView{current->revision, current->deleted};
}

void Engine::check_expected_locked(const std::string& name,
                                   std::uint64_t expected) const {
  if (expected == kAnyRevision) return;
  const HeadView head = effective_head_locked(name);
  const std::uint64_t actual = head.deleted ? 0 : head.revision;
  if (actual != expected) throw ConflictError(name, expected, actual);
}

void Engine::apply_version_locked(const std::string& name, Version version) {
  auto& chain = objects_[name];
  if (!chain.versions.empty()) {
    const Version& old = chain.versions.back();
    if (!old.deleted) {
      revision_index_.erase({old.revision, name});
      const auto bucket = kind_index_.find(old.kind);
      if (bucket != kind_index_.end()) {
        bucket->second.erase(name);
        if (bucket->second.empty()) kind_index_.erase(bucket);
      }
    }
  }
  if (!version.deleted) {
    revision_index_.emplace(version.revision, name);
    kind_index_[version.kind].insert(name);
  }
  chain.versions.push_back(std::move(version));
  if (chain.versions.size() > options_.history_limit)
    chain.versions.erase(chain.versions.begin(),
                         chain.versions.end() -
                             static_cast<std::ptrdiff_t>(
                                 options_.history_limit));
}

void Engine::rebuild_indexes_locked() {
  kind_index_.clear();
  revision_index_.clear();
  for (const auto& [name, chain] : objects_) {
    if (chain.versions.empty()) continue;
    const Version& head = chain.versions.back();
    if (head.deleted) continue;
    revision_index_.emplace(head.revision, name);
    kind_index_[head.kind].insert(name);
  }
}

// --- transactions ---------------------------------------------------------

std::uint64_t Engine::begin() {
  std::lock_guard lock(mutex_);
  ensure_writable_locked();
  const std::uint64_t txn = next_txn_++;
  open_txns_[txn];
  return txn;
}

void Engine::put(std::uint64_t txn, std::string name, std::string kind,
                 std::string value, std::uint64_t expected) {
  std::lock_guard lock(mutex_);
  const auto it = open_txns_.find(txn);
  if (it == open_txns_.end())
    throw Error("no open transaction " + std::to_string(txn));
  it->second.writes.push_back(PendingWrite{
      std::move(name), std::move(kind), std::move(value), expected});
}

void Engine::erase(std::uint64_t txn, std::string name,
                   std::uint64_t expected) {
  std::lock_guard lock(mutex_);
  const auto it = open_txns_.find(txn);
  if (it == open_txns_.end())
    throw Error("no open transaction " + std::to_string(txn));
  it->second.writes.push_back(
      PendingWrite{std::move(name), "", std::nullopt, expected});
}

std::optional<ObjectView> Engine::get(std::uint64_t txn,
                                      const std::string& name) const {
  std::lock_guard lock(mutex_);
  const auto it = open_txns_.find(txn);
  if (it == open_txns_.end())
    throw Error("no open transaction " + std::to_string(txn));
  // Read-your-writes: the latest buffered write to this name wins.
  const auto& writes = it->second.writes;
  for (auto w = writes.rbegin(); w != writes.rend(); ++w) {
    if (w->name != name) continue;
    if (!w->value) return std::nullopt;  // buffered erase
    const Version* current = current_version_locked(name);
    const std::uint64_t base =
        current ? current->revision : 0;  // revision once committed
    return ObjectView{name, w->kind, *w->value, base + 1};
  }
  const Version* current = current_version_locked(name);
  if (!current || current->deleted) return std::nullopt;
  return ObjectView{name, current->kind, current->value, current->revision};
}

std::size_t Engine::commit_writes_locked(std::unique_lock<std::mutex>& lock,
                                         std::uint64_t txn,
                                         std::vector<PendingWrite> writes,
                                         std::uint64_t* last_revision) {
  // Validate every optimistic expectation against the effective state
  // (committed table plus in-flight batch heads) before anything touches
  // the log: a conflicted transaction must leave no trace.
  for (const auto& write : writes) {
    try {
      check_expected_locked(write.name, write.expected);
    } catch (const ConflictError&) {
      stats_.conflicts += 1;
      throw;
    }
  }

  // Assign revisions in write order (a transaction may touch one name
  // twice; each write gets the next revision in the chain).
  std::map<std::string, std::uint64_t> next_revision;
  std::vector<Version> versions;
  versions.reserve(writes.size());
  for (const auto& write : writes) {
    auto [it, inserted] = next_revision.try_emplace(write.name, 0);
    if (inserted) it->second = effective_head_locked(write.name).revision;
    it->second += 1;
    versions.push_back(Version{it->second, !write.value.has_value(), txn,
                               write.kind,
                               write.value ? *write.value : std::string{}});
  }
  if (last_revision && !versions.empty())
    *last_revision = versions.back().revision;

  // Log, then make the commit point durable — with its own fsync on the
  // classic path, or one fsync shared by the whole batch under group
  // commit.
  const bool group = wal_ && options_.sync_on_commit &&
                     options_.group_commit_window.count() > 0;
  if (wal_) {
    const std::uint64_t pre_bytes = wal_->bytes();
    const std::uint64_t pre_records = wal_->records();
    try {
      wal_->append(WalRecord{RecordType::TxnBegin, txn, "", "", "", 0});
      for (std::size_t i = 0; i < writes.size(); ++i) {
        const auto& write = writes[i];
        const auto& version = versions[i];
        wal_->append(WalRecord{
            version.deleted ? RecordType::Erase : RecordType::Put, txn,
            write.name, version.kind, version.value, version.revision});
      }
      wal_->append(WalRecord{RecordType::TxnCommit, txn, "", "", "", 0});
    } catch (const IoError&) {
      stats_.io_errors += 1;
      // Roll the log back to the pre-transaction frame boundary.  If the
      // rollback holds, this was a clean failure — the transaction failed
      // but the log is exactly as before it (any in-flight batch's frames
      // sit below our start), and the engine stays live (an ENOSPC disk
      // fails every commit this way without degrading).
      try {
        wal_->truncate_to(pre_bytes, pre_records);
        fail_locked(FailureSite::AppendRollbackOk, "");
      } catch (const IoError& rollback) {
        fail_locked(FailureSite::AppendRollbackFailed,
                    std::string("append rollback failed: ") +
                        rollback.what());
        // The log tail is now untrustworthy; no in-flight batch can reach
        // a durable fsync, so fail every member cleanly.
        fail_batches_locked(rollback);
      }
      throw;
    }
    if (group)
      return group_commit_locked(lock, txn, std::move(writes),
                                 std::move(versions), pre_bytes, pre_records);
    if (options_.sync_on_commit) {
      try {
        wal_->sync();
      } catch (const IoError& sync_error) {
        stats_.io_errors += 1;
        // The fsync-gate hazard: this transaction's records sit in the
        // file but are not durable, and the NEXT successful fsync would
        // durably publish them even though this commit failed.  Scrub
        // them best-effort, then fail safe: read-only until recover().
        try {
          wal_->truncate_to(pre_bytes, pre_records);
          wal_->sync();
        } catch (...) {
          // The scrub is advisory; degraded mode is the guarantee.
        }
        fail_locked(FailureSite::CommitFsyncFailed,
                    std::string("commit fsync failed: ") + sync_error.what());
        throw;
      }
    }
  }

  for (std::size_t i = 0; i < writes.size(); ++i)
    apply_version_locked(writes[i].name, std::move(versions[i]));
  stats_.commits += 1;

  if (wal_ && !health_.degraded() && options_.compact_after_bytes > 0 &&
      wal_->bytes() > options_.compact_after_bytes) {
    try {
      checkpoint_locked();
    } catch (const IoError&) {
      // The commit is durable and acknowledged; a failed automatic
      // compaction only means the log stays long for now.  Degradation,
      // if the log truncation itself failed, is already recorded.
    }
  }
  return writes.size();
}

std::size_t Engine::group_commit_locked(std::unique_lock<std::mutex>& lock,
                                        std::uint64_t txn,
                                        std::vector<PendingWrite> writes,
                                        std::vector<Version> versions,
                                        std::uint64_t pre_bytes,
                                        std::uint64_t pre_records) {
  // Our frames are in the log but not durable.  Claim the in-flight heads
  // so later transactions validate and number against them, then join (or
  // open) the filling batch.
  std::vector<std::string> names;
  names.reserve(writes.size());
  for (std::size_t i = 0; i < writes.size(); ++i) {
    pending_heads_[writes[i].name] =
        HeadView{versions[i].revision, versions[i].deleted};
    names.push_back(std::move(writes[i].name));
  }

  std::shared_ptr<Batch> batch = filling_;
  const bool leader = batch == nullptr;
  if (leader) {
    batch = std::make_shared<Batch>();
    batch->seq = next_batch_seq_++;
    batch->start_bytes = pre_bytes;
    batch->start_records = pre_records;
    batches_.emplace(batch->seq, batch);
    filling_ = batch;
  }
  const std::size_t write_count = names.size();
  batch->members.push_back(
      Batch::Member{txn, std::move(names), std::move(versions)});
  if (batch->members.size() >= options_.group_commit_max_batch) {
    batch->sealed = true;
    if (filling_ == batch) filling_ = nullptr;
    batch->cv.notify_all();
  }

  if (leader) {
    lead_batch_locked(lock, batch);
  } else {
    batch->cv.wait(lock, [&] { return batch->done; });
  }
  if (batch->failed)
    throw IoError(batch->error_op, batch->error_path, batch->error_code);
  return write_count;
}

void Engine::lead_batch_locked(std::unique_lock<std::mutex>& lock,
                               const std::shared_ptr<Batch>& batch) {
  // Gather members until the window expires, the batch fills, or a
  // failure elsewhere decides the batch's fate for us.
  if (!batch->sealed)
    batch->cv.wait_for(lock, options_.group_commit_window,
                       [&] { return batch->sealed || batch->done; });
  if (!batch->sealed) {
    batch->sealed = true;
    if (filling_ == batch) filling_ = nullptr;
  }

  // Batches fsync and apply in sequence order, so the acknowledged state
  // is always a prefix of the log.
  sync_order_cv_.wait(lock, [&] {
    return batch->done || applied_batch_seq_ + 1 == batch->seq;
  });
  if (batch->done) {  // failed wholesale while we waited our turn
    batches_.erase(batch->seq);
    sync_order_cv_.notify_all();
    return;
  }

  // One fsync covers every member.  The mutex is dropped across it so
  // reads and the next batch's appends proceed while the disk works.
  std::optional<IoError> sync_error;
  lock.unlock();
  try {
    wal_->sync();
  } catch (const IoError& error) {
    sync_error = error;
  }
  lock.lock();

  if (batch->done) {
    // An append-rollback failure degraded the engine while we were
    // syncing; the coordinator already failed every batch, ours
    // included, and our members carry the root cause.  Retire the seq.
    batches_.erase(batch->seq);
    sync_order_cv_.notify_all();
    return;
  }

  if (sync_error) {
    stats_.io_errors += 1;
    // The fsync-gate hazard, batch edition: every frame from this batch's
    // start — ours and any batch appended behind us — sits in the file
    // un-durable, and the NEXT successful fsync would publish them all.
    // Scrub best-effort, then fail safe: read-only until recover(), and
    // every in-flight member fails cleanly with the root cause.
    try {
      wal_->truncate_to(batch->start_bytes, batch->start_records);
      wal_->sync();
    } catch (...) {
      // The scrub is advisory; degraded mode is the guarantee.
    }
    fail_locked(FailureSite::CommitFsyncFailed,
                std::string("group commit fsync failed: ") +
                    sync_error->what());
    fail_batches_locked(*sync_error);
    batches_.erase(batch->seq);
    sync_order_cv_.notify_all();
    return;
  }

  // Durable: apply every member in append order, release the heads this
  // batch claimed, and ack.
  for (auto& member : batch->members) {
    for (std::size_t i = 0; i < member.names.size(); ++i) {
      const auto pending = pending_heads_.find(member.names[i]);
      if (pending != pending_heads_.end() &&
          pending->second.revision == member.versions[i].revision)
        pending_heads_.erase(pending);
      apply_version_locked(member.names[i], std::move(member.versions[i]));
    }
  }
  stats_.commits += batch->members.size();
  stats_.group_batches += 1;
  stats_.group_batched_txns += batch->members.size();
  stats_.group_max_batch =
      std::max<std::uint64_t>(stats_.group_max_batch, batch->members.size());
  applied_batch_seq_ = batch->seq;
  batch->done = true;
  batch->cv.notify_all();
  batches_.erase(batch->seq);
  sync_order_cv_.notify_all();

  // Auto-compaction must not erase frames a later batch appended but has
  // not applied yet, so it only runs once the pipeline is drained.
  if (batches_.empty() && !health_.degraded() &&
      options_.compact_after_bytes > 0 &&
      wal_->bytes() > options_.compact_after_bytes) {
    try {
      checkpoint_locked();
    } catch (const IoError&) {
      // The batch is durable and acknowledged; a failed compaction only
      // means the log stays long for now.
    }
  }
}

void Engine::fail_batches_locked(const IoError& error) {
  // A durability failure degrades the engine, so no in-flight batch can
  // ever reach a durable fsync: fail every member cleanly with the root
  // cause.  Leaders retire their own seq when they wake.
  for (auto& [seq, batch] : batches_) {
    if (batch->done) continue;
    batch->sealed = true;
    batch->done = true;
    batch->failed = true;
    batch->error_op = error.op();
    batch->error_path = error.path();
    batch->error_code = error.code();
    batch->cv.notify_all();
  }
  filling_ = nullptr;
  pending_heads_.clear();
  applied_batch_seq_ = next_batch_seq_ - 1;
  sync_order_cv_.notify_all();
}

std::size_t Engine::commit(std::uint64_t txn) {
  std::unique_lock lock(mutex_);
  ensure_writable_locked();
  auto node = open_txns_.extract(txn);
  if (node.empty()) throw Error("no open transaction " + std::to_string(txn));
  return commit_writes_locked(lock, txn, std::move(node.mapped().writes));
}

void Engine::abort(std::uint64_t txn) {
  std::lock_guard lock(mutex_);
  if (open_txns_.erase(txn) == 0)
    throw Error("no open transaction " + std::to_string(txn));
  stats_.aborts += 1;
}

// --- autocommit -----------------------------------------------------------

std::uint64_t Engine::put(std::string name, std::string kind,
                          std::string value, std::uint64_t expected) {
  std::unique_lock lock(mutex_);
  ensure_writable_locked();
  const std::uint64_t txn = next_txn_++;
  std::vector<PendingWrite> writes;
  writes.push_back(PendingWrite{std::move(name), std::move(kind),
                                std::move(value), expected});
  // The assigned revision comes back through the out-parameter: under
  // group commit the table head may already be past our version by the
  // time the batch lands (a later batch bumped it), so re-reading the
  // chain here would hand the caller someone else's revision.
  std::uint64_t revision = 0;
  commit_writes_locked(lock, txn, std::move(writes), &revision);
  return revision;
}

bool Engine::erase(const std::string& name, std::uint64_t expected) {
  std::unique_lock lock(mutex_);
  ensure_writable_locked();
  const HeadView head = effective_head_locked(name);
  if (head.deleted) {
    // Erasing a missing object is a no-op unless the caller demanded a
    // specific revision.
    if (expected != kAnyRevision && expected != 0)
      throw ConflictError(name, expected, 0);
    return false;
  }
  const std::uint64_t txn = next_txn_++;
  std::vector<PendingWrite> writes;
  writes.push_back(PendingWrite{name, "", std::nullopt, expected});
  commit_writes_locked(lock, txn, std::move(writes));
  return true;
}

// --- reads ----------------------------------------------------------------

std::optional<ObjectView> Engine::get(const std::string& name) const {
  std::lock_guard lock(mutex_);
  const Version* current = current_version_locked(name);
  if (!current || current->deleted) return std::nullopt;
  return ObjectView{name, current->kind, current->value, current->revision};
}

std::optional<ObjectView> Engine::get_at(const std::string& name,
                                         std::uint64_t revision) const {
  std::lock_guard lock(mutex_);
  const auto it = objects_.find(name);
  if (it == objects_.end()) return std::nullopt;
  for (const auto& v : it->second.versions) {
    if (v.revision == revision)
      return v.deleted ? std::nullopt
                       : std::optional<ObjectView>(
                             ObjectView{name, v.kind, v.value, v.revision});
  }
  return std::nullopt;
}

std::vector<VersionInfo> Engine::history(const std::string& name) const {
  std::lock_guard lock(mutex_);
  std::vector<VersionInfo> out;
  const auto it = objects_.find(name);
  if (it == objects_.end()) return out;
  out.reserve(it->second.versions.size());
  for (const auto& v : it->second.versions)
    out.push_back(
        VersionInfo{v.revision, v.kind, v.value.size(), v.txn, v.deleted});
  return out;
}

std::vector<EntryInfo> Engine::list() const {
  std::lock_guard lock(mutex_);
  std::vector<EntryInfo> out;
  for (const auto& [name, chain] : objects_) {
    if (chain.versions.empty()) continue;
    const Version& current = chain.versions.back();
    if (current.deleted) continue;
    out.push_back(EntryInfo{name, current.kind, current.value.size(),
                            current.revision});
  }
  return out;
}

bool Engine::contains(const std::string& name) const {
  std::lock_guard lock(mutex_);
  const Version* current = current_version_locked(name);
  return current && !current->deleted;
}

std::uint64_t Engine::revision_of(const std::string& name) const {
  std::lock_guard lock(mutex_);
  const Version* current = current_version_locked(name);
  return (current && !current->deleted) ? current->revision : 0;
}

std::size_t Engine::size() const {
  std::lock_guard lock(mutex_);
  std::size_t live = 0;
  for (const auto& [name, chain] : objects_)
    live += !chain.versions.empty() && !chain.versions.back().deleted;
  return live;
}

// --- maintenance ----------------------------------------------------------

void Engine::checkpoint_locked() {
  if (!wal_) return;  // nothing to compact in memory mode
  // Encode the chains in place: a copy would double the checkpoint's
  // peak memory by the size of the whole store.
  SnapshotView view;
  view.next_txn = next_txn_;
  view.chains.reserve(objects_.size());
  for (const auto& [name, chain] : objects_)
    view.chains.push_back({name, chain.versions});
  try {
    write_snapshot(*vfs_, snapshot_path_, view);
  } catch (const IoError&) {
    // Nothing published yet: the previous snapshot and the intact log
    // still recover everything, so the engine stays healthy.
    stats_.io_errors += 1;
    stats_.checkpoint_failures += 1;
    fail_locked(FailureSite::CheckpointSnapshotWriteFailed, "");
    throw;
  }
  try {
    wal_->reset();  // the log up to here is now redundant
  } catch (const IoError& reset_error) {
    // The snapshot is published but the log could not be truncated; the
    // log's in-memory counters may no longer match the file, so stop
    // trusting it.  (Recovery handles the published-snapshot + stale-log
    // combination via the replay idempotence guard.)
    stats_.io_errors += 1;
    stats_.checkpoint_failures += 1;
    fail_locked(FailureSite::CheckpointLogResetFailed,
                std::string("log truncation after checkpoint failed: ") +
                    reset_error.what());
    throw;
  }
  stats_.checkpoints += 1;
}

void Engine::checkpoint() {
  std::unique_lock lock(mutex_);
  // A checkpoint truncates the whole log; wait for in-flight batches to
  // drain so it never erases frames that were appended but not yet
  // applied to the table.
  sync_order_cv_.wait(lock, [&] { return batches_.empty(); });
  ensure_writable_locked();
  checkpoint_locked();
}

void Engine::fail_locked(FailureSite site, std::string reason) {
  const auto transition = health_.on_failure(site, std::move(reason));
  if (transition.entered_degraded) stats_.degraded_entries += 1;
}

void Engine::ensure_writable_locked() const {
  if (health_.degraded()) throw DegradedError(health_.reason());
}

bool Engine::degraded() const {
  std::lock_guard lock(mutex_);
  return health_.degraded();
}

std::string Engine::degraded_reason() const {
  std::lock_guard lock(mutex_);
  return health_.reason();
}

void Engine::recover() {
  std::unique_lock lock(mutex_);
  if (options_.directory.empty()) return;  // memory mode never degrades
  // Degradation already failed every in-flight batch; wait for their
  // leaders to retire them so no thread still holds the WAL handle we
  // are about to replace.
  sync_order_cv_.wait(lock, [&] { return batches_.empty(); });
  objects_.clear();
  open_txns_.clear();
  pending_heads_.clear();
  filling_.reset();
  next_batch_seq_ = 1;
  applied_batch_seq_ = 0;
  wal_.reset();
  next_txn_ = 1;
  health_.on_recover();
  stats_.recovered_snapshot = false;
  stats_.recovered_txns = 0;
  open_locked();
  stats_.recoveries += 1;
}

EngineStats Engine::stats() const {
  std::lock_guard lock(mutex_);
  EngineStats out = stats_;
  if (wal_) {
    out.wal_records = wal_->records();
    out.wal_bytes = wal_->bytes();
  }
  return out;
}

EngineState Engine::state() const {
  std::lock_guard lock(mutex_);
  EngineState out;
  out.mode = !wal_ ? "memory" : (health_.degraded() ? "degraded" : "persistent");
  out.chains.reserve(objects_.size());
  for (const auto& [name, chain] : objects_) {
    EngineState::Chain c;
    c.name = name;
    c.versions.reserve(chain.versions.size());
    for (const auto& v : chain.versions)
      c.versions.push_back(
          VersionInfo{v.revision, v.kind, v.value.size(), v.txn, v.deleted});
    out.chains.push_back(std::move(c));
  }
  for (const auto& [id, txn] : open_txns_)
    out.transactions.push_back(EngineState::Txn{id, txn.writes.size()});
  out.stats = stats_;
  if (wal_) {
    out.stats.wal_records = wal_->records();
    out.stats.wal_bytes = wal_->bytes();
  }
  out.index_kinds = kind_index_.size();
  out.index_entries = revision_index_.size();
  out.pending_heads = pending_heads_.size();
  return out;
}

}  // namespace fem2::db

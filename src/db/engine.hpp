// fem2-db: a persistent, crash-recoverable, multi-session storage engine —
// the "data base (long-term storage; shared data)" of the application
// user's VM made real.
//
//   * Durability: commits append CRC-framed records to a write-ahead log
//     and fsync once per commit (wal.hpp).  Recovery = snapshot load + log
//     replay; a crash at any byte leaves exactly the committed prefix.
//   * Compaction: checkpoint() writes an atomic snapshot of the object
//     table and truncates the log; it also runs automatically once the log
//     outgrows EngineOptions::compact_after_bytes.
//   * MVCC: objects are version chains.  Reads can target a historical
//     revision; history() exposes the chain (bounded by history_limit).
//   * Optimistic concurrency: every write may carry an expected revision
//     (compare-and-swap).  Two sessions racing on one name get a clean
//     ConflictError instead of silent clobbering.
//   * Degenerate mode: an empty directory means a purely in-memory engine
//     with identical semantics minus durability.
//
// Thread safety: all public methods are safe to call from concurrent
// sessions; one mutex serializes the table and the log tail.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "db/health.hpp"
#include "db/snapshot.hpp"
#include "db/wal.hpp"

namespace fem2::db {

/// Optimistic-concurrency check failed: the object's current revision is
/// not the one the writer expected.
class ConflictError : public Error {
 public:
  ConflictError(std::string name, std::uint64_t expected,
                std::uint64_t actual);

  const std::string& name() const { return name_; }
  std::uint64_t expected() const { return expected_; }
  std::uint64_t actual() const { return actual_; }

 private:
  std::string name_;
  std::uint64_t expected_ = 0;
  std::uint64_t actual_ = 0;
};

/// The engine is in read-only degraded mode after a durability failure.
/// Reads and history keep working; writes fail with this error until
/// recover() re-opens the store from its durable state.  Failing safe
/// here avoids the fsync-gate hazard: after a failed commit fsync, a
/// later successful fsync would durably publish the failed transaction's
/// records without anyone having acknowledged them.
class DegradedError : public Error {
 public:
  explicit DegradedError(const std::string& reason);

  const std::string& reason() const { return reason_; }

 private:
  std::string reason_;
};

/// Expected-revision wildcard: write unconditionally.
inline constexpr std::uint64_t kAnyRevision = ~std::uint64_t{0};
/// Expected revision 0 means "the object must not currently exist".

struct EngineOptions {
  /// Data directory.  Empty = in-memory degenerate mode (no WAL, no
  /// snapshot, nothing survives the process).
  std::string directory;
  /// Versions retained per object (MVCC history window), >= 1.
  std::size_t history_limit = 8;
  /// Auto-checkpoint once the WAL exceeds this many bytes; 0 disables.
  std::size_t compact_after_bytes = 4u << 20;
  /// fsync at every commit point (the durability guarantee).  Off only for
  /// throughput experiments that accept losing the OS buffer tail.
  bool sync_on_commit = true;
  /// Storage backend; null = the real filesystem (Vfs::posix()).  Tests
  /// and chaos drivers pass a FaultVfs here.
  std::shared_ptr<Vfs> vfs = nullptr;
  /// Group commit: batch every transaction that reaches its commit point
  /// within this window into ONE fsync, acking each only after the shared
  /// fsync returns.  0 (the default) keeps the classic one-fsync-per-
  /// commit path.  Only meaningful for a persistent engine with
  /// sync_on_commit.
  std::chrono::microseconds group_commit_window{0};
  /// Seal a filling batch early once it holds this many transactions.
  std::size_t group_commit_max_batch = 64;
};

/// A live object as seen by a read.
struct ObjectView {
  std::string name;
  std::string kind;
  std::string value;
  std::uint64_t revision = 0;
};

/// One version in an object's MVCC chain (no payload — see get_at).
struct VersionInfo {
  std::uint64_t revision = 0;
  std::string kind;
  std::size_t bytes = 0;
  std::uint64_t txn = 0;
  bool deleted = false;
};

struct QueryFilter;  // predicate query over live objects (db/query.hpp)
struct QueryResult;

/// Directory row for list().
struct EntryInfo {
  std::string name;
  std::string kind;
  std::size_t bytes = 0;
  std::uint64_t revision = 0;
};

struct EngineStats {
  std::uint64_t commits = 0;      ///< committed transactions (incl. autocommit)
  std::uint64_t aborts = 0;       ///< explicit aborts
  std::uint64_t conflicts = 0;    ///< commits rejected by revision checks
  std::uint64_t checkpoints = 0;  ///< snapshots written (manual + automatic)
  std::uint64_t wal_records = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t recovered_txns = 0;  ///< committed txns replayed at open
  std::uint64_t recovery_discarded_txns = 0;   ///< uncommitted at crash
  std::uint64_t recovery_discarded_bytes = 0;  ///< torn-tail bytes sheared
  bool recovered_snapshot = false;             ///< a snapshot was loaded
  std::uint64_t io_errors = 0;            ///< IoErrors seen on the write path
  std::uint64_t checkpoint_failures = 0;  ///< checkpoints that threw
  std::uint64_t degraded_entries = 0;     ///< transitions into degraded mode
  std::uint64_t recoveries = 0;           ///< explicit recover() calls
  std::uint64_t group_batches = 0;        ///< group-commit batches fsynced
  std::uint64_t group_batched_txns = 0;   ///< transactions those carried
  std::uint64_t group_max_batch = 0;      ///< largest batch seen
  std::uint64_t queries = 0;              ///< query() calls served
};

/// Full engine state for spec reflection (spec/reflect.hpp) and debugging.
struct EngineState {
  std::string mode;  ///< "memory", "persistent" or "degraded"
  struct Chain {
    std::string name;
    std::vector<VersionInfo> versions;
  };
  std::vector<Chain> chains;  ///< sorted by name
  struct Txn {
    std::uint64_t id = 0;
    std::size_t writes = 0;
  };
  std::vector<Txn> transactions;  ///< open (uncommitted) transactions
  EngineStats stats;
  std::size_t index_kinds = 0;    ///< kind buckets in the secondary index
  std::size_t index_entries = 0;  ///< entries in the revision index
  std::size_t pending_heads = 0;  ///< heads claimed by unsynced batches
};

class Engine {
 public:
  /// Opens (and, for a persistent directory, recovers) the database.
  explicit Engine(EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- transactions ------------------------------------------------------
  /// Start a transaction; writes are buffered until commit.
  std::uint64_t begin();

  /// Buffer a write/delete in an open transaction.  `expected` is checked
  /// against the table state at commit time (optimistic concurrency).
  void put(std::uint64_t txn, std::string name, std::string kind,
           std::string value, std::uint64_t expected = kAnyRevision);
  void erase(std::uint64_t txn, std::string name,
             std::uint64_t expected = kAnyRevision);

  /// Read inside a transaction: sees the transaction's own buffered
  /// writes, else the committed state.
  std::optional<ObjectView> get(std::uint64_t txn,
                                const std::string& name) const;

  /// Validate, log (one fsync), apply.  Returns the number of writes
  /// applied.  Throws ConflictError — the transaction is then gone — when
  /// any expected revision no longer matches.
  std::size_t commit(std::uint64_t txn);

  /// Drop a transaction; its buffered writes never reach the log.
  void abort(std::uint64_t txn);

  // --- autocommit operations ---------------------------------------------
  /// Single-write transaction; returns the new revision.
  std::uint64_t put(std::string name, std::string kind, std::string value,
                    std::uint64_t expected = kAnyRevision);
  /// Returns false when the object does not exist (nothing to erase).
  bool erase(const std::string& name, std::uint64_t expected = kAnyRevision);

  // --- reads --------------------------------------------------------------
  std::optional<ObjectView> get(const std::string& name) const;
  /// MVCC read of a historical revision still inside the history window.
  std::optional<ObjectView> get_at(const std::string& name,
                                   std::uint64_t revision) const;
  std::vector<VersionInfo> history(const std::string& name) const;
  std::vector<EntryInfo> list() const;
  /// Predicate query over live objects via the secondary indexes; see
  /// db/query.hpp for the filter, result and planner contract.
  QueryResult query(const QueryFilter& filter) const;
  bool contains(const std::string& name) const;
  /// Current revision of a live object; 0 when absent or deleted.
  std::uint64_t revision_of(const std::string& name) const;
  /// Live (non-deleted) object count.
  std::size_t size() const;

  // --- maintenance --------------------------------------------------------
  /// Snapshot the table and truncate the WAL (log compaction).  On an I/O
  /// failure before the snapshot is published, the engine stays healthy
  /// (the old snapshot plus the intact log still recover everything) and
  /// the error propagates; a failure truncating the log afterwards
  /// degrades the engine.
  void checkpoint();

  /// True after a durability failure put the engine in read-only mode.
  bool degraded() const;
  /// Why (empty when not degraded).
  std::string degraded_reason() const;

  /// Re-open the store from its durable state (snapshot load + log
  /// replay), dropping open transactions and clearing degraded mode.
  /// This is the only way out of degraded mode.  No-op in memory mode.
  void recover();

  EngineStats stats() const;
  EngineState state() const;
  const EngineOptions& options() const { return options_; }

 private:
  /// A version is stored as the snapshot encodes it, so a checkpoint
  /// encodes the chains in place.
  using Version = SnapshotVersion;
  struct Chain {
    std::vector<Version> versions;  ///< ascending revision, trimmed window
  };
  struct PendingWrite {
    std::string name;
    std::string kind;
    std::optional<std::string> value;  ///< nullopt = erase
    std::uint64_t expected = kAnyRevision;
  };
  struct Txn {
    std::vector<PendingWrite> writes;
  };

  /// What a name's revision counter would read once every in-flight
  /// (appended, not yet fsynced) group-commit batch lands.
  struct HeadView {
    std::uint64_t revision = 0;  ///< 0 when the name has never existed
    bool deleted = true;
  };

  /// One group-commit batch: the transactions whose WAL frames share one
  /// fsync.  The first transaction to open a batch is its leader; it runs
  /// the window timer, the fsync and the apply, then wakes the members.
  struct Batch {
    std::uint64_t seq = 0;           ///< fsync/apply order, 1-based
    std::uint64_t start_bytes = 0;   ///< WAL position before the batch
    std::uint64_t start_records = 0;
    bool sealed = false;  ///< no longer accepting members
    bool done = false;    ///< outcome decided; members may wake
    bool failed = false;  ///< outcome was an I/O failure
    IoOp error_op = IoOp::Fsync;  ///< failure detail for members' throw
    std::string error_path;
    int error_code = 0;
    struct Member {
      std::uint64_t txn = 0;
      std::vector<std::string> names;
      std::vector<Version> versions;
    };
    std::vector<Member> members;  ///< in WAL append order
    std::condition_variable cv;   ///< sealed (leader) / done (members)
  };

  void open_locked();
  std::size_t commit_writes_locked(std::unique_lock<std::mutex>& lock,
                                   std::uint64_t txn,
                                   std::vector<PendingWrite> writes,
                                   std::uint64_t* last_revision = nullptr);
  std::size_t group_commit_locked(std::unique_lock<std::mutex>& lock,
                                  std::uint64_t txn,
                                  std::vector<PendingWrite> writes,
                                  std::vector<Version> versions,
                                  std::uint64_t pre_bytes,
                                  std::uint64_t pre_records);
  void lead_batch_locked(std::unique_lock<std::mutex>& lock,
                         const std::shared_ptr<Batch>& batch);
  void fail_batches_locked(const IoError& error);
  void apply_version_locked(const std::string& name, Version version);
  void rebuild_indexes_locked();
  const Version* current_version_locked(const std::string& name) const;
  HeadView effective_head_locked(const std::string& name) const;
  void check_expected_locked(const std::string& name,
                             std::uint64_t expected) const;
  void checkpoint_locked();
  void fail_locked(FailureSite site, std::string reason);
  void ensure_writable_locked() const;

  EngineOptions options_;
  std::shared_ptr<Vfs> vfs_;
  mutable std::mutex mutex_;
  std::map<std::string, Chain> objects_;
  std::map<std::uint64_t, Txn> open_txns_;
  std::uint64_t next_txn_ = 1;
  std::unique_ptr<Wal> wal_;  ///< null in memory mode
  std::string snapshot_path_;
  mutable EngineStats stats_;  ///< mutable: query() counts under a const lock
  /// Health lifecycle (healthy -> degraded -> recover()); the site->policy
  /// mapping lives in health.hpp, shared with the bounded model checker.
  HealthModel health_;

  // --- group-commit coordinator (all guarded by mutex_) ------------------
  std::shared_ptr<Batch> filling_;  ///< open batch accepting members
  std::map<std::uint64_t, std::shared_ptr<Batch>> batches_;  ///< in flight
  std::uint64_t next_batch_seq_ = 1;
  std::uint64_t applied_batch_seq_ = 0;  ///< last batch fsynced + applied
  /// Wakes leaders waiting their fsync turn, plus checkpoint()/recover()
  /// waiting for in-flight batches to drain.
  std::condition_variable sync_order_cv_;
  /// Revision heads already claimed by appended-but-unsynced batches, so
  /// later transactions validate and number against in-flight state.
  std::map<std::string, HeadView> pending_heads_;

  // --- secondary indexes over live heads (guarded by mutex_) -------------
  std::map<std::string, std::set<std::string>> kind_index_;
  std::set<std::pair<std::uint64_t, std::string>> revision_index_;
};

}  // namespace fem2::db

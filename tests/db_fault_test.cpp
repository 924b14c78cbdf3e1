// Storage fault-injection tests: the Vfs boundary, the deterministic
// FaultVfs, WAL append self-healing, fail-safe degraded mode, retry
// scheduling — and the central robustness property, proved by an
// operation-level fault sweep: for EVERY write/fsync/rename/truncate/
// dir_sync index a deterministic workload issues (commit and checkpoint
// paths included), inject a failure there, crash to the durable image,
// recover, and show the store holds exactly the acknowledged commits —
// nothing lost, nothing resurrected, no fsync-gate.
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "db/engine.hpp"
#include "db/iofault.hpp"
#include "db/retry.hpp"
#include "db/snapshot.hpp"
#include "db/wal.hpp"

namespace fs = std::filesystem;
using namespace fem2;

namespace {

struct TempDir {
  explicit TempDir(const std::string& tag)
      : path(fs::path(::testing::TempDir()) / ("fem2_iofault_" + tag)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  fs::path path;
  std::string str() const { return path.string(); }
};

db::EngineOptions options_for(const TempDir& dir) {
  db::EngineOptions options;
  options.directory = dir.str();
  return options;
}

db::EngineOptions faulted_options(const TempDir& dir,
                                  std::shared_ptr<db::Vfs> vfs) {
  db::EngineOptions options;
  options.directory = dir.str();
  options.compact_after_bytes = 0;  // checkpoints only where the test says
  options.vfs = std::move(vfs);
  return options;
}

std::string read_raw(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

struct LiveObject {
  std::string kind;
  std::string value;
  std::uint64_t revision = 0;
  bool operator==(const LiveObject&) const = default;
};

using StateMap = std::map<std::string, LiveObject>;

StateMap live_state(const db::Engine& engine) {
  StateMap out;
  for (const auto& entry : engine.list()) {
    const auto view = engine.get(entry.name);
    EXPECT_TRUE(view.has_value()) << entry.name;
    if (view) out[entry.name] = {view->kind, view->value, view->revision};
  }
  return out;
}

// ---------------------------------------------------------------------------
// Vfs basics

TEST(Vfs, PosixRoundTrip) {
  TempDir dir("posix");
  auto& vfs = *db::Vfs::posix();
  const std::string path = dir.str() + "/file.bin";

  EXPECT_FALSE(vfs.read_file(path).has_value());

  {
    auto file = vfs.create_truncate(path);
    file->write_all("hello ");
    file->write_all("world");
    file->sync();
    EXPECT_EQ(file->size(), 11u);
  }
  EXPECT_EQ(vfs.read_file(path).value(), "hello world");

  {
    auto file = vfs.open_append(path);
    file->write_all("!");
  }
  EXPECT_EQ(vfs.read_file(path).value(), "hello world!");

  {
    auto file = vfs.open_append(path);
    file->truncate(5);
    file->write_all("!");
  }
  EXPECT_EQ(vfs.read_file(path).value(), "hello!");

  const std::string moved = dir.str() + "/moved.bin";
  vfs.rename(path, moved);
  vfs.dir_sync(dir.str());
  EXPECT_FALSE(vfs.read_file(path).has_value());
  EXPECT_EQ(vfs.read_file(moved).value(), "hello!");
}

TEST(Vfs, IoErrorCarriesOpPathAndErrno) {
  const db::IoError error(db::IoOp::Fsync, "/data/wal.f2db", EIO);
  EXPECT_EQ(error.op(), db::IoOp::Fsync);
  EXPECT_EQ(error.path(), "/data/wal.f2db");
  EXPECT_EQ(error.code(), EIO);
  EXPECT_FALSE(error.transient());
  EXPECT_NE(std::string(error.what()).find("fsync"), std::string::npos);
  EXPECT_NE(std::string(error.what()).find("/data/wal.f2db"),
            std::string::npos);

  EXPECT_TRUE(db::IoError(db::IoOp::Write, "x", EINTR).transient());
  EXPECT_TRUE(db::IoError(db::IoOp::Write, "x", EAGAIN).transient());
  EXPECT_FALSE(db::IoError(db::IoOp::Write, "x", ENOSPC).transient());
}

TEST(Vfs, ParentDirectory) {
  EXPECT_EQ(db::parent_directory("/a/b/c.txt"), "/a/b");
  EXPECT_EQ(db::parent_directory("c.txt"), ".");
}

// ---------------------------------------------------------------------------
// FaultVfs: deterministic fault firing

TEST(FaultVfs, FailsTheNthWriteWithTheChosenErrno) {
  TempDir dir("nth_write");
  db::IoFaultPlan plan;
  plan.fail(db::IoOp::Write, 1, ENOSPC);
  auto vfs = std::make_shared<db::FaultVfs>(plan);

  auto file = vfs->create_truncate(dir.str() + "/f");
  file->write_all("first");  // write #0 passes
  try {
    file->write_all("second");  // write #1 fires
    FAIL() << "expected IoError";
  } catch (const db::IoError& e) {
    EXPECT_EQ(e.op(), db::IoOp::Write);
    EXPECT_EQ(e.code(), ENOSPC);
  }
  file->write_all("third");  // write #2 passes again
  EXPECT_EQ(vfs->faults_fired(), 1u);
  EXPECT_EQ(vfs->counts().write, 3u);
}

TEST(FaultVfs, ShortWritesAreAbsorbedByWriteAll) {
  TempDir dir("short_write");
  db::IoFaultPlan plan;
  plan.short_write(0, 3);
  auto vfs = std::make_shared<db::FaultVfs>(plan);

  auto file = vfs->create_truncate(dir.str() + "/f");
  file->write_all("0123456789");  // first write_some transfers only 3
  EXPECT_EQ(db::Vfs::posix()->read_file(dir.str() + "/f").value(),
            "0123456789");
  EXPECT_GE(vfs->counts().write, 2u);
  EXPECT_EQ(vfs->faults_fired(), 1u);
}

TEST(FaultVfs, EnospcAfterBudgetExhausted) {
  TempDir dir("enospc");
  db::IoFaultPlan plan;
  plan.enospc_after(8);
  auto vfs = std::make_shared<db::FaultVfs>(plan);

  auto file = vfs->create_truncate(dir.str() + "/f");
  file->write_all("12345678");  // exactly the budget
  try {
    file->write_all("x");
    FAIL() << "expected ENOSPC";
  } catch (const db::IoError& e) {
    EXPECT_EQ(e.code(), ENOSPC);
  }
}

TEST(FaultVfs, CrashLosesUnsyncedTailKeepsSyncedPrefix) {
  TempDir dir("durable");
  auto vfs = std::make_shared<db::FaultVfs>();
  const std::string path = dir.str() + "/f";
  {
    auto file = vfs->create_truncate(path);
    file->write_all("durable|");
    file->sync();
    file->write_all("lost");
  }
  vfs->crash_to_durable();
  EXPECT_EQ(read_raw(path), "durable|");
}

TEST(FaultVfs, LyingFsyncPersistsNothing) {
  TempDir dir("lying");
  db::IoFaultPlan plan;
  plan.lying_fsync(0);
  auto vfs = std::make_shared<db::FaultVfs>(plan);
  const std::string path = dir.str() + "/f";
  {
    auto file = vfs->create_truncate(path);
    file->write_all("gone after crash");
    file->sync();  // reports success, moves nothing to stable storage
  }
  vfs->crash_to_durable();
  EXPECT_EQ(read_raw(path), "");
}

TEST(FaultVfs, CrashKeepsTornFragmentWhenAsked) {
  TempDir dir("torn");
  auto vfs = std::make_shared<db::FaultVfs>();
  const std::string path = dir.str() + "/f";
  {
    auto file = vfs->create_truncate(path);
    file->write_all("ok|");
    file->sync();
    file->write_all("tornbytes");
  }
  vfs->crash_to_durable(4);
  EXPECT_EQ(read_raw(path), "ok|torn");
}

TEST(FaultVfs, CrashUndoesRenameNotCoveredByDirSync) {
  TempDir dir("rename");
  auto vfs = std::make_shared<db::FaultVfs>();
  const std::string tmp = dir.str() + "/snap.tmp";
  const std::string final = dir.str() + "/snap";
  {
    auto old_snap = vfs->create_truncate(final);
    old_snap->write_all("old");
    old_snap->sync();
  }
  vfs->dir_sync(dir.str());
  {
    auto new_snap = vfs->create_truncate(tmp);
    new_snap->write_all("new");
    new_snap->sync();
  }
  vfs->rename(tmp, final);
  // No dir_sync: the publish is not durable yet.
  vfs->crash_to_durable();
  EXPECT_EQ(read_raw(final), "old");
  EXPECT_EQ(read_raw(tmp), "new");
}

TEST(FaultVfs, DirSyncMakesRenameSurviveCrash) {
  TempDir dir("rename_synced");
  auto vfs = std::make_shared<db::FaultVfs>();
  const std::string tmp = dir.str() + "/snap.tmp";
  const std::string final = dir.str() + "/snap";
  {
    auto file = vfs->create_truncate(tmp);
    file->write_all("new");
    file->sync();
  }
  vfs->rename(tmp, final);
  vfs->dir_sync(dir.str());
  vfs->crash_to_durable();
  EXPECT_EQ(read_raw(final), "new");
  EXPECT_FALSE(fs::exists(tmp));
}

TEST(IoFaultPlan, RandomFsyncFailuresAreDeterministic) {
  const auto a = db::IoFaultPlan::random_fsync_failures(5, 100, 7);
  const auto b = db::IoFaultPlan::random_fsync_failures(5, 100, 7);
  ASSERT_EQ(a.size(), 5u);
  ASSERT_EQ(b.size(), 5u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.faults()[i].nth, b.faults()[i].nth);
    EXPECT_EQ(a.faults()[i].op, db::IoOp::Fsync);
    EXPECT_LT(a.faults()[i].nth, 100u);
  }
  const auto c = db::IoFaultPlan::random_fsync_failures(5, 100, 8);
  bool same = true;
  for (std::size_t i = 0; i < a.size(); ++i)
    same = same && a.faults()[i].nth == c.faults()[i].nth;
  EXPECT_FALSE(same) << "different seeds picked identical fault indices";
}

// ---------------------------------------------------------------------------
// WAL append self-healing

TEST(Wal, FailedAppendShearsItsPartialFrame) {
  TempDir dir("wal_shear");
  auto vfs = std::make_shared<db::FaultVfs>();
  const std::string path = dir.str() + "/wal.f2db";
  db::Wal wal(vfs, path);

  db::WalRecord record;
  record.type = db::RecordType::Put;
  record.txn = 1;
  record.name = "alpha";
  record.kind = "blob";
  record.value = std::string(100, 'v');
  record.revision = 1;
  wal.append(record);
  const std::uint64_t good = wal.bytes();

  // The next frame tears mid-write: 3 bytes land, then EIO.
  db::IoFaultPlan plan;
  plan.short_write(vfs->counts().write, 3);
  plan.fail(db::IoOp::Write, vfs->counts().write + 1, EIO);
  vfs->set_plan(plan);
  record.revision = 2;
  EXPECT_THROW(wal.append(record), db::IoError);

  // Counters and the file agree again: the partial frame is gone.
  EXPECT_EQ(wal.bytes(), good);
  EXPECT_FALSE(wal.torn());
  EXPECT_EQ(db::Vfs::posix()->read_file(path)->size(), good);

  vfs->set_plan({});
  record.revision = 3;
  wal.append(record);
  const auto replayed = db::Wal::replay(path);
  ASSERT_EQ(replayed.records.size(), 2u);
  EXPECT_EQ(replayed.records[0].revision, 1u);
  EXPECT_EQ(replayed.records[1].revision, 3u);
  EXPECT_FALSE(replayed.torn_tail);
}

TEST(Wal, ShearFailureMarksTheLogTorn) {
  TempDir dir("wal_torn");
  auto vfs = std::make_shared<db::FaultVfs>();
  const std::string path = dir.str() + "/wal.f2db";
  db::Wal wal(vfs, path);

  db::WalRecord record;
  record.type = db::RecordType::TxnBegin;
  record.txn = 1;
  wal.append(record);

  // Both the append and the recovery truncate fail.
  db::IoFaultPlan plan;
  plan.short_write(vfs->counts().write, 2);
  plan.fail(db::IoOp::Write, vfs->counts().write + 1, EIO);
  plan.fail(db::IoOp::Truncate, vfs->counts().truncate, EIO);
  vfs->set_plan(plan);
  EXPECT_THROW(wal.append(record), db::IoError);
  EXPECT_TRUE(wal.torn());

  // truncate_to (the engine's rollback) clears the flag when it succeeds.
  vfs->set_plan({});
  wal.truncate_to(wal.bytes(), wal.records());
  EXPECT_FALSE(wal.torn());
}

// ---------------------------------------------------------------------------
// Snapshot directory durability (the silently-ignored failure, fixed)

TEST(Snapshot, DirSyncFailureSurfacesAsIoError) {
  TempDir dir("snap_dirsync");
  db::IoFaultPlan plan;
  plan.fail(db::IoOp::DirSync, 0, EIO);
  auto vfs = std::make_shared<db::FaultVfs>(plan);

  db::SnapshotData data;
  data.next_txn = 5;
  const std::string path = dir.str() + "/snapshot.f2db";
  try {
    db::write_snapshot(*vfs, path, data);
    FAIL() << "expected IoError from the directory fsync";
  } catch (const db::IoError& e) {
    EXPECT_EQ(e.op(), db::IoOp::DirSync);
  }

  // And the failure is honest: a crash now really can lose the publish.
  vfs->crash_to_durable();
  EXPECT_FALSE(db::Vfs::posix()->read_file(path).has_value());
}

// ---------------------------------------------------------------------------
// Engine failure classification

TEST(Engine, EnospcFailsCommitsCleanlyWithoutDegrading) {
  TempDir dir("engine_enospc");
  auto vfs = std::make_shared<db::FaultVfs>();
  db::Engine engine(faulted_options(dir, vfs));
  const auto rev = engine.put("alpha", "blob", "kept");
  ASSERT_EQ(rev, 1u);

  db::IoFaultPlan plan;
  plan.enospc_after(1);  // effectively a full disk from here on
  vfs->set_plan(plan);

  // Every commit fails cleanly; the engine never degrades, because the
  // rollback leaves the log exactly as before each attempt.
  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW(engine.put("beta", "blob", "never"), db::IoError);
    EXPECT_FALSE(engine.degraded());
  }
  EXPECT_EQ(engine.stats().io_errors, 3u);
  EXPECT_EQ(engine.get("alpha")->value, "kept");
  EXPECT_FALSE(engine.contains("beta"));

  // Space returns; writes work again without any recovery step.
  vfs->set_plan({});
  EXPECT_EQ(engine.put("beta", "blob", "now"), 1u);
}

TEST(Engine, FsyncFailureEntersStickyDegradedMode) {
  TempDir dir("engine_degraded");
  auto vfs = std::make_shared<db::FaultVfs>();
  db::Engine engine(faulted_options(dir, vfs));
  engine.put("alpha", "blob", "v1");
  engine.put("beta", "blob", "v1");
  const StateMap committed = live_state(engine);

  db::IoFaultPlan plan;
  plan.fail(db::IoOp::Fsync, vfs->counts().fsync, EIO);
  vfs->set_plan(plan);
  EXPECT_THROW(engine.put("alpha", "blob", "v2"), db::IoError);

  EXPECT_TRUE(engine.degraded());
  EXPECT_EQ(engine.state().mode, "degraded");
  EXPECT_EQ(engine.stats().degraded_entries, 1u);

  // Sticky: clearing the fault does not clear the mode...
  vfs->set_plan({});
  EXPECT_THROW(engine.put("alpha", "blob", "v3"), db::DegradedError);
  EXPECT_THROW(engine.begin(), db::DegradedError);
  EXPECT_THROW(engine.erase("beta"), db::DegradedError);
  EXPECT_THROW(engine.checkpoint(), db::DegradedError);

  // ...while reads and history keep serving.
  EXPECT_EQ(live_state(engine), committed);
  EXPECT_EQ(engine.history("alpha").size(), 1u);
  EXPECT_EQ(engine.revision_of("beta"), 1u);

  // recover() is the only exit: re-open from durable state.
  engine.recover();
  EXPECT_FALSE(engine.degraded());
  EXPECT_EQ(engine.state().mode, "persistent");
  EXPECT_EQ(engine.stats().recoveries, 1u);
  EXPECT_EQ(live_state(engine), committed);
  EXPECT_EQ(engine.put("alpha", "blob", "v2"), 2u);
}

TEST(Engine, NoFsyncGateTheFailedCommitNeverBecomesDurable) {
  TempDir dir("fsync_gate");
  auto vfs = std::make_shared<db::FaultVfs>();
  StateMap committed;
  {
    db::Engine engine(faulted_options(dir, vfs));
    engine.put("alpha", "blob", "v1");
    committed = live_state(engine);

    db::IoFaultPlan plan;
    plan.fail(db::IoOp::Fsync, vfs->counts().fsync, EIO);
    vfs->set_plan(plan);
    EXPECT_THROW(engine.put("alpha", "blob", "FAILED-COMMIT"), db::IoError);
    vfs->set_plan({});

    // The gate scenario: were the engine to accept this next commit, its
    // fsync would durably publish the failed one too.  Degraded mode
    // refuses it.
    EXPECT_THROW(engine.put("beta", "blob", "would-publish-the-ghost"),
                 db::DegradedError);
  }
  vfs->crash_to_durable();
  db::Engine reopened(options_for(dir));
  EXPECT_EQ(live_state(reopened), committed);
}

TEST(Engine, LyingFsyncAckedCommitVanishesAtCrashButPrefixHolds) {
  TempDir dir("lying_engine");
  db::IoFaultPlan plan;
  auto vfs = std::make_shared<db::FaultVfs>();
  {
    db::Engine engine(faulted_options(dir, vfs));
    engine.put("alpha", "blob", "durable");
    // The second commit's fsync lies: the engine acks it in good faith.
    db::IoFaultPlan lying;
    lying.lying_fsync(vfs->counts().fsync);
    vfs->set_plan(lying);
    EXPECT_EQ(engine.put("beta", "blob", "acked-but-lost"), 1u);
    EXPECT_FALSE(engine.degraded());  // the lie is invisible until a crash
  }
  vfs->crash_to_durable();
  // The lost commit disappears whole; the earlier prefix survives whole.
  db::Engine reopened(options_for(dir));
  EXPECT_EQ(reopened.get("alpha")->value, "durable");
  EXPECT_FALSE(reopened.contains("beta"));
}

TEST(Engine, SnapshotPhaseCheckpointFailureKeepsEngineHealthy) {
  TempDir dir("ckpt_snapshot_fail");
  auto vfs = std::make_shared<db::FaultVfs>();
  db::Engine engine(faulted_options(dir, vfs));
  engine.put("alpha", "blob", "v1");

  db::IoFaultPlan plan;
  plan.fail(db::IoOp::Rename, 0, EIO);  // the snapshot publish step
  vfs->set_plan(plan);
  EXPECT_THROW(engine.checkpoint(), db::IoError);
  EXPECT_FALSE(engine.degraded());
  EXPECT_EQ(engine.stats().checkpoint_failures, 1u);
  EXPECT_EQ(engine.stats().checkpoints, 0u);

  // Commits keep flowing; the next checkpoint succeeds.
  vfs->set_plan({});
  engine.put("alpha", "blob", "v2");
  engine.checkpoint();
  EXPECT_EQ(engine.stats().checkpoints, 1u);
}

TEST(Engine, CrashBetweenSnapshotPublishAndLogResetReplaysOnce) {
  TempDir dir("ckpt_publish_no_reset");
  auto vfs = std::make_shared<db::FaultVfs>();
  StateMap committed;
  std::vector<db::VersionInfo> alpha_history;
  {
    db::Engine engine(faulted_options(dir, vfs));
    engine.put("alpha", "blob", "v1");
    engine.put("alpha", "blob", "v2");
    engine.put("beta", "blob", "b1");
    committed = live_state(engine);
    alpha_history = engine.history("alpha");

    // The checkpoint publishes its snapshot (tmp + rename + dir_sync all
    // succeed) and then fails to truncate the log — the exact window the
    // replay idempotence guard exists for.
    db::IoFaultPlan plan;
    plan.fail(db::IoOp::Truncate, vfs->counts().truncate, EIO);
    vfs->set_plan(plan);
    EXPECT_THROW(engine.checkpoint(), db::IoError);
    EXPECT_TRUE(engine.degraded());
    EXPECT_EQ(engine.stats().checkpoint_failures, 1u);
  }
  vfs->crash_to_durable();

  // Recovery sees the NEW snapshot plus the FULL old log; every log
  // record is already in the snapshot and must be applied zero times.
  db::Engine reopened(options_for(dir));
  EXPECT_EQ(live_state(reopened), committed);
  const auto replayed_history = reopened.history("alpha");
  ASSERT_EQ(replayed_history.size(), alpha_history.size());
  for (std::size_t i = 0; i < replayed_history.size(); ++i)
    EXPECT_EQ(replayed_history[i].revision, alpha_history[i].revision);
}

// ---------------------------------------------------------------------------
// The operation-level fault sweep

constexpr const char* kObjects[3] = {"alpha", "beta", "gamma"};

/// Deterministic workload mixing autocommit puts, erases, an explicit
/// checkpoint and a multi-write transaction.  Every ACKNOWLEDGED commit
/// updates `acked`; failed ones must leave no durable trace.  Returns
/// normally even when the engine degrades mid-way.
void run_workload(db::Engine& engine, StateMap& acked) {
  for (int step = 0; step < 12; ++step) {
    const std::string name = kObjects[step % 3];
    const std::string value =
        "v" + std::to_string(step) + "-" + std::string(48, 'x');
    try {
      const auto rev = engine.put(name, "blob", value);
      acked[name] = {"blob", value, rev};
    } catch (const db::Error&) {
    }
    if (step == 7) {
      const std::string victim = kObjects[2];
      try {
        if (engine.erase(victim)) acked.erase(victim);
      } catch (const db::Error&) {
      }
    }
    if (step == 5 || step == 9) {
      try {
        engine.checkpoint();
      } catch (const db::Error&) {
      }
    }
  }
  try {
    const auto txn = engine.begin();
    engine.put(txn, "alpha", "blob", "txn-a");
    engine.put(txn, "beta", "blob", "txn-b");
    engine.commit(txn);
    acked["alpha"] = {"blob", "txn-a", engine.revision_of("alpha")};
    acked["beta"] = {"blob", "txn-b", engine.revision_of("beta")};
  } catch (const db::Error&) {
  }
}

TEST(FaultSweep, EveryOpIndexRecoversToExactlyTheAckedPrefix) {
  // Pass 1: a clean run counts the operations the workload issues (and
  // proves the workload itself recovers cleanly).
  db::IoOpCounts counts;
  {
    TempDir dir("sweep_count");
    auto vfs = std::make_shared<db::FaultVfs>();
    StateMap acked;
    {
      db::Engine engine(faulted_options(dir, vfs));
      run_workload(engine, acked);
      EXPECT_FALSE(engine.degraded());
    }
    counts = vfs->counts();
    db::Engine reopened(options_for(dir));
    EXPECT_EQ(live_state(reopened), acked);
  }
  ASSERT_GT(counts.write, 0u);
  ASSERT_GT(counts.fsync, 0u);
  ASSERT_GT(counts.rename, 0u);
  ASSERT_GT(counts.truncate, 0u);
  ASSERT_GT(counts.dir_sync, 0u);

  // Pass 2: fail every one of those operations, one run per fault.
  const db::IoOp kinds[] = {db::IoOp::Write, db::IoOp::Fsync,
                            db::IoOp::Rename, db::IoOp::Truncate,
                            db::IoOp::DirSync};
  for (const auto op : kinds) {
    for (std::uint64_t nth = 0; nth < counts.of(op); ++nth) {
      SCOPED_TRACE(std::string("fault: fail ") + db::io_op_name(op) + " #" +
                   std::to_string(nth));
      TempDir dir("sweep_run");
      db::IoFaultPlan plan;
      plan.fail(op, nth, EIO);
      auto vfs = std::make_shared<db::FaultVfs>(plan);
      StateMap acked;
      {
        db::Engine engine(faulted_options(dir, vfs));
        run_workload(engine, acked);
        if (engine.degraded()) {
          vfs->set_plan({});
          // Degraded is sticky and read-only until recover()...
          EXPECT_THROW(engine.put("alpha", "blob", "refused"),
                       db::DegradedError);
          EXPECT_EQ(live_state(engine), acked);
          // ...and recover() restores exactly the acked commits and
          // makes the engine writable again.
          engine.recover();
          EXPECT_FALSE(engine.degraded());
          EXPECT_EQ(live_state(engine), acked);
          const auto rev = engine.put("post", "blob", "after-recover");
          acked["post"] = {"blob", "after-recover", rev};
        }
      }
      // Power loss: only the durable image survives.  Recovery must
      // yield the acknowledged commits — all of them, none extra.
      vfs->crash_to_durable();
      db::Engine reopened(options_for(dir));
      EXPECT_EQ(live_state(reopened), acked);
      EXPECT_FALSE(reopened.degraded());
    }
  }
}

// ---------------------------------------------------------------------------
// Retry scheduling

TEST(Retry, ScheduleIsDeterministicPerSeed) {
  db::RetryPolicy policy;
  policy.max_attempts = 6;
  policy.jitter = 0.5;
  policy.seed = 1234;

  std::vector<std::int64_t> first;
  {
    db::RetrySchedule schedule(policy);
    while (const auto delay = schedule.next_delay())
      first.push_back(delay->count());
  }
  ASSERT_EQ(first.size(), policy.max_attempts - 1);
  db::RetrySchedule again(policy);
  for (const auto expected : first)
    EXPECT_EQ(again.next_delay()->count(), expected);

  policy.seed = 4321;
  db::RetrySchedule other(policy);
  bool identical = true;
  for (const auto expected : first)
    identical = identical && other.next_delay()->count() == expected;
  EXPECT_FALSE(identical) << "jitter ignored the seed";
}

TEST(Retry, BackoffGrowsExponentiallyWithinJitterBounds) {
  db::RetryPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff = std::chrono::microseconds(100);
  policy.backoff_multiplier = 2.0;
  policy.max_backoff = std::chrono::microseconds(1000);
  policy.jitter = 0.25;
  db::RetrySchedule schedule(policy);
  double base = 100.0;
  while (const auto delay = schedule.next_delay()) {
    EXPECT_GE(delay->count(), static_cast<std::int64_t>(base * 0.75) - 1);
    EXPECT_LE(delay->count(), static_cast<std::int64_t>(base));
    base = std::min(base * 2.0, 1000.0);
  }
  EXPECT_EQ(schedule.retries(), policy.max_attempts - 1);
}

TEST(Retry, OverallTimeoutBoundsTheScheduledBackoff) {
  db::RetryPolicy policy;
  policy.max_attempts = 100;
  policy.initial_backoff = std::chrono::microseconds(1000);
  policy.backoff_multiplier = 1.0;
  policy.jitter = 0.0;
  policy.overall_timeout = std::chrono::microseconds(3500);
  db::RetrySchedule schedule(policy);
  std::size_t granted = 0;
  while (schedule.next_delay()) granted += 1;
  EXPECT_EQ(granted, 3u);  // 3 x 1000us fits the 3500us budget, 4 does not
  EXPECT_LE(schedule.total_backoff().count(), 3500);
}

TEST(Retry, NonePolicyNeverRetries) {
  db::RetrySchedule schedule(db::RetryPolicy::none());
  EXPECT_FALSE(schedule.next_delay().has_value());
}

}  // namespace

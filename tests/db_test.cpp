// fem2-db engine tests: WAL framing, torn-tail tolerance, optimistic
// concurrency, MVCC history, checkpoint/compaction — and the central
// crash-recovery property, proved by a deterministic crash-point sweep:
// truncate the log at EVERY byte boundary and show that recovery always
// yields exactly the committed prefix (no lost committed transaction, no
// resurrected aborted transaction, never a crash on a torn tail).
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "db/bytes.hpp"
#include "db/crc32.hpp"
#include "db/engine.hpp"
#include "db/snapshot.hpp"
#include "db/wal.hpp"

namespace fs = std::filesystem;
using namespace fem2;

namespace {

// Fresh per-test scratch directory, removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& tag)
      : path(fs::path(::testing::TempDir()) / ("fem2_db_" + tag)) {
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

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const fs::path& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
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
// WAL record framing

db::WalRecord sample_record() {
  db::WalRecord r;
  r.type = db::RecordType::Put;
  r.txn = 42;
  r.name = "bridge";
  r.kind = "model";
  r.value = std::string("payload with\nnewlines and \0 bytes", 33);
  r.revision = 7;
  return r;
}

TEST(Crc32c, KnownAnswers) {
  // The iSCSI test vectors (RFC 3720 B.4) and the check value.
  std::vector<unsigned char> bytes(32, 0x00);
  EXPECT_EQ(db::crc32c(bytes.data(), bytes.size()), 0x8A9136AAu);
  std::fill(bytes.begin(), bytes.end(), 0xFF);
  EXPECT_EQ(db::crc32c(bytes.data(), bytes.size()), 0x62A8AB43u);
  for (std::size_t i = 0; i < 32; ++i) bytes[i] = static_cast<unsigned char>(i);
  EXPECT_EQ(db::crc32c(bytes.data(), bytes.size()), 0x46DD794Eu);
  for (std::size_t i = 0; i < 32; ++i)
    bytes[i] = static_cast<unsigned char>(31 - i);
  EXPECT_EQ(db::crc32c(bytes.data(), bytes.size()), 0x113FDB5Cu);
  EXPECT_EQ(db::crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(db::crc32c(nullptr, 0), 0u);
}

TEST(Crc32c, ChainsAtEverySplitAndStartOffset) {
  // The eight-byte loop and the byte tail must agree wherever a buffer
  // starts and however it is split: crc32c(b, crc32c(a)) == crc32c(a+b).
  std::vector<unsigned char> buffer(64 + 8);
  for (std::size_t i = 0; i < buffer.size(); ++i)
    buffer[i] = static_cast<unsigned char>(i * 167 + 13);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 64; ++length) {
      const unsigned char* data = buffer.data() + offset;
      std::uint32_t bytewise = 0;  // chained one byte at a time
      for (std::size_t i = 0; i < length; ++i)
        bytewise = db::crc32c(data + i, 1, bytewise);
      const std::uint32_t whole = db::crc32c(data, length);
      ASSERT_EQ(whole, bytewise) << "offset " << offset << " length "
                                 << length;
      for (std::size_t split = 0; split <= length; ++split)
        ASSERT_EQ(db::crc32c(data + split, length - split,
                             db::crc32c(data, split)),
                  whole)
            << "offset " << offset << " length " << length << " split "
            << split;
    }
  }
}

TEST(Wal, RecordRoundTripAllTypes) {
  // Each type frames exactly the fields it carries: Put everything, Erase
  // name+revision, the transaction markers only the txn id.
  std::vector<db::WalRecord> inputs;
  inputs.push_back(sample_record());
  db::WalRecord erase;
  erase.type = db::RecordType::Erase;
  erase.txn = 42;
  erase.name = "bridge";
  erase.revision = 9;
  inputs.push_back(erase);
  for (const auto type : {db::RecordType::TxnBegin, db::RecordType::TxnCommit,
                          db::RecordType::TxnAbort}) {
    db::WalRecord marker;
    marker.type = type;
    marker.txn = 1234567890123ULL;
    inputs.push_back(marker);
  }
  for (const auto& in : inputs) {
    const std::string frame = db::encode_record(in);
    db::WalRecord out;
    std::size_t offset = 0;
    ASSERT_EQ(db::decode_record(frame, offset, out), db::DecodeStatus::Ok);
    EXPECT_EQ(offset, frame.size());
    EXPECT_EQ(in, out);
  }
}

TEST(Wal, EveryProperPrefixIsTruncatedNotCorrupt) {
  const std::string frame = db::encode_record(sample_record());
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    db::WalRecord out;
    std::size_t offset = 0;
    EXPECT_EQ(db::decode_record(std::string_view(frame).substr(0, cut),
                                offset, out),
              db::DecodeStatus::Truncated)
        << "cut at " << cut;
  }
}

TEST(Wal, FlippedPayloadByteIsCorrupt) {
  const std::string frame = db::encode_record(sample_record());
  // Flip each payload byte in turn (skip the 8-byte header: a flipped
  // length field usually reads as Truncated instead, which is also safe).
  for (std::size_t i = 8; i < frame.size(); ++i) {
    std::string bad = frame;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    db::WalRecord out;
    std::size_t offset = 0;
    EXPECT_EQ(db::decode_record(bad, offset, out), db::DecodeStatus::Corrupt)
        << "flip at " << i;
  }
}

TEST(Wal, ReplayStopsAtGarbageTail) {
  TempDir dir("replay_tail");
  const fs::path log = dir.path / "wal.f2db";
  std::string bytes;
  std::vector<db::WalRecord> written;
  for (int i = 0; i < 5; ++i) {
    db::WalRecord r = sample_record();
    r.txn = static_cast<std::uint64_t>(i + 1);
    written.push_back(r);
    bytes += db::encode_record(r);
  }
  const std::uint64_t valid = bytes.size();
  bytes += "garbage that is not a frame";
  write_file(log, bytes);

  const db::ReplayResult replayed = db::Wal::replay(log.string());
  EXPECT_EQ(replayed.records, written);
  EXPECT_EQ(replayed.valid_bytes, valid);
  EXPECT_EQ(replayed.total_bytes, bytes.size());
  EXPECT_TRUE(replayed.torn_tail);
}

TEST(Wal, MissingFileIsEmptyLog) {
  const db::ReplayResult replayed = db::Wal::replay("/nonexistent/wal.f2db");
  EXPECT_TRUE(replayed.records.empty());
  EXPECT_EQ(replayed.total_bytes, 0u);
  EXPECT_FALSE(replayed.torn_tail);
}

// ---------------------------------------------------------------------------
// Snapshot decoding of counts that lie under a valid checksum

/// A snapshot file around `payload` with a correct CRC-32C trailer, so the
/// decoder gets past the checksum and must judge the counts themselves.
std::string framed_snapshot(std::string_view payload,
                            std::uint64_t payload_bytes) {
  std::string out("F2DBSNAP");
  db::append_u32(out, 1);
  db::append_u64(out, payload_bytes);
  out.append(payload);
  db::append_u32(out, db::crc32c(payload));
  return out;
}

/// Payload: next_txn, a chain count, then `chains` empty chains (12 bytes
/// each, the smallest chain record).
std::string chains_payload(std::uint64_t count, std::size_t chains) {
  std::string p;
  db::append_u64(p, 1);
  db::append_u64(p, count);
  for (std::size_t i = 0; i < chains; ++i) {
    db::append_string(p, "");
    db::append_u64(p, 0);
  }
  return p;
}

/// Payload: one chain "a" with a version count, then `versions` versions
/// with empty kind and value (25 bytes each, the smallest version record).
std::string versions_payload(std::uint64_t count, std::size_t versions) {
  std::string p;
  db::append_u64(p, 1);
  db::append_u64(p, 1);
  db::append_string(p, "a");
  db::append_u64(p, count);
  for (std::size_t v = 0; v < versions; ++v) {
    db::append_u64(p, v + 1);
    db::append_u8(p, 0);
    db::append_u64(p, 1);
    db::append_string(p, "");
    db::append_string(p, "");
  }
  return p;
}

TEST(Snapshot, CountsBeyondThePayloadThrowDbError) {
  TempDir dir("snapshot_counts");
  const std::string path = (dir.path / "snapshot.f2db").string();
  const auto load = [&](const std::string& bytes) {
    write_file(path, bytes);
    return db::load_snapshot(path);
  };

  // The honest files load, so each lie below is the only defect.
  const std::string two_chains = chains_payload(2, 2);
  const auto chains = load(framed_snapshot(two_chains, two_chains.size()));
  ASSERT_TRUE(chains.has_value());
  EXPECT_EQ(chains->chains.size(), 2u);
  const std::string two_versions = versions_payload(2, 2);
  const auto versions =
      load(framed_snapshot(two_versions, two_versions.size()));
  ASSERT_TRUE(versions.has_value());
  ASSERT_EQ(versions->chains.size(), 1u);
  EXPECT_EQ(versions->chains[0].versions.size(), 2u);

  for (const std::uint64_t count :
       {std::uint64_t{1} << 61, std::uint64_t{1} << 33, std::uint64_t{3}}) {
    const std::string payload = chains_payload(count, 2);
    EXPECT_THROW(load(framed_snapshot(payload, payload.size())), db::Error)
        << "chain count " << count;
  }
  const std::string lying_versions = versions_payload(3, 2);
  EXPECT_THROW(load(framed_snapshot(lying_versions, lying_versions.size())),
               db::Error);
  // payload_bytes + 4 must not wrap around to a small number.
  EXPECT_THROW(load(framed_snapshot(two_chains, ~std::uint64_t{0})),
               db::Error);
}

// ---------------------------------------------------------------------------
// Engine semantics (memory mode — identical minus durability)

TEST(Engine, AutocommitPutGetEraseRevisions) {
  db::Engine engine;
  EXPECT_EQ(engine.put("a", "model", "v1"), 1u);
  EXPECT_EQ(engine.put("a", "model", "v2"), 2u);
  EXPECT_EQ(engine.revision_of("a"), 2u);
  EXPECT_EQ(engine.get("a")->value, "v2");
  EXPECT_TRUE(engine.erase("a"));
  EXPECT_FALSE(engine.contains("a"));
  EXPECT_EQ(engine.revision_of("a"), 0u);
  EXPECT_FALSE(engine.erase("a"));  // nothing to erase
  // Revisions continue through deletes — no ABA reuse.
  EXPECT_EQ(engine.put("a", "model", "v3"), 4u);
  EXPECT_EQ(engine.size(), 1u);
}

TEST(Engine, CompareAndSwapSemantics) {
  db::Engine engine;
  // expected = 0: must not exist.
  EXPECT_EQ(engine.put("a", "model", "v1", 0), 1u);
  EXPECT_THROW(engine.put("a", "model", "clobber", 0), db::ConflictError);
  // expected = N: must currently be at N.
  EXPECT_EQ(engine.put("a", "model", "v2", 1), 2u);
  try {
    engine.put("a", "model", "stale", 1);
    FAIL() << "expected ConflictError";
  } catch (const db::ConflictError& e) {
    EXPECT_EQ(e.name(), "a");
    EXPECT_EQ(e.expected(), 1u);
    EXPECT_EQ(e.actual(), 2u);
  }
  // CAS erase.
  EXPECT_THROW(engine.erase("a", 1), db::ConflictError);
  EXPECT_TRUE(engine.erase("a", 2));
  EXPECT_EQ(engine.stats().conflicts, 3u);
}

TEST(Engine, TransactionReadYourWritesAndAbort) {
  db::Engine engine;
  engine.put("a", "model", "committed");
  const std::uint64_t txn = engine.begin();
  engine.put(txn, "a", "model", "mine");
  engine.put(txn, "b", "model", "new");
  engine.erase(txn, "a");  // later buffered write wins inside the txn
  EXPECT_FALSE(engine.get(txn, "a").has_value());
  EXPECT_EQ(engine.get(txn, "b")->value, "new");
  // Other readers still see the committed state.
  EXPECT_EQ(engine.get("a")->value, "committed");
  EXPECT_FALSE(engine.contains("b"));
  engine.abort(txn);
  EXPECT_EQ(engine.get("a")->value, "committed");
  EXPECT_FALSE(engine.contains("b"));
  EXPECT_EQ(engine.stats().aborts, 1u);
}

TEST(Engine, ConflictAtCommitDropsTransaction) {
  db::Engine engine;
  engine.put("a", "model", "v1");
  const std::uint64_t txn = engine.begin();
  engine.put(txn, "a", "model", "stale-write", 1);
  engine.put(txn, "b", "model", "never-applied");
  engine.put("a", "model", "v2");  // somebody else got there first
  EXPECT_THROW(engine.commit(txn), db::ConflictError);
  // All-or-nothing: no write of the conflicted txn is visible.
  EXPECT_EQ(engine.get("a")->value, "v2");
  EXPECT_FALSE(engine.contains("b"));
  // The transaction is gone.
  EXPECT_THROW(engine.commit(txn), db::Error);
}

TEST(Engine, MvccHistoryAndGetAt) {
  db::EngineOptions options;
  options.history_limit = 3;
  db::Engine engine(options);
  engine.put("a", "model", "v1");
  engine.put("a", "model", "v2");
  engine.erase("a");
  engine.put("a", "results", "v4");

  const auto history = engine.history("a");
  ASSERT_EQ(history.size(), 3u);  // bounded window; v1 trimmed
  EXPECT_EQ(history[0].revision, 2u);
  EXPECT_TRUE(history[1].deleted);
  EXPECT_EQ(history[2].revision, 4u);
  EXPECT_EQ(history[2].kind, "results");

  EXPECT_EQ(engine.get_at("a", 2)->value, "v2");
  EXPECT_FALSE(engine.get_at("a", 3).has_value());  // a delete marker
  EXPECT_FALSE(engine.get_at("a", 1).has_value());  // trimmed out
  EXPECT_EQ(engine.get_at("a", 4)->value, "v4");
}

TEST(Engine, ConcurrentCasStoresNeverLoseWrites) {
  db::Engine engine;
  constexpr int kThreads = 8;
  constexpr int kStoresPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&engine, t] {
      for (int i = 0; i < kStoresPerThread; ++i) {
        for (;;) {
          const std::uint64_t rev = engine.revision_of("hot");
          try {
            engine.put("hot", "model",
                       "t" + std::to_string(t) + "i" + std::to_string(i),
                       rev);
            break;
          } catch (const db::ConflictError&) {
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(engine.revision_of("hot"),
            static_cast<std::uint64_t>(kThreads * kStoresPerThread));
}

// ---------------------------------------------------------------------------
// Durability and recovery

TEST(Recovery, ReopenSeesCommittedState) {
  TempDir dir("reopen");
  StateMap before;
  {
    db::Engine engine(options_for(dir));
    engine.put("bridge", "model", "payload-1");
    engine.put("bridge", "model", "payload-2");
    const std::uint64_t txn = engine.begin();
    engine.put(txn, "mast", "model", "payload-3");
    engine.erase(txn, "bridge");
    engine.commit(txn);
    const std::uint64_t open = engine.begin();
    engine.put(open, "ghost", "model", "uncommitted");
    before = live_state(engine);
    // `open` is never committed: the destructor discards it.
  }
  db::Engine reopened(options_for(dir));
  EXPECT_EQ(live_state(reopened), before);
  EXPECT_FALSE(reopened.contains("ghost"));
  EXPECT_EQ(reopened.stats().recovered_txns, 3u);
  // Per-object revision counters must continue, not restart.
  EXPECT_EQ(reopened.put("mast", "model", "payload-4"), 2u);
}

TEST(Recovery, CheckpointCompactsLogAndSurvivesReopen) {
  TempDir dir("checkpoint");
  StateMap before;
  {
    db::Engine engine(options_for(dir));
    for (int i = 0; i < 10; ++i)
      engine.put("n" + std::to_string(i), "model", std::string(100, 'x'));
    const std::uint64_t wal_before = engine.stats().wal_bytes;
    engine.checkpoint();
    EXPECT_GT(wal_before, 0u);
    EXPECT_EQ(engine.stats().wal_bytes, 0u);  // log truncated
    EXPECT_EQ(engine.stats().checkpoints, 1u);
    engine.put("after", "model", "post-checkpoint");  // lands in new log
    before = live_state(engine);
  }
  db::Engine reopened(options_for(dir));
  EXPECT_EQ(live_state(reopened), before);
  EXPECT_TRUE(reopened.stats().recovered_snapshot);
  EXPECT_EQ(reopened.stats().recovered_txns, 1u);  // only "after"
}

TEST(Recovery, CheckpointBytesEqualTheCopiedSnapshot) {
  // A checkpoint writes exactly what write_snapshot writes for a
  // SnapshotData copied out of the engine's version chains.
  TempDir dir("checkpoint_bytes");
  db::Engine engine(options_for(dir));
  engine.put("b", "model", "b1");                     // txn 1
  engine.put("a", "results", std::string(300, 'r'));  // txn 2
  engine.put("b", "model", "b2");                     // txn 3
  engine.erase("a");                                  // txn 4
  const std::uint64_t txn = engine.begin();           // txn 5
  engine.put(txn, "c", "model", "");
  engine.put(txn, "b", "model", "b3");
  engine.commit(txn);
  engine.put("a", "results", "back");  // txn 6
  for (int i = 0; i < 12; ++i)         // txns 7..18; the chain is trimmed
    engine.put("d", "model", std::string(static_cast<std::size_t>(i), 'd'));
  engine.checkpoint();

  db::SnapshotData copied;
  copied.next_txn = 19;
  for (const auto& chain : engine.state().chains) {
    db::SnapshotChain out;
    out.name = chain.name;
    for (const auto& v : chain.versions) {
      const auto view = engine.get_at(chain.name, v.revision);
      out.versions.push_back({v.revision, v.deleted, v.txn, v.kind,
                              view ? view->value : std::string()});
    }
    copied.chains.push_back(std::move(out));
  }
  ASSERT_EQ(copied.chains.size(), 4u);
  const fs::path want = dir.path / "copied.f2db";
  db::write_snapshot(want.string(), copied);
  const std::string got = read_file(dir.path / "snapshot.f2db");
  EXPECT_FALSE(got.empty());
  EXPECT_EQ(got, read_file(want));
}

TEST(Recovery, AutoCheckpointTriggersOnLogGrowth) {
  TempDir dir("autockpt");
  db::EngineOptions options = options_for(dir);
  options.compact_after_bytes = 512;
  db::Engine engine(options);
  for (int i = 0; i < 50; ++i)
    engine.put("n", "model", std::string(64, static_cast<char>('a' + i % 26)));
  EXPECT_GE(engine.stats().checkpoints, 1u);
  EXPECT_LT(engine.stats().wal_bytes, 512u + 256u);
}

TEST(Recovery, TornTailIsShearedAndAppendsContinue) {
  TempDir dir("shear");
  const fs::path log = dir.path / "wal.f2db";
  {
    db::Engine engine(options_for(dir));
    engine.put("a", "model", "v1");
    engine.put("b", "model", "v2");
  }
  // Simulate a crash mid-append: chop the last record in half.
  std::string bytes = read_file(log);
  write_file(log, std::string_view(bytes).substr(0, bytes.size() - 7));
  {
    db::Engine engine(options_for(dir));
    EXPECT_EQ(engine.get("a")->value, "v1");
    EXPECT_FALSE(engine.contains("b"));  // its commit never hit the disk
    EXPECT_GT(engine.stats().recovery_discarded_bytes, 0u);
    engine.put("c", "model", "v3");  // appends go after the sheared tail
  }
  db::Engine engine(options_for(dir));
  EXPECT_EQ(engine.get("a")->value, "v1");
  EXPECT_EQ(engine.get("c")->value, "v3");
  EXPECT_FALSE(engine.contains("b"));
}

// ---------------------------------------------------------------------------
// The crash-point sweep: the acceptance property of fem2-db.
//
// Run a scripted transaction mix (commits, aborts, a conflict, an erase),
// recording the database state and the WAL length at every commit point.
// Then, for EVERY byte boundary L of the finished log, start a recovery
// from a copy truncated to L and require that the recovered state equals
// exactly the state at the last commit point <= L:
//
//   * zero lost committed transactions (everything before L survives),
//   * zero resurrected aborted transactions (aborted payloads are tagged
//     and must never appear),
//   * zero partial transactions (a torn commit is invisible),
//   * recovery never fails, whatever the cut.

TEST(Recovery, CrashPointSweepEveryByteBoundary) {
  TempDir dir("sweep_src");
  db::EngineOptions options = options_for(dir);
  options.compact_after_bytes = 0;  // keep every record in the log
  options.sync_on_commit = false;   // the sweep reads file bytes, not disk

  // (wal length after commit) -> expected state; the empty log maps to {}.
  std::vector<std::pair<std::uint64_t, StateMap>> commit_points;
  commit_points.emplace_back(0, StateMap{});
  {
    db::Engine engine(options);
    const auto mark = [&] {
      commit_points.emplace_back(engine.stats().wal_bytes,
                                 live_state(engine));
    };

    // txn 1: two puts, committed.
    std::uint64_t txn = engine.begin();
    engine.put(txn, "a", "model", "a-v1");
    engine.put(txn, "b", "model", "b-v1");
    engine.commit(txn);
    mark();

    // txn 2: aborted — must NEVER be visible at any cut.
    txn = engine.begin();
    engine.put(txn, "a", "model", "ABORTED-a");
    engine.put(txn, "c", "model", "ABORTED-c");
    engine.abort(txn);

    // autocommit put.
    engine.put("c", "model", "c-v1");
    mark();

    // txn 3: CAS update + erase, committed.
    txn = engine.begin();
    engine.put(txn, "a", "model", "a-v2", engine.revision_of("a"));
    engine.erase(txn, "b");
    engine.commit(txn);
    mark();

    // txn 4: conflicted at commit — also must never be visible.
    txn = engine.begin();
    engine.put(txn, "c", "model", "ABORTED-conflict", 1);
    engine.put("c", "model", "c-v2");  // bump past the expectation
    mark();
    EXPECT_THROW(engine.commit(txn), db::ConflictError);

    // txn 5: re-create the erased name, plus a fresh one.
    txn = engine.begin();
    engine.put(txn, "b", "model", "b-v2", 0);
    engine.put(txn, "d", "results", "d-v1");
    engine.commit(txn);
    mark();
  }

  const std::string log = read_file(dir.path / "wal.f2db");
  ASSERT_EQ(log.size(), commit_points.back().first);
  ASSERT_GT(log.size(), 0u);

  TempDir scratch("sweep_cut");
  for (std::size_t cut = 0; cut <= log.size(); ++cut) {
    // Fresh directory holding the log truncated at `cut` — the on-disk
    // image a crash at that byte would leave behind.
    const fs::path crash_dir = scratch.path / std::to_string(cut);
    fs::create_directories(crash_dir);
    write_file(crash_dir / "wal.f2db", std::string_view(log).substr(0, cut));

    const StateMap* expected = &commit_points.front().second;
    for (const auto& [bytes, state] : commit_points)
      if (bytes <= cut) expected = &state;

    db::EngineOptions crash_options;
    crash_options.directory = crash_dir.string();
    db::Engine recovered(crash_options);
    const StateMap actual = live_state(recovered);
    ASSERT_EQ(actual, *expected) << "cut at byte " << cut;
    for (const auto& [name, object] : actual) {
      ASSERT_EQ(object.value.find("ABORTED"), std::string::npos)
          << "aborted write resurrected at cut " << cut << ": " << name;
    }
    fs::remove_all(crash_dir);
  }
}

// Same property with a snapshot in front: the sweep only ever loses what
// the post-checkpoint log held; the checkpointed state is inviolable.
TEST(Recovery, CrashPointSweepAfterCheckpoint) {
  TempDir dir("sweep_ckpt");
  db::EngineOptions options = options_for(dir);
  options.compact_after_bytes = 0;
  options.sync_on_commit = false;

  std::vector<std::pair<std::uint64_t, StateMap>> commit_points;
  {
    db::Engine engine(options);
    engine.put("base", "model", "base-v1");
    engine.put("gone", "model", "temporary");
    engine.checkpoint();
    commit_points.emplace_back(0, live_state(engine));

    engine.put("base", "model", "base-v2");
    commit_points.emplace_back(engine.stats().wal_bytes,
                               live_state(engine));
    engine.erase("gone");
    commit_points.emplace_back(engine.stats().wal_bytes,
                               live_state(engine));
  }

  const std::string log = read_file(dir.path / "wal.f2db");
  const std::string snapshot = read_file(dir.path / "snapshot.f2db");
  ASSERT_GT(log.size(), 0u);
  ASSERT_GT(snapshot.size(), 0u);

  TempDir scratch("sweep_ckpt_cut");
  for (std::size_t cut = 0; cut <= log.size(); ++cut) {
    const fs::path crash_dir = scratch.path / std::to_string(cut);
    fs::create_directories(crash_dir);
    write_file(crash_dir / "snapshot.f2db", snapshot);
    write_file(crash_dir / "wal.f2db", std::string_view(log).substr(0, cut));

    const StateMap* expected = &commit_points.front().second;
    for (const auto& [bytes, state] : commit_points)
      if (bytes <= cut) expected = &state;

    db::EngineOptions crash_options;
    crash_options.directory = crash_dir.string();
    db::Engine recovered(crash_options);
    EXPECT_TRUE(recovered.stats().recovered_snapshot);
    ASSERT_EQ(live_state(recovered), *expected) << "cut at byte " << cut;
    fs::remove_all(crash_dir);
  }
}

}  // namespace

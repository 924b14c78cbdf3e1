// Snapshot files: a checkpoint of the whole object table (every version
// chain) written atomically, after which the write-ahead log up to that
// point is redundant and can be truncated (log compaction).
//
// Atomicity: the snapshot is written to `<path>.tmp`, fsync'd, then
// renamed over `<path>` (rename within a directory is atomic on POSIX),
// and the directory is fsync'd.  Recovery therefore sees either the old
// snapshot or the new one, never a half-written file; the CRC trailer
// turns any other corruption into a hard error instead of silent loss.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "db/vfs.hpp"

namespace fem2::db {

struct SnapshotVersion {
  std::uint64_t revision = 0;
  bool deleted = false;
  std::uint64_t txn = 0;
  std::string kind;
  std::string value;

  bool operator==(const SnapshotVersion&) const = default;
};

struct SnapshotChain {
  std::string name;
  std::vector<SnapshotVersion> versions;  ///< ascending revision

  bool operator==(const SnapshotChain&) const = default;
};

/// What a snapshot holds, without owning it: the engine encodes its own
/// version chains through one of these at every checkpoint, so the store
/// is never copied.
struct SnapshotChainView {
  std::string_view name;
  std::span<const SnapshotVersion> versions;  ///< ascending revision
};

struct SnapshotView {
  std::uint64_t next_txn = 1;
  std::vector<SnapshotChainView> chains;  ///< sorted by name
};

struct SnapshotData {
  std::uint64_t next_txn = 1;
  std::vector<SnapshotChain> chains;  ///< sorted by name

  bool operator==(const SnapshotData&) const = default;

  /// A view of this data, valid while it is unchanged.
  SnapshotView view() const;
};

/// Write `view` to `path` atomically (tmp + fsync + rename + dir fsync).
/// Every step that fails — including the directory fsync that makes the
/// rename durable — throws IoError; a snapshot is only "written" once the
/// whole chain succeeded.
void write_snapshot(Vfs& vfs, const std::string& path,
                    const SnapshotView& view);
void write_snapshot(Vfs& vfs, const std::string& path,
                    const SnapshotData& data);
void write_snapshot(const std::string& path, const SnapshotData& data);

/// Load a snapshot.  Returns nullopt when the file does not exist; throws
/// db::Error on a corrupt or incompatible file.
std::optional<SnapshotData> load_snapshot(Vfs& vfs, const std::string& path);
std::optional<SnapshotData> load_snapshot(const std::string& path);

}  // namespace fem2::db

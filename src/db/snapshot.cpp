#include "db/snapshot.hpp"

#include <cstring>

#include "db/bytes.hpp"
#include "db/crc32.hpp"
#include "support/check.hpp"

namespace fem2::db {

namespace {

constexpr char kMagic[8] = {'F', '2', 'D', 'B', 'S', 'N', 'A', 'P'};
constexpr std::uint32_t kFormatVersion = 1;
// The smallest encodings of a chain (empty name, version count) and of a
// version (revision, deleted flag, txn, empty kind and value).  A count is
// only believed if the bytes left could hold that many records.
constexpr std::size_t kMinChainBytes = 4 + 8;
constexpr std::size_t kMinVersionBytes = 8 + 1 + 8 + 4 + 4;

std::string encode(const SnapshotView& data) {
  // Header, payload and CRC trailer go into one buffer sized up front: a
  // snapshot holds every stored value, so each extra copy of it would
  // raise the checkpoint's peak memory by the size of the whole store.
  std::uint64_t payload_size = 8 + 8;
  for (const auto& chain : data.chains) {
    payload_size += 4 + chain.name.size() + 8;
    for (const auto& v : chain.versions)
      payload_size += 8 + 1 + 8 + 4 + v.kind.size() + 4 + v.value.size();
  }
  std::string out;
  out.reserve(sizeof kMagic + 4 + 8 + payload_size + 4);
  out.append(kMagic, sizeof kMagic);
  append_u32(out, kFormatVersion);
  append_u64(out, payload_size);
  const std::size_t payload_begin = out.size();
  append_u64(out, data.next_txn);
  append_u64(out, data.chains.size());
  for (const auto& chain : data.chains) {
    append_string(out, chain.name);
    append_u64(out, chain.versions.size());
    for (const auto& v : chain.versions) {
      append_u64(out, v.revision);
      append_u8(out, v.deleted ? 1 : 0);
      append_u64(out, v.txn);
      append_string(out, v.kind);
      append_string(out, v.value);
    }
  }
  FEM2_CHECK(out.size() - payload_begin == payload_size);
  append_u32(out, crc32c(std::string_view(out).substr(payload_begin)));
  return out;
}

SnapshotData decode(std::string_view bytes, const std::string& path) {
  const auto corrupt = [&path](const char* why) -> Error {
    return Error("snapshot '" + path + "' is corrupt: " + why);
  };
  if (bytes.size() < sizeof kMagic ||
      std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0)
    throw corrupt("bad magic");
  Cursor cursor(bytes.substr(sizeof kMagic));
  std::uint32_t version = 0;
  std::uint64_t payload_bytes = 0;
  if (!cursor.read_u32(version) || !cursor.read_u64(payload_bytes))
    throw corrupt("truncated header");
  if (version != kFormatVersion) throw corrupt("unknown format version");
  if (cursor.remaining() < 4 || cursor.remaining() - 4 < payload_bytes)
    throw corrupt("truncated body");
  const std::string_view payload =
      bytes.substr(sizeof kMagic + 12, payload_bytes);

  Cursor trailer(bytes.substr(sizeof kMagic + 12 + payload_bytes));
  std::uint32_t crc = 0;
  if (!trailer.read_u32(crc) || crc32c(payload) != crc)
    throw corrupt("checksum mismatch");

  SnapshotData data;
  Cursor body(payload);
  std::uint64_t chain_count = 0;
  if (!body.read_u64(data.next_txn) || !body.read_u64(chain_count))
    throw corrupt("truncated payload");
  if (chain_count > body.remaining() / kMinChainBytes)
    throw corrupt("chain count exceeds the payload");
  data.chains.resize(chain_count);
  for (auto& chain : data.chains) {
    std::uint64_t version_count = 0;
    if (!body.read_string(chain.name) || !body.read_u64(version_count))
      throw corrupt("truncated chain");
    if (version_count > body.remaining() / kMinVersionBytes)
      throw corrupt("version count exceeds the payload");
    chain.versions.resize(version_count);
    for (auto& v : chain.versions) {
      std::uint8_t deleted = 0;
      if (!body.read_u64(v.revision) || !body.read_u8(deleted) ||
          !body.read_u64(v.txn) || !body.read_string(v.kind) ||
          !body.read_string(v.value))
        throw corrupt("truncated version");
      v.deleted = deleted != 0;
    }
  }
  if (body.remaining() != 0) throw corrupt("trailing bytes in payload");
  return data;
}

}  // namespace

SnapshotView SnapshotData::view() const {
  SnapshotView out;
  out.next_txn = next_txn;
  out.chains.reserve(chains.size());
  for (const auto& chain : chains)
    out.chains.push_back({chain.name, chain.versions});
  return out;
}

void write_snapshot(Vfs& vfs, const std::string& path,
                    const SnapshotView& view) {
  const std::string bytes = encode(view);
  const std::string tmp = path + ".tmp";

  {
    auto file = vfs.create_truncate(tmp);
    file->write_all(bytes);
    file->sync();
  }

  vfs.rename(tmp, path);

  // Make the rename itself durable.  A failure here is a real failure:
  // until the directory is synced, a crash may legally resurrect the old
  // snapshot, so the caller must not treat the checkpoint as done.
  vfs.dir_sync(parent_directory(path));
}

void write_snapshot(Vfs& vfs, const std::string& path,
                    const SnapshotData& data) {
  write_snapshot(vfs, path, data.view());
}

void write_snapshot(const std::string& path, const SnapshotData& data) {
  write_snapshot(*Vfs::posix(), path, data.view());
}

std::optional<SnapshotData> load_snapshot(Vfs& vfs, const std::string& path) {
  const auto bytes = vfs.read_file(path);
  if (!bytes) return std::nullopt;
  return decode(*bytes, path);
}

std::optional<SnapshotData> load_snapshot(const std::string& path) {
  return load_snapshot(*Vfs::posix(), path);
}

}  // namespace fem2::db

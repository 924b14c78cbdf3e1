#include "db/crc32.hpp"

#include <array>

namespace fem2::db {

namespace {

// Reflected CRC-32C polynomial.
constexpr std::uint32_t kPolynomial = 0x82f63b78u;

using Table = std::array<std::uint32_t, 256>;

// Slicing-by-8 tables, built at compile time.  kTables[0] is the bytewise
// table; kTables[k][b] is the CRC of byte b followed by k zero bytes, so
// eight table lookups advance the CRC by eight bytes at once.
constexpr std::array<Table, 8> make_tables() {
  std::array<Table, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ ((crc & 1u) ? kPolynomial : 0u);
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      tables[k][i] = (tables[k - 1][i] >> 8) ^
                     tables[0][tables[k - 1][i] & 0xffu];
  return tables;
}

constexpr auto kTables = make_tables();

/// Little-endian 32-bit word from bytes, whatever the host's byte order.
std::uint32_t load_le32(const unsigned char* p) {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
         std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t size, std::uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t crc = ~seed;
  for (; size >= 8; bytes += 8, size -= 8) {
    const std::uint32_t lo = crc ^ load_le32(bytes);
    const std::uint32_t hi = load_le32(bytes + 4);
    crc = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
          kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
          kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size)
    crc = (crc >> 8) ^ kTables[0][(crc ^ *bytes) & 0xffu];
  return ~crc;
}

}  // namespace fem2::db

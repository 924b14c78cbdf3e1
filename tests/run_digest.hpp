// A 64-bit FNV-1a digest of a simulated run's observable output: the
// machine metrics dump, the OS stats dump and every tracer event.  Tests
// compare it with a constant recorded on an earlier build, which catches a
// change in event order that repeats itself from run to run.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "hw/trace.hpp"

namespace fem2::test_support {

class Fnv1a {
 public:
  void bytes(std::string_view s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  /// Little-endian, so the digest does not depend on the host.
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char c) { h_ = (h_ ^ c) * 1099511628211ull; }
  std::uint64_t h_ = 14695981039346656037ull;
};

inline std::uint64_t run_digest(std::string_view machine_dump,
                                std::string_view os_dump,
                                const std::vector<hw::TraceEvent>& trace) {
  Fnv1a h;
  h.bytes(machine_dump);
  h.bytes(os_dump);
  h.u64(trace.size());
  for (const auto& e : trace) {
    h.u64(e.time);
    h.u64(static_cast<std::uint64_t>(e.kind));
    h.u64(e.cluster.index);
    h.u64(e.pe);
    h.u64(e.bytes);
  }
  return h.value();
}

}  // namespace fem2::test_support

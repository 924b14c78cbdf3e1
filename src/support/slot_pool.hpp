// A vector of reusable slots: put() parks a value and returns its slot,
// take() moves the value out and frees the slot for a later put().
//
// It holds the values that are in flight between two events of the
// simulation: the engine's pending event actions and the OS's frames on
// the wire.  A slot index is a small handle that a queue entry or a
// packet carries instead of the value, and once the pool has grown to a
// run's high water, parking and taking allocate nothing.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace fem2::support {

template <typename T>
class SlotPool {
 public:
  using Slot = std::uint32_t;

  Slot put(T value) {
    if (free_.empty()) {
      FEM2_CHECK_MSG(slots_.size() < ~Slot{0}, "slot pool exhausted");
      slots_.push_back(std::move(value));
      return static_cast<Slot>(slots_.size() - 1);
    }
    const Slot slot = free_.back();
    free_.pop_back();
    slots_[slot] = std::move(value);
    return slot;
  }

  /// Move the value out of `slot` and free the slot.
  T take(Slot slot) {
    FEM2_CHECK(slot < slots_.size());
    T value = std::move(slots_[slot]);
    free_.push_back(slot);
    return value;
  }

  /// Slots ever created: the most values parked at once.
  std::size_t capacity() const { return slots_.size(); }
  /// Values parked now.
  std::size_t in_use() const { return slots_.size() - free_.size(); }

 private:
  std::vector<T> slots_;
  std::vector<Slot> free_;
};

}  // namespace fem2::support

// A first-in first-out queue over one reused ring of slots.
//
// It holds the simulator's per-event queues: each cluster's input queue of
// packets, the OS kernel's ready queue and a task's early resumes.  The
// ring grows by doubling and never shrinks, so once it has reached a run's
// high water, pushing and popping allocate nothing.  Popped slots keep a
// moved-from value until they are reused.
//
// Preconditions are checked with FEM2_CHECK in every build: the ring is
// not a standard container, so _GLIBCXX_ASSERTIONS does not see it.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace fem2::support {

template <typename T>
class Fifo {
 public:
  Fifo() = default;
  Fifo(Fifo&& other) noexcept
      : slots_(std::move(other.slots_)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  Fifo& operator=(Fifo&& other) noexcept {
    slots_ = std::move(other.slots_);
    other.slots_.clear();
    head_ = std::exchange(other.head_, 0);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  T& front() {
    FEM2_CHECK_MSG(size_ > 0, "front of an empty queue");
    return slots_[head_];
  }

  void push_back(T value) {
    grow_if_full();
    slots_[index(size_)] = std::move(value);
    ++size_;
  }

  void push_front(T value) {
    grow_if_full();
    head_ = (head_ + slots_.size() - 1) & mask();
    slots_[head_] = std::move(value);
    ++size_;
  }

  T pop_front() {
    FEM2_CHECK_MSG(size_ > 0, "pop_front of an empty queue");
    T value = std::move(slots_[head_]);
    head_ = (head_ + 1) & mask();
    --size_;
    return value;
  }

  /// Remove every value `pred` holds for, keeping the others in order.
  /// Returns how many were removed.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < size_; ++i) {
      T& value = slots_[index(i)];
      if (pred(std::as_const(value))) continue;
      if (kept != i) slots_[index(kept)] = std::move(value);
      ++kept;
    }
    const std::size_t removed = size_ - kept;
    for (std::size_t i = kept; i < size_; ++i) slots_[index(i)] = T{};
    size_ = kept;
    return removed;
  }

  /// Drop every value; the ring keeps its slots.
  void clear() {
    for (std::size_t i = 0; i < size_; ++i) slots_[index(i)] = T{};
    head_ = 0;
    size_ = 0;
  }

  /// Slots in the ring: the most values queued at once, rounded up to a
  /// power of two.
  std::size_t capacity() const { return slots_.size(); }

 private:
  static constexpr std::size_t kFirstCapacity = 8;

  std::size_t mask() const { return slots_.size() - 1; }
  std::size_t index(std::size_t i) const { return (head_ + i) & mask(); }

  void grow_if_full() {
    if (size_ < slots_.size()) return;
    std::vector<T> wider(slots_.empty() ? kFirstCapacity : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i)
      wider[i] = std::move(slots_[index(i)]);
    slots_.swap(wider);
    head_ = 0;
  }

  std::vector<T> slots_;  ///< size is zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace fem2::support

// Bounded, deterministic retry with exponential backoff.
//
// Two failure classes are worth an automatic retry at the session level:
// optimistic-concurrency conflicts (another session won the race; re-read
// and try again) and transient I/O errors (IoError::transient()).  Hard
// failures — EIO, ENOSPC, DegradedError — are not retried: they need
// recovery or an operator, and hammering them only hides that.
//
// Determinism: the jitter that de-synchronizes competing sessions comes
// from a seeded support::Rng, and the overall timeout is a budget on the
// *scheduled* backoff total rather than a wall-clock deadline.  Two runs
// with the same seed therefore make identical retry decisions, which is
// what lets chaos tests assert exact outcomes.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>

#include "support/rng.hpp"

namespace fem2::db {

struct RetryPolicy {
  /// Total attempts including the first; 1 = no retries.
  std::size_t max_attempts = 8;
  /// Backoff before the first retry.
  std::chrono::microseconds initial_backoff{500};
  /// Each subsequent backoff multiplies by this, capped at max_backoff.
  double backoff_multiplier = 2.0;
  std::chrono::microseconds max_backoff{50'000};
  /// Fraction of each backoff randomized away: the delay is drawn
  /// uniformly from [base * (1 - jitter), base].  0 = fully deterministic
  /// delays, 1 = full jitter.
  double jitter = 0.5;
  /// Budget on the total scheduled backoff; exceeding it stops retrying
  /// even if attempts remain.  Zero = no budget.
  std::chrono::microseconds overall_timeout{0};
  /// Seed for the jitter stream (give each session its own).
  std::uint64_t seed = 0x5eedf00dULL;

  /// A policy that never retries.
  static RetryPolicy none();
};

/// The deterministic core: yields the backoff before each retry, or
/// nullopt when the policy says give up.
class RetrySchedule {
 public:
  explicit RetrySchedule(RetryPolicy policy);

  /// Call after a retryable failure.  Returns the delay to wait before
  /// the next attempt, or nullopt when attempts or budget are exhausted.
  std::optional<std::chrono::microseconds> next_delay();

  /// Retries granted so far.
  std::size_t retries() const { return retries_; }
  /// Total backoff scheduled so far.
  std::chrono::microseconds total_backoff() const { return total_; }

 private:
  RetryPolicy policy_;
  support::Rng rng_;
  std::size_t retries_ = 0;
  std::chrono::microseconds total_{0};
};

/// How to wait — injectable so tests retry instantly while recording the
/// schedule.
using Sleeper = std::function<void(std::chrono::microseconds)>;

/// The default Sleeper: actually sleep.
void sleep_for(std::chrono::microseconds delay);

}  // namespace fem2::db

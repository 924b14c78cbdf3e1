// Deterministic random number generation.
//
// Every stochastic component of the simulator takes an explicit Rng so that
// tests and benchmarks are bit-reproducible across runs and platforms.  The
// generator is xoshiro256** seeded through SplitMix64, per the reference
// implementations of Blackman & Vigna.
#pragma once

#include <cstdint>
#include <vector>

namespace fem2::support {

/// SplitMix64: used to expand a single seed into generator state.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality, deterministic PRNG.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eedf00dULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next(); }

  std::uint64_t next();

  /// Uniform integer in [0, bound) without modulo bias (Lemire reduction).
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Bernoulli trial.
  bool chance(double p) { return uniform() < p; }

  /// Fisher–Yates shuffle of a vector.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace fem2::support

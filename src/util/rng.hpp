// Deterministic, stream-splittable random number generation.
//
// Simulation reproducibility requires per-LP random streams that are stable
// across runs and independent of scheduling; xoshiro256** seeded through
// splitmix64 gives high-quality independent streams from (seed, stream-id).
#pragma once

#include <cstdint>
#include <vector>

#include "util/common.hpp"

namespace dv {

/// splitmix64 step; used for seeding and cheap hashing.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** generator with convenience distributions.
class Rng {
 public:
  /// Seeds the generator from a (seed, stream) pair; distinct streams from
  /// the same seed are statistically independent.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL,
               std::uint64_t stream = 0);

  /// Raw 64 random bits.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform integer in [0, bound) — bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_range(std::int64_t lo, std::int64_t hi);

  /// True with probability p.
  bool next_bool(double p);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Picks a uniformly random element (container must be non-empty).
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    DV_REQUIRE(!v.empty(), "pick from empty vector");
    return v[static_cast<std::size_t>(next_below(v.size()))];
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace dv

#pragma once

#include <cstdint>
#include <limits>

/// \file rng.h
/// Deterministic pseudo-randomness for the whole library.
///
/// Two facilities:
///   * Rng        — a fast xoshiro256** stream for private randomness.
///   * mix_hash   — a keyed 64-bit mixer used to derive *shared* randomness:
///                  every party evaluates the same pure function of
///                  (seed, tag, index), so no bits ever need to be exchanged,
///                  matching the shared-randomness assumption of the paper.

namespace tft {

/// SplitMix64 step; also the canonical seeder for xoshiro.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Full-avalanche 64-bit finalizer (splitmix64 / murmur3-style).
[[nodiscard]] constexpr std::uint64_t fmix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The rounds of mix_hash(a, b, c) that do not read c. A caller hashing
/// many c under one (a, b) computes this once and finishes each c with
/// `mix_hash_last`.
[[nodiscard]] constexpr std::uint64_t mix_hash_prefix(std::uint64_t a, std::uint64_t b) noexcept {
  return fmix64(fmix64(a + 0x9e3779b97f4a7c15ULL) ^ (b + 0x9e3779b97f4a7c15ULL));
}

/// The last round of mix_hash: the one that reads c.
[[nodiscard]] constexpr std::uint64_t mix_hash_last(std::uint64_t prefix,
                                                    std::uint64_t c) noexcept {
  return fmix64(prefix ^ (c + 0x94d049bb133111ebULL));
}

/// Stateless keyed mixer: a pure pseudo-random function of its inputs.
/// Used to implement shared random permutations, vertex sampling and
/// Bernoulli coins that all players evaluate identically. Every input gets
/// a full finalizer round — protocol correctness leans on pairwise
/// independence of coins at *consecutive* indices (birthday-paradox
/// arguments), which a single multiply-avalanche does not deliver.
[[nodiscard]] constexpr std::uint64_t mix_hash(std::uint64_t a, std::uint64_t b,
                                               std::uint64_t c = 0) noexcept {
  return mix_hash_last(mix_hash_prefix(a, b), c);
}

/// xoshiro256** generator. Satisfies UniformRandomBitGenerator so it can be
/// used with <random> distributions, but the library mostly uses the
/// explicit helpers below for reproducibility across standard libraries.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& w : s_) w = splitmix64(sm);
  }

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be >= 1.
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli coin with success probability p (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

 private:
  [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4]{};
};

/// Counter-based stream derivation: the Rng for work item `stream` of a run
/// seeded with `seed`. A pure function of its inputs, so a trial's
/// randomness is bit-identical no matter which thread (or how many threads)
/// executes it — the reproducibility contract of util/parallel.h and the
/// bench runner. Distinct (seed, stream) pairs give independent streams up
/// to mix_hash quality.
[[nodiscard]] inline Rng derive_rng(std::uint64_t seed, std::uint64_t stream) noexcept {
  return Rng(mix_hash(0x7a617274ULL /* stream-domain tag */, seed, stream));
}

}  // namespace tft

#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.h"

/// \file shared_randomness.h
/// Shared (public) randomness, as assumed in Section 2 of the paper.
///
/// All parties hold the same seed and evaluate pure functions of
/// (seed, tag, index); no bits are ever exchanged to agree on random
/// choices. Tags identify the protocol step (phase, iteration, sub-step) so
/// distinct steps see independent streams.
///
/// The key primitive is `priority(tag, v)`: a pseudo-random 64-bit priority
/// per vertex that defines a common random permutation of V — "the first
/// vertex with respect to pi" (Algorithm 1) is the one minimizing
/// (priority, v). This avoids materializing pi while remaining identical
/// across players.
///
/// The value at (tag, index) is mix_hash(mix_hash(seed, a, b), c, index).
/// All of it but the last round depends on the tag alone, so a loop that
/// draws many values under one tag takes a `SharedStream` (or a
/// `SharedCoin`) once and pays one fmix64 per value.

namespace tft {

/// A tag naming one use of shared randomness. Compose from protocol-specific
/// small integers; distinct tags yield (pseudo-)independent streams.
struct SharedTag {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

/// One tag's stream: the tag's hash prefix, so each value is one round.
class SharedStream {
 public:
  /// Raw 64 pseudo-random bits at `index`; equals SharedRandomness::value.
  [[nodiscard]] std::uint64_t value(std::uint64_t index) const noexcept {
    return mix_hash_last(prefix_, index);
  }

  /// True iff u precedes v in this stream's permutation: lower priority
  /// first, ties broken by the smaller id.
  [[nodiscard]] bool precedes(std::uint64_t u, std::uint64_t v) const noexcept {
    const std::uint64_t pu = value(u);
    const std::uint64_t pv = value(v);
    return pu != pv ? pu < pv : u < v;
  }

 private:
  friend class SharedRandomness;
  explicit SharedStream(std::uint64_t prefix) noexcept : prefix_(prefix) {}

  std::uint64_t prefix_;
};

/// A shared Bernoulli(p) coin over one tag's stream. coin(i) is true iff the
/// top 53 bits of value(i) lie below T = ceil(p * 2^53), which is the test
/// `(value(i) >> 11) * 2^-53 < p` bit for bit: the left side is an integer
/// below 2^53, and scaling by 2^53 is exact.
class SharedCoin {
 public:
  [[nodiscard]] bool operator()(std::uint64_t index) const noexcept {
    return (stream_.value(index) >> 11) < threshold_;
  }

 private:
  friend class SharedRandomness;
  SharedCoin(SharedStream stream, double p) noexcept : stream_(stream), threshold_(threshold(p)) {}

  /// 0 for p <= 0 and NaN (never), 2^53 for p >= 1 (always).
  [[nodiscard]] static std::uint64_t threshold(double p) noexcept {
    if (!(p > 0.0)) return 0;
    if (p >= 1.0) return std::uint64_t{1} << 53;
    return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
  }

  SharedStream stream_;
  std::uint64_t threshold_;
};

class SharedRandomness {
 public:
  explicit SharedRandomness(std::uint64_t seed) noexcept : seed_(seed) {}

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// The stream named by `tag`, for loops that draw many values under it.
  [[nodiscard]] SharedStream stream(SharedTag tag) const noexcept {
    return SharedStream(mix_hash_prefix(mix_hash(seed_, tag.a, tag.b), tag.c));
  }

  /// The shared Bernoulli(p) coin named by `tag` — e.g. "vertex v is in the
  /// public sample S" is coin(tag, p)(v).
  [[nodiscard]] SharedCoin coin(SharedTag tag, double p) const noexcept {
    return {stream(tag), p};
  }

  /// Raw 64 pseudo-random bits for (tag, index).
  [[nodiscard]] std::uint64_t value(SharedTag tag, std::uint64_t index = 0) const noexcept {
    return stream(tag).value(index);
  }

  /// One shared Bernoulli(p) coin at (tag, index).
  [[nodiscard]] bool bernoulli(SharedTag tag, std::uint64_t index, double p) const noexcept {
    return coin(tag, p)(index);
  }

  /// Permutation priority of vertex v under the shared permutation named by
  /// `tag`. Lower priority = earlier in the permutation; ties broken by v.
  [[nodiscard]] std::uint64_t priority(SharedTag tag, std::uint64_t v) const noexcept {
    return value(tag, v);
  }

  /// True iff u precedes v in the shared permutation named by `tag`.
  [[nodiscard]] bool precedes(SharedTag tag, std::uint64_t u, std::uint64_t v) const noexcept {
    return stream(tag).precedes(u, v);
  }

  /// Uniform vertex in [0, n) for (tag, index) — shared uniform sampling
  /// with replacement.
  [[nodiscard]] std::uint64_t uniform_vertex(SharedTag tag, std::uint64_t index,
                                             std::uint64_t n) const noexcept {
    // Multiply-shift map of 64 random bits into [0, n); bias <= n/2^64.
    const unsigned __int128 m = static_cast<unsigned __int128>(value(tag, index)) * n;
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Materialize the shared Bernoulli(p) vertex sample {v : coin(tag,v)=1}.
  /// Provided for referee-side checks and tests; players normally test
  /// membership lazily via `coin`.
  [[nodiscard]] std::vector<std::uint32_t> sample_vertices(SharedTag tag, std::uint64_t n,
                                                           double p) const;

  /// A private Rng forked from the shared seed — for referee-side decisions
  /// that need a stateful stream (never used for player coordination).
  [[nodiscard]] Rng fork(SharedTag tag) const noexcept { return Rng(value(tag)); }

 private:
  std::uint64_t seed_;
};

}  // namespace tft

#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>
#include <utility>

#include "graph/graph.h"
#include "util/rng.h"

/// \file pair_sampling.h
/// Shared primitives for index-space edge sampling, used by both the legacy
/// sequential generators (graph/generators.cpp) and the chunked,
/// communication-free generator family (graph/chunked.h): linear ranking of
/// vertex pairs and geometric skip-sampling over an arbitrary index range.
/// The chunked family unranks by random access (unrank_pair); the
/// sequential generators read their increasing stream with a PairCursor.
///
/// The legacy generators draw one geometric gap per kept index from a single
/// sequential Rng stream; the chunked family draws the same gaps from
/// per-block streams over sub-ranges. Both call the same code so the
/// sampling math (and its committed-baseline bit patterns) lives in exactly
/// one place.

namespace tft {

/// Number of unordered pairs over [0, n): n*(n-1)/2 without overflow for
/// any 32-bit n (the product is evaluated in 64 bits; one factor is even).
[[nodiscard]] constexpr std::uint64_t pair_count(std::uint64_t n) noexcept {
  return n < 2 ? 0 : (n % 2 == 0 ? (n / 2) * (n - 1) : n * ((n - 1) / 2));
}

/// Map a linear index over the strict upper triangle of an n x n matrix to a
/// (row, col) pair with row < col. Inverse of
/// idx = r*n - r*(r+1)/2 + (c - r - 1).
[[nodiscard]] inline std::pair<Vertex, Vertex> unrank_pair(std::uint64_t idx, std::uint64_t n) {
  assert(idx < pair_count(n));
  // Solve for the row via the quadratic formula, then fix up the potential
  // floating-point off-by-one (the sqrt of a ~2^53 argument can land a row
  // early or late; the while loops walk at most a couple of steps).
  const double nd = static_cast<double>(n);
  double rd = std::floor(nd - 0.5 -
                         std::sqrt((nd - 0.5) * (nd - 0.5) - 2.0 * static_cast<double>(idx)));
  auto r = static_cast<std::uint64_t>(std::max(0.0, rd));
  auto row_start = [&](std::uint64_t rr) { return rr * n - rr * (rr + 1) / 2; };
  while (r + 1 < n && row_start(r + 1) <= idx) ++r;
  while (r > 0 && row_start(r) > idx) --r;
  const std::uint64_t c = r + 1 + (idx - row_start(r));
  assert(c < n);
  return {static_cast<Vertex>(r), static_cast<Vertex>(c)};
}

/// unrank_pair for a stream of indices that never decreases, as skip
/// sampling emits them: the cursor keeps its row's index range and steps
/// to later rows as the indices pass them, with no square root. O(n + number
/// of indices) over a whole stream; all of it in 64 bits, so pair counts
/// past 2^32 unrank exactly.
class PairCursor {
 public:
  explicit PairCursor(std::uint64_t n) noexcept : n_(n), row_end_(n > 0 ? n - 1 : 0) {}

  /// The pair of rank idx; idx must not be below the previous call's.
  [[nodiscard]] std::pair<Vertex, Vertex> operator()(std::uint64_t idx) noexcept {
    assert(idx >= row_start_ && idx < pair_count(n_));
    while (idx >= row_end_) {
      ++row_;
      row_start_ = row_end_;
      row_end_ += n_ - 1 - row_;
    }
    return {static_cast<Vertex>(row_), static_cast<Vertex>(row_ + 1 + (idx - row_start_))};
  }

 private:
  std::uint64_t n_;
  std::uint64_t row_ = 0;
  std::uint64_t row_start_ = 0;  ///< rank of (row, row + 1)
  std::uint64_t row_end_;        ///< one past the rank of (row, n - 1)
};

/// Invoke fn(i) for each index i in [lo, hi) kept independently with
/// probability p, via geometric skip sampling — O(expected kept) time and
/// O(expected kept) draws from rng. For lo == 0 this reproduces the legacy
/// generators' draw sequence exactly.
template <typename Fn>
void skip_sample_range(std::uint64_t lo, std::uint64_t hi, double p, Rng& rng, Fn&& fn) {
  if (p <= 0.0 || hi <= lo) return;
  if (p >= 1.0) {
    for (std::uint64_t i = lo; i < hi; ++i) fn(i);
    return;
  }
  const double log1mp = std::log1p(-p);
  double cursor = static_cast<double>(lo) - 1.0;
  for (;;) {
    // Geometric gap: floor(log(U) / log(1-p)).
    const double u = std::max(rng.uniform(), 1e-300);
    cursor += 1.0 + std::floor(std::log(u) / log1mp);
    if (cursor >= static_cast<double>(hi)) return;
    fn(static_cast<std::uint64_t>(cursor));
  }
}

/// Legacy entry point: sample over [0, total).
template <typename Fn>
void skip_sample(std::uint64_t total, double p, Rng& rng, Fn&& fn) {
  skip_sample_range(0, total, p, rng, std::forward<Fn>(fn));
}

}  // namespace tft

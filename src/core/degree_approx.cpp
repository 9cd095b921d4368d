#include "core/degree_approx.h"

#include <algorithm>
#include <cmath>

#include "core/building_blocks.h"
#include "util/bits.h"

namespace tft {

namespace {

constexpr auto kUp = Direction::kPlayerToCoordinator;
constexpr auto kDown = Direction::kCoordinatorToPlayer;

/// Exact per-guess acceptance threshold: midpoint between the expected hit
/// rate when the true count is d''/alpha (too-high guess, keep descending)
/// and when it is d''/sqrt(alpha) (guess has reached the target, stop).
double stop_threshold(double guess, double alpha) {
  const double q = 1.0 / guess;
  const double e_low = 1.0 - std::pow(1.0 - q, guess / alpha);
  const double e_high = 1.0 - std::pow(1.0 - q, guess / std::sqrt(alpha));
  return 0.5 * (e_low + e_high);
}

std::uint32_t experiments_per_guess(const DegreeApproxOptions& opts, std::uint32_t k) {
  const double base = 16.0 * std::log(2.0 * std::max<std::uint32_t>(2, k) / opts.tau);
  const double m = opts.experiments_scale * base;
  return std::max(opts.min_experiments, static_cast<std::uint32_t>(std::ceil(m)));
}

/// Shared two-phase estimator over an abstract item family.
/// `LocalCount(j)`  : player j's local item count (with multiplicity removed
///                    locally — our inputs are Graphs, so already distinct).
/// `LocalHit(j, coin)` : true iff any of player j's items is selected by
///                    the shared Bernoulli(q) coin of one experiment.
template <typename LocalCount, typename LocalHit>
DegreeApproxResult two_phase_estimate(std::span<const PlayerInput> players, Channel t,
                                      const SharedRandomness& sr, SharedTag tag,
                                      const DegreeApproxOptions& opts, LocalCount&& local_count,
                                      LocalHit&& local_hit) {
  DegreeApproxResult result;
  const auto k = static_cast<std::uint32_t>(players.size());

  // --- Phase 1: MSB round. Each player ships the bit-length of its local
  // count; the coordinator forms d' = sum 2^{I_j+1} >= true count, and
  // d' <= 2k * true count.
  double d_prime = 0.0;
  for (const auto& p : players) {
    const std::uint64_t cj = local_count(p);
    const std::uint64_t msb = cj == 0 ? 0 : bit_width_of(cj);
    t.charge_count(p.player_id, kUp, msb, phase::kDegreeApprox);
    if (cj > 0) d_prime += std::pow(2.0, static_cast<double>(msb));  // 2^{I_j+1}
  }
  result.msb_upper = d_prime;
  if (d_prime == 0.0) return result;  // no player holds any item

  // Coordinator announces ceil(log2 d') so everyone derives the same guess
  // schedule; O(log log) bits per player.
  const double d_start = std::pow(2.0, std::ceil(std::log2(d_prime)));
  for (const auto& p : players) {
    t.charge_count(p.player_id, kDown, static_cast<std::uint64_t>(std::ceil(std::log2(d_start))),
                   phase::kDegreeApprox);
  }

  // --- Phase 2: geometric descent.
  const double s = std::sqrt(opts.alpha);
  const std::uint32_t m = experiments_per_guess(opts, k);
  // True count >= d'/2k, so guesses below d'/(4k) are never the right
  // answer; this bounds the descent to O(log_s k) rounds.
  const double floor_guess = std::max(1.5, d_prime / (4.0 * static_cast<double>(k)));

  double guess = d_start;
  for (;; guess /= s) {
    ++result.guesses;
    const bool last = guess / s < floor_guess;
    if (!last) {
      const double q = 1.0 / guess;
      const double threshold = stop_threshold(guess, opts.alpha);
      std::uint32_t hits = 0;
      for (std::uint32_t r = 0; r < m; ++r) {
        SharedTag exp_tag = tag;
        exp_tag.c = mix_hash(exp_tag.c, result.guesses, r + 1);
        const SharedCoin coin = sr.coin(exp_tag, q);
        bool any = false;
        for (const auto& p : players) {
          const bool h = local_hit(p, coin);
          t.charge_flag(p.player_id, kUp, phase::kDegreeApprox);
          any = any || h;
        }
        hits += any ? 1 : 0;
      }
      // Coordinator announces continue/stop.
      for (const auto& p : players) t.charge_flag(p.player_id, kDown, phase::kDegreeApprox);
      if (static_cast<double>(hits) / static_cast<double>(m) < threshold) continue;
    }
    result.estimate = guess;
    return result;
  }
}

}  // namespace

DegreeApproxResult approx_degree(std::span<const PlayerInput> players, Channel t,
                                 const SharedRandomness& sr, SharedTag tag, Vertex v,
                                 const DegreeApproxOptions& opts) {
  if (opts.no_duplication) return approx_degree_no_duplication(players, t, v, opts.alpha);
  return two_phase_estimate(
      players, t, sr, tag, opts,
      [v](const PlayerInput& p) -> std::uint64_t { return p.local_degree(v); },
      [v](const PlayerInput& p, const SharedCoin& coin) {
        for (const Vertex w : p.local.neighbors(v)) {
          if (coin(w)) return true;
        }
        return false;
      });
}

DegreeApproxResult approx_degree_no_duplication(std::span<const PlayerInput> players,
                                                Channel t, Vertex v, double alpha) {
  // Lemma 3.2: ship the top bits of each local count; truncation
  // under-counts each player by a factor < alpha when keeping
  // ceil(log2(1/(alpha-1))) + 1 bits below the MSB.
  DegreeApproxResult result;
  const double frac = std::max(1e-6, alpha - 1.0);
  const auto keep_bits = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(
             std::max(0.0, std::ceil(std::log2(1.0 / frac)))) +
             1);
  double total = 0.0;
  for (const auto& p : players) {
    const std::uint64_t dj = p.local_degree(v);
    if (dj == 0) {
      t.charge_flag(p.player_id, Direction::kPlayerToCoordinator, phase::kDegreeApprox);
      continue;
    }
    const std::uint64_t width = bit_width_of(dj);
    const std::uint64_t drop = width > keep_bits ? width - keep_bits : 0;
    const std::uint64_t truncated = (dj >> drop) << drop;
    // Cost: the kept bits plus the MSB index (log log d_j).
    t.charge(p.player_id, Direction::kPlayerToCoordinator,
             keep_bits + count_bits(width), phase::kDegreeApprox);
    total += static_cast<double>(truncated);
    result.msb_upper += std::pow(2.0, static_cast<double>(width));
  }
  result.estimate = total;
  result.guesses = 0;
  return result;
}

DegreeApproxResult approx_distinct_edges(std::span<const PlayerInput> players, Channel t,
                                         const SharedRandomness& sr, SharedTag tag,
                                         const DegreeApproxOptions& opts) {
  return two_phase_estimate(
      players, t, sr, tag, opts,
      [](const PlayerInput& p) -> std::uint64_t { return p.local.num_edges(); },
      [](const PlayerInput& p, const SharedCoin& coin) {
        for (const Edge& e : p.local.edges()) {
          if (coin(e.key())) return true;
        }
        return false;
      });
}

}  // namespace tft

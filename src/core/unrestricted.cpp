#include "core/unrestricted.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "comm/conformance.h"
#include "core/buckets.h"
#include "core/building_blocks.h"
#include "core/degree_approx.h"

namespace tft {

namespace {

constexpr auto kUp = Direction::kPlayerToCoordinator;
constexpr auto kDown = Direction::kCoordinatorToPlayer;

double log2n(std::uint64_t n) {
  return std::log2(static_cast<double>(std::max<std::uint64_t>(n, 2)));
}

/// Per-player, per-bucket candidate lists B~_i^j, precomputed locally (free:
/// a player may compute anything on its own input). A vertex belongs to
/// O(log_3 k) buckets, so total size is O(n log k) per player.
class BucketIndex {
 public:
  BucketIndex(std::span<const PlayerInput> players, std::uint32_t buckets) {
    lists_.resize(players.size());
    for (std::size_t j = 0; j < players.size(); ++j) {
      lists_[j].resize(buckets);
      const auto& p = players[j];
      for (Vertex v = 0; v < p.n(); ++v) {
        const auto dj = p.local_degree(v);
        if (dj == 0) continue;
        for (std::uint32_t i = 1; i < buckets; ++i) {
          if (in_btilde(dj, i, p.k)) lists_[j][i].push_back(v);
        }
      }
    }
  }

  [[nodiscard]] const std::vector<Vertex>& list(std::size_t player, std::uint32_t bucket) const {
    return lists_.at(player).at(bucket);
  }

 private:
  std::vector<std::vector<std::vector<Vertex>>> lists_;
};

/// Algorithm 1 batched: the first `q` distinct vertices of B~_i under the
/// shared permutation named by `tag` — a uniformly random (ordered) q-subset,
/// unbiased by duplication. Each player ships its local top-q; the
/// coordinator merges. Bit cost is identical to q single-sample rounds
/// (k * q vertex ids upstream) and the result is "sampling without
/// replacement", which only improves the hitting probabilities the protocol
/// relies on (Lemma 3.14).
std::vector<Vertex> topq_btilde(std::span<const PlayerInput> players, const BucketIndex& index,
                                Channel t, const SharedRandomness& sr, SharedTag tag,
                                std::uint32_t bucket, std::size_t q) {
  const SharedStream order = sr.stream(tag);
  const auto precedes = [&order](Vertex a, Vertex b) { return order.precedes(a, b); };
  std::vector<Vertex> merged;
  for (const auto& p : players) {
    std::vector<Vertex> local = index.list(p.player_id, bucket);
    const std::size_t take = std::min(q, local.size());
    std::partial_sort(local.begin(), local.begin() + static_cast<std::ptrdiff_t>(take),
                      local.end(), precedes);
    local.resize(take);
    t.charge_count(p.player_id, kUp, take, phase::kSampleVertex);
    t.charge(p.player_id, kUp, take * vertex_bits(p.n()), phase::kSampleVertex);
    merged.insert(merged.end(), local.begin(), local.end());
  }
  std::sort(merged.begin(), merged.end(), precedes);
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  if (merged.size() > q) merged.resize(q);
  return merged;
}

/// A candidate vertex that survived the degree filter.
struct Candidate {
  Vertex v = 0;
  double degree_low = 1.0;   ///< lower bound on deg(v) from the estimate
  double degree_high = 1.0;  ///< upper bound on deg(v)
};

/// Blackboard-aware collection of a candidate's sampled neighbors
/// (SampleEdges, Algorithm 4). In the coordinator model every player ships
/// its own copy; on a blackboard players post in turn and never repeat an
/// already-posted endpoint (Theorem 3.23).
std::vector<Vertex> sample_neighbors(std::span<const PlayerInput> players, Channel t,
                                     const SharedRandomness& sr, SharedTag tag, Vertex v,
                                     double p, std::size_t cap, bool blackboard) {
  if (!blackboard) return collect_sampled_neighbors(players, t, sr, tag, v, p, cap);
  const SharedCoin in_sample = sr.coin(tag, p);
  std::vector<Vertex> posted;
  for (const auto& pl : players) {
    std::size_t sent = 0;
    for (const Vertex w : pl.local.neighbors(v)) {
      if (!in_sample(w)) continue;
      if (std::find(posted.begin(), posted.end(), w) != posted.end()) continue;
      if (cap != 0 && sent >= cap) break;
      posted.push_back(w);
      ++sent;
    }
    t.charge_count(pl.player_id, kUp, sent, phase::kVeeSample);
    t.charge(pl.player_id, kUp, sent * vertex_bits(pl.n()), phase::kVeeSample);
  }
  std::sort(posted.begin(), posted.end());
  return posted;
}

/// Blackboard-aware vee-closing round: on a blackboard the candidate list is
/// posted once instead of once per player.
std::optional<Triangle> close_vee(std::span<const PlayerInput> players, Channel t,
                                  Vertex source, std::span<const Vertex> candidates,
                                  bool blackboard) {
  if (!blackboard) return close_vee_round(players, t, source, candidates);
  t.charge(0, kDown, candidates.size() * vertex_bits(players.front().n()), phase::kCloseVee);
  std::optional<Triangle> found;
  for (const auto& p : players) {
    t.charge_flag(p.player_id, kUp, phase::kCloseVee);
    if (found) continue;
    for (std::size_t i = 0; i < candidates.size() && !found; ++i) {
      for (const Vertex y : p.local.neighbors(candidates[i])) {
        if (y == source) continue;
        if (!std::binary_search(candidates.begin(), candidates.end(), y)) continue;
        found = Triangle(source, candidates[i], y);
        t.charge_edges(p.player_id, kUp, 1, phase::kCloseVee);
        break;
      }
    }
  }
  return found;
}

}  // namespace

ProtocolConstants ProtocolConstants::practical(double eps, double delta) {
  ProtocolConstants c;
  c.eps = eps;
  c.delta = delta;
  return c;
}

ProtocolConstants ProtocolConstants::theory(double eps, double delta) {
  ProtocolConstants c;
  c.eps = eps;
  c.delta = delta;
  c.edge_sample_scale = 4.0;
  c.approx_scale = 4.0;
  c.theory_preset_ = true;
  return c;
}

std::uint64_t ProtocolConstants::samples_per_bucket(std::uint64_t n, std::uint64_t k) const {
  const double ln6d = std::log(6.0 / delta);
  if (theory_preset_) {
    // q = ln(6/delta) * 108 * log^2 n * k / eps^2   (Lemma 3.14 with r = k)
    const double q = ln6d * 108.0 * log2n(n) * log2n(n) * static_cast<double>(k) / (eps * eps);
    return static_cast<std::uint64_t>(std::ceil(q));
  }
  const double q = q_scale * 2.0 * static_cast<double>(k) * log2n(n);
  return std::max<std::uint64_t>(4, static_cast<std::uint64_t>(std::ceil(q)));
}

std::uint64_t ProtocolConstants::candidate_cap(std::uint64_t n) const {
  const double ln6d = std::log(6.0 / delta);
  if (theory_preset_) {
    // ln(6/delta) * 312 * log^2 n / eps^2   (Lemma 3.15)
    const double c = ln6d * 312.0 * log2n(n) * log2n(n) / (eps * eps);
    return static_cast<std::uint64_t>(std::ceil(c));
  }
  const double c = cand_scale * 3.0 * log2n(n);
  return std::max<std::uint64_t>(3, static_cast<std::uint64_t>(std::ceil(c)));
}

double ProtocolConstants::edge_sample_probability(std::uint64_t n, double degree_low) const {
  const double d = std::max(1.0, degree_low);
  if (theory_preset_) {
    // p = c * sqrt(ln(6/delta)) * sqrt(12 log n / (eps * d))  (Corollary 3.10)
    const double base =
        std::sqrt(std::log(6.0 / delta)) * std::sqrt(12.0 * log2n(n) / (eps * d));
    return std::min(1.0, edge_sample_scale * base);
  }
  // Practical preset: same Theta(sqrt(log n / d)) shape with the worst-case
  // full-vertex fraction constants dropped (validated empirically by the
  // test suite; the shape is what the benches measure).
  return std::min(1.0, edge_sample_scale * std::sqrt(8.0 * log2n(n) / d));
}

namespace {

UnrestrictedResult find_triangle_unrestricted_impl(std::span<const PlayerInput> players,
                                                   const UnrestrictedOptions& opts,
                                                   Channel t) {
  const std::uint64_t n = players.front().n();
  const std::uint64_t k = players.size();
  const ProtocolConstants& C = opts.consts;

  SharedRandomness sr(opts.seed);
  UnrestrictedResult result;

  // --- Degree estimation round (Corollary 3.22: d need not be known).
  double d_low = 0.0;
  double d_high = 0.0;
  if (opts.known_average_degree >= 1.0) {
    d_low = d_high = opts.known_average_degree;
  } else {
    DegreeApproxOptions da;
    da.alpha = C.alpha;
    da.experiments_scale = C.approx_scale;
    const auto est = approx_distinct_edges(players, t, sr, SharedTag{0xE57, 0, 0}, da);
    if (est.estimate <= 0.0) {
      result.total_bits = t.total_bits();
      result.overhead_bits = result.total_bits;
      return result;  // empty graph: triangle-free, accept
    }
    // estimate in (M, alpha*M]; convert to average-degree bounds.
    d_high = 2.0 * est.estimate / static_cast<double>(n);
    d_low = d_high / C.alpha;
  }
  result.degree_estimate = d_high;

  // --- Bucket range: [d_l, d_h] with estimate slack (Lemma 3.12).
  const double dl = std::max(1.0, degree_threshold_low(n, d_low, C.eps) / 2.0);
  const double dh = degree_threshold_high(n, std::max(d_high, 1.0), C.eps) * 2.0;
  const std::uint32_t total_buckets = num_buckets(n);
  const std::uint32_t first_bucket = bucket_of_degree(static_cast<std::uint64_t>(dl));
  const std::uint32_t last_bucket =
      std::min(bucket_of_degree(static_cast<std::uint64_t>(std::ceil(dh))), total_buckets - 1);

  const std::uint64_t q = C.samples_per_bucket(n, k);
  const std::uint64_t cand_cap = C.candidate_cap(n);

  const BucketIndex index(players, total_buckets);

  DegreeApproxOptions da;
  da.alpha = C.alpha;
  da.experiments_scale = C.approx_scale;
  da.no_duplication = opts.no_duplication;

  for (std::uint32_t bucket = first_bucket; bucket <= last_bucket; ++bucket) {
    ++result.buckets_tried;

    // --- GetFullCandidates (Algorithm 3): q uniform samples from B~_i,
    // filtered by approximate degree, keeping at most cand_cap.
    std::vector<Vertex> sampled;
    if (opts.use_bucketing) {
      sampled = topq_btilde(players, index, t, sr, SharedTag{0x5A, bucket, 0}, bucket,
                            static_cast<std::size_t>(q));
    } else {
      // Ablation: naive shared uniform vertex sampling, ignoring degrees.
      sampled.reserve(static_cast<std::size_t>(q));
      for (std::uint64_t i = 0; i < q; ++i) {
        sampled.push_back(static_cast<Vertex>(sr.uniform_vertex(SharedTag{0x5B, bucket, i}, 0, n)));
      }
    }

    std::vector<Candidate> cands;
    for (std::size_t si = 0; si < sampled.size() && cands.size() < cand_cap; ++si) {
      const Vertex v = sampled[si];
      const auto est = approx_degree(players, t, sr, SharedTag{0xDE6, bucket, si}, v, da);
      if (est.estimate <= 0.0) continue;
      // With duplication the estimate only over-shoots: deg(v) lies in
      // (est/alpha, est]. Accept iff that range intersects the bucket
      // window widened by alpha (Algorithm 3 step 7, adapted to one-sided
      // estimates); all true members of B_i survive.
      const double lo = opts.no_duplication ? est.estimate : est.estimate / C.alpha;
      const double hi = opts.no_duplication ? est.estimate * C.alpha : est.estimate;
      if (hi < static_cast<double>(bucket_min_degree(bucket)) ||
          lo >= static_cast<double>(bucket_max_degree(bucket)) * C.alpha) {
        continue;
      }
      cands.push_back(Candidate{v, std::max(1.0, lo), std::max(1.0, hi)});
    }

    // --- SampleEdges + vee closing (Algorithms 4-5).
    for (std::size_t ci = 0; ci < cands.size(); ++ci) {
      const Candidate& cand = cands[ci];
      ++result.candidates_examined;
      const double p = C.edge_sample_probability(n, cand.degree_low);
      // Cap per player (Algorithm 4 step 2): constant slack above the
      // expected sample size.
      const auto cap = static_cast<std::size_t>(std::ceil(3.0 * cand.degree_high * p + 32.0));
      const SharedTag tag{0xED6, (static_cast<std::uint64_t>(bucket) << 32) | ci, 1};
      const auto neighbors = sample_neighbors(players, t, sr, tag, cand.v, p, cap, opts.blackboard);
      if (neighbors.size() < 2) continue;
      ++result.vee_rounds;
      const auto tri = close_vee(players, t, cand.v, neighbors, opts.blackboard);
      if (tri) {
        // One-sided guarantee: all three edges came from player inputs, so
        // the triangle is real.
        result.triangle = *tri;
        break;
      }
    }
    if (result.triangle) break;
  }

  result.total_bits = t.total_bits();
  result.edge_sampling_bits = t.phase_bits(phase::kVeeSample) + t.phase_bits(phase::kCloseVee);
  result.overhead_bits = result.total_bits - result.edge_sampling_bits;
  return result;
}

}  // namespace

UnrestrictedResult find_triangle_unrestricted(std::span<const PlayerInput> players,
                                              const UnrestrictedOptions& opts) {
  if (players.empty()) throw std::invalid_argument("find_triangle_unrestricted: no players");
  const CommModel model = opts.blackboard ? CommModel::kBlackboard : CommModel::kCoordinator;
  return run_checked(model, players.size(), players.front().n(), [&](Channel t) {
    return find_triangle_unrestricted_impl(players, opts, t);
  });
}

}  // namespace tft

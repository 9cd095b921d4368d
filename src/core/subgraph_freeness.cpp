#include "core/subgraph_freeness.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "comm/shared_randomness.h"

namespace tft {

Graph pattern_clique(Vertex size) {
  std::vector<Edge> edges;
  for (Vertex u = 0; u < size; ++u) {
    for (Vertex v = u + 1; v < size; ++v) edges.emplace_back(u, v);
  }
  return Graph(size, std::move(edges));
}

Graph pattern_cycle(Vertex length) {
  if (length < 3) throw std::invalid_argument("pattern_cycle: length >= 3 required");
  std::vector<Edge> edges;
  for (Vertex v = 0; v + 1 < length; ++v) edges.emplace_back(v, v + 1);
  edges.emplace_back(0, length - 1);
  return Graph(length, std::move(edges));
}

Graph pattern_path(Vertex vertices) {
  std::vector<Edge> edges;
  for (Vertex v = 0; v + 1 < vertices; ++v) edges.emplace_back(v, v + 1);
  return Graph(vertices, std::move(edges));
}

namespace {

/// Backtracking state for non-induced subgraph isomorphism.
class IsoSearch {
 public:
  IsoSearch(const Graph& host, const Graph& pattern, std::uint64_t max_steps)
      : host_(host), pattern_(pattern), max_steps_(max_steps) {
    // Order pattern vertices so each (after the first) has at least one
    // already-placed neighbor when possible: maximizes pruning. Greedy
    // "connected, highest-degree-first" order.
    order_.reserve(pattern.n());
    std::vector<bool> placed(pattern.n(), false);
    for (Vertex step = 0; step < pattern.n(); ++step) {
      Vertex best = pattern.n();
      int best_score = -1;
      for (Vertex v = 0; v < pattern.n(); ++v) {
        if (placed[v]) continue;
        int placed_neighbors = 0;
        for (const Vertex w : pattern.neighbors(v)) placed_neighbors += placed[w] ? 1 : 0;
        const int score = placed_neighbors * 1000 + static_cast<int>(pattern.degree(v));
        if (score > best_score) {
          best_score = score;
          best = v;
        }
      }
      placed[best] = true;
      order_.push_back(best);
    }
    mapping_.assign(pattern.n(), host.n());  // host.n() = unmapped sentinel
    used_.assign(host.n(), false);
  }

  [[nodiscard]] std::optional<std::vector<Vertex>> run() {
    if (pattern_.n() == 0) return std::vector<Vertex>{};
    if (extend(0)) return mapping_;
    return std::nullopt;
  }

 private:
  bool budget_exhausted() { return max_steps_ != 0 && ++steps_ > max_steps_; }

  /// Candidate host vertices for pattern vertex `pv`, restricted to the
  /// host-neighborhood of an already-mapped pattern neighbor if one exists.
  bool extend(std::size_t depth) {
    if (depth == order_.size()) return true;
    const Vertex pv = order_[depth];

    // Find a mapped pattern-neighbor with the smallest host neighborhood.
    Vertex anchor_host = host_.n();
    for (const Vertex pn : pattern_.neighbors(pv)) {
      if (mapping_[pn] == host_.n()) continue;
      if (anchor_host == host_.n() ||
          host_.degree(mapping_[pn]) < host_.degree(anchor_host)) {
        anchor_host = mapping_[pn];
      }
    }

    const auto try_candidate = [&](Vertex hv) -> bool {
      if (budget_exhausted()) return false;
      if (used_[hv]) return false;
      if (host_.degree(hv) < pattern_.degree(pv)) return false;
      // All mapped pattern neighbors must be host neighbors.
      for (const Vertex pn : pattern_.neighbors(pv)) {
        if (mapping_[pn] != host_.n() && !host_.has_edge(hv, mapping_[pn])) return false;
      }
      mapping_[pv] = hv;
      used_[hv] = true;
      if (extend(depth + 1)) return true;
      mapping_[pv] = host_.n();
      used_[hv] = false;
      return false;
    };

    if (anchor_host != host_.n()) {
      for (const Vertex hv : host_.neighbors(anchor_host)) {
        if (try_candidate(hv)) return true;
        if (max_steps_ != 0 && steps_ > max_steps_) return false;
      }
    } else {
      for (Vertex hv = 0; hv < host_.n(); ++hv) {
        if (try_candidate(hv)) return true;
        if (max_steps_ != 0 && steps_ > max_steps_) return false;
      }
    }
    return false;
  }

  const Graph& host_;
  const Graph& pattern_;
  std::uint64_t max_steps_;
  std::uint64_t steps_ = 0;
  std::vector<Vertex> order_;
  std::vector<Vertex> mapping_;
  std::vector<bool> used_;
};

}  // namespace

std::optional<std::vector<Vertex>> find_subgraph(const Graph& host, const Graph& pattern,
                                                 std::uint64_t max_steps) {
  if (pattern.n() > host.n()) return std::nullopt;
  IsoSearch search(host, pattern, max_steps);
  return search.run();
}

bool contains_subgraph(const Graph& host, const Graph& pattern, std::uint64_t max_steps) {
  return find_subgraph(host, pattern, max_steps).has_value();
}

Graph planted_copies(Vertex n, const Graph& pattern, std::uint32_t t, Rng& rng) {
  const Vertex pn = pattern.n();
  if (static_cast<std::uint64_t>(t) * pn > n) {
    throw std::invalid_argument("planted_copies: need n >= t * pattern.n()");
  }
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(t) * pattern.num_edges() + n / 2);
  for (std::uint32_t i = 0; i < t; ++i) {
    const Vertex base = i * pn;
    for (const Edge& e : pattern.edges()) edges.emplace_back(base + e.u, base + e.v);
  }
  // Noise: a random matching on the leftover vertices — it cannot create a
  // copy of any pattern with a vertex of degree >= 2.
  std::vector<Vertex> rest(n - t * pn);
  std::iota(rest.begin(), rest.end(), static_cast<Vertex>(t * pn));
  for (std::size_t i = rest.size(); i > 1; --i) std::swap(rest[i - 1], rest[rng.below(i)]);
  for (std::size_t i = 0; i + 1 < rest.size(); i += 2) edges.emplace_back(rest[i], rest[i + 1]);
  return Graph(n, std::move(edges));
}

double subgraph_sample_size(std::uint64_t n, Vertex pattern_vertices,
                            const SimSubgraphOptions& opts) {
  // A graph eps-far from H-freeness has T >= eps * m / |E(H)| edge-disjoint
  // copies (each deletion kills at most one disjoint copy); a copy lands in
  // S w.p. (s/n)^h. Solving (s/n)^h * T = Theta(1):
  //   s = c * n * (1 / (eps * m / h^2))^{1/h},   h = |V(H)|.
  const double h = static_cast<double>(pattern_vertices);
  const double m = std::max(1.0, static_cast<double>(n) * opts.average_degree / 2.0);
  const double copies = std::max(1.0, opts.eps * m / (h * h));
  const double s = opts.c * static_cast<double>(n) * std::pow(1.0 / copies, 1.0 / h);
  return std::clamp(s, 1.0, static_cast<double>(n));
}

SimSubgraphResult sim_subgraph_find(std::span<const PlayerInput> players, const Graph& pattern,
                                    const SimSubgraphOptions& opts) {
  if (players.empty()) throw std::invalid_argument("sim_subgraph_find: no players");
  const std::uint64_t n = players.front().n();
  const SharedRandomness sr(opts.seed);
  const SharedTag tag{0x5B6, 0x11, 0};
  const double s = subgraph_sample_size(n, pattern.n(), opts);
  const double p = s / static_cast<double>(n);

  const SharedCoin in_sample = sr.coin(tag, p);

  std::vector<SimMessage> messages;
  messages.reserve(players.size());
  for (const auto& player : players) {
    SimMessage msg;
    msg.player_id = player.player_id;
    for (const Edge& e : player.local.edges()) {
      if (in_sample(e.u) && in_sample(e.v)) msg.edges.push_back(e);
    }
    apply_cap(msg, static_cast<std::size_t>(opts.cap_edges_per_player));
    messages.push_back(std::move(msg));
  }

  SimSubgraphResult result;
  std::vector<Edge> all;
  for (const auto& m : messages) {
    result.total_bits += m.bits(n);
    all.insert(all.end(), m.edges.begin(), m.edges.end());
  }
  const Graph received(static_cast<Vertex>(n), std::move(all));
  result.edges_received = received.num_edges();
  result.witness = find_subgraph(received, pattern, opts.search_budget);
  return result;
}

}  // namespace tft

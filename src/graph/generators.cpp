#include "graph/generators.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "graph/pair_sampling.h"
#include "util/arena.h"

namespace tft::gen {

namespace {

void shuffle_vertices(std::span<Vertex> vs, Rng& rng) {
  for (std::size_t i = vs.size(); i > 1; --i) std::swap(vs[i - 1], vs[rng.below(i)]);
}

/// Identity permutation staged in `arena` (shuffle buffers are transient:
/// growth churn stays inside reused arena blocks).
std::span<Vertex> arena_iota(Arena& arena, std::size_t count, Vertex first) {
  const std::span<Vertex> vs = arena.alloc<Vertex>(count);
  std::iota(vs.begin(), vs.end(), first);
  return vs;
}

}  // namespace

std::span<const Edge> gnp_edges(Vertex n, double p, Rng& rng, Arena& arena) {
  // The list grows by doubling inside the arena, whose blocks stay warm
  // across calls: no heap buffer, no copy, no page faults once warm.
  ArenaBuf<Edge> edges(arena);
  // pair_count keeps the n*(n-1)/2 arithmetic in 64 bits: past n = 2^16 the
  // pair space no longer fits 32 bits, past n ~ 92682 it exceeds 2^32.
  PairCursor pair(n);
  skip_sample(pair_count(n), p, rng, [&](std::uint64_t idx) {
    const auto [u, v] = pair(idx);
    edges.emplace_back(u, v);
  });
  return {edges.data(), edges.size()};
}

Graph gnp(Vertex n, double p, Rng& rng) {
  ArenaScope scope;
  const std::span<const Edge> edges = gnp_edges(n, p, rng, scope.arena());
  return Graph(n, {edges.begin(), edges.end()});
}

std::span<const Edge> bipartite_gnp_edges(Vertex n, double p, Rng& rng, Arena& arena) {
  const Vertex a = n / 2;
  const Vertex b = n - a;
  ArenaBuf<Edge> edges(arena);
  // Row u holds the indices [u * b, (u + 1) * b); the indices increase, so
  // the row only ever steps forward.
  Vertex u = 0;
  std::uint64_t row_start = 0;
  skip_sample(static_cast<std::uint64_t>(a) * b, p, rng, [&](std::uint64_t idx) {
    for (; idx - row_start >= b; row_start += b) ++u;
    edges.emplace_back(u, static_cast<Vertex>(a + (idx - row_start)));
  });
  return {edges.data(), edges.size()};
}

Graph bipartite_gnp(Vertex n, double p, Rng& rng) {
  ArenaScope scope;
  const std::span<const Edge> edges = bipartite_gnp_edges(n, p, rng, scope.arena());
  return Graph(n, {edges.begin(), edges.end()});
}

Graph complete_bipartite(Vertex a, Vertex b) {
  assert(static_cast<std::uint64_t>(a) + b <= std::numeric_limits<Vertex>::max());
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(a) * b);
  for (Vertex u = 0; u < a; ++u) {
    for (Vertex v = 0; v < b; ++v) edges.emplace_back(u, a + v);
  }
  return Graph(a + b, std::move(edges));
}

Graph random_tree(Vertex n, Rng& rng) {
  std::vector<Edge> edges;
  edges.reserve(n > 0 ? n - 1 : 0);
  for (Vertex v = 1; v < n; ++v) {
    edges.emplace_back(static_cast<Vertex>(rng.below(v)), v);
  }
  return Graph(n, std::move(edges));
}

Graph star(Vertex n) {
  std::vector<Edge> edges;
  edges.reserve(n > 0 ? n - 1 : 0);
  for (Vertex v = 1; v < n; ++v) edges.emplace_back(0, v);
  return Graph(n, std::move(edges));
}

Graph cycle(Vertex n) {
  std::vector<Edge> edges;
  if (n >= 3) {
    edges.reserve(n);
    for (Vertex v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
    edges.emplace_back(0, n - 1);
  } else if (n == 2) {
    edges.emplace_back(0, 1);
  }
  return Graph(n, std::move(edges));
}

Graph random_matching(Vertex n, Rng& rng) {
  ArenaScope scope;
  const std::span<Vertex> vs = arena_iota(scope.arena(), n, 0);
  shuffle_vertices(vs, rng);
  std::vector<Edge> edges;
  edges.reserve(n / 2);
  for (Vertex i = 0; i + 1 < n; i += 2) edges.emplace_back(vs[i], vs[i + 1]);
  return Graph(n, std::move(edges));
}

Graph c5_blowup(Vertex n) {
  const Vertex per = n / 5;
  if (per == 0) return Graph(n, {});
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(per) * per * 5);
  const auto cls = [&](Vertex c, Vertex i) { return static_cast<Vertex>(c * per + i); };
  for (Vertex c = 0; c < 5; ++c) {
    const Vertex nc = (c + 1) % 5;
    for (Vertex i = 0; i < per; ++i) {
      for (Vertex j = 0; j < per; ++j) edges.emplace_back(cls(c, i), cls(nc, j));
    }
  }
  return Graph(n, std::move(edges));
}

Graph planted_triangles(Vertex n, std::uint32_t t, Rng& rng) {
  if (static_cast<std::uint64_t>(t) * 3 > n) {
    throw std::invalid_argument("planted_triangles: need n >= 3t");
  }
  std::vector<Edge> edges;
  edges.reserve(3 * static_cast<std::size_t>(t) + (n - 3 * t) / 2);
  for (std::uint32_t i = 0; i < t; ++i) {
    const Vertex a = 3 * i;
    edges.emplace_back(a, a + 1);
    edges.emplace_back(a, a + 2);
    edges.emplace_back(a + 1, a + 2);
  }
  // Triangle-free noise: a random matching on the remaining vertices. A
  // matching cannot create triangles nor touch the planted ones.
  ArenaScope scope;
  const std::span<Vertex> rest = arena_iota(scope.arena(), n - 3 * t, static_cast<Vertex>(3 * t));
  shuffle_vertices(rest, rng);
  for (std::size_t i = 0; i + 1 < rest.size(); i += 2) {
    edges.emplace_back(rest[i], rest[i + 1]);
  }
  return Graph(n, std::move(edges));
}

Graph hub_matching(Vertex n, std::uint32_t hubs, Rng& rng) {
  if (hubs >= n) throw std::invalid_argument("hub_matching: hubs must be < n");
  std::vector<Edge> edges;
  ArenaScope scope;
  const std::span<Vertex> rest = arena_iota(scope.arena(), n - hubs, static_cast<Vertex>(hubs));
  const std::size_t pairs = rest.size() / 2;
  edges.reserve(static_cast<std::size_t>(hubs) * pairs * 3);
  for (Vertex h = 0; h < hubs; ++h) {
    shuffle_vertices(rest, rng);
    for (std::size_t i = 0; i + 1 < rest.size(); i += 2) {
      const Vertex a = rest[i];
      const Vertex b = rest[i + 1];
      edges.emplace_back(h, a);
      edges.emplace_back(h, b);
      edges.emplace_back(a, b);
    }
  }
  return Graph(n, std::move(edges));
}

Graph barabasi_albert(Vertex n, std::uint32_t edges_per_vertex, Rng& rng) {
  if (edges_per_vertex == 0) throw std::invalid_argument("barabasi_albert: m must be >= 1");
  ArenaScope scope;
  ArenaBuf<Edge> edges(scope.arena());
  // Repeated-endpoint list: picking a uniform element samples proportionally
  // to degree (each edge contributes both endpoints).
  ArenaBuf<Vertex> endpoints(scope.arena());
  ArenaBuf<Vertex> targets(scope.arena());  // reused (clear per vertex)
  const Vertex seed_clique = std::min<Vertex>(n, edges_per_vertex + 1);
  for (Vertex u = 0; u < seed_clique; ++u) {
    for (Vertex v = u + 1; v < seed_clique; ++v) {
      edges.emplace_back(u, v);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  for (Vertex v = seed_clique; v < n; ++v) {
    targets.clear();
    for (std::uint32_t e = 0; e < edges_per_vertex && !endpoints.empty(); ++e) {
      // Sample with rejection to keep targets distinct for this vertex.
      for (int attempt = 0; attempt < 32; ++attempt) {
        const Vertex w = endpoints[rng.below(endpoints.size())];
        if (std::find(targets.begin(), targets.end(), w) == targets.end()) {
          targets.push_back(w);
          break;
        }
      }
    }
    for (const Vertex w : targets) {
      edges.emplace_back(v, w);
      endpoints.push_back(v);
      endpoints.push_back(w);
    }
  }
  return Graph(n, edges.take());
}

Graph chung_lu(Vertex n, double d_target, double beta, Rng& rng) {
  if (beta <= 2.0) throw std::invalid_argument("chung_lu: beta must be > 2");
  ArenaScope scope;
  // Weights w_i ~ (i+1)^{-1/(beta-1)}, normalized so sum w_i = n * d_target.
  const std::span<double> w = scope.arena().alloc<double>(n);
  double sum = 0.0;
  for (Vertex i = 0; i < n; ++i) {
    w[i] = std::pow(static_cast<double>(i + 1), -1.0 / (beta - 1.0));
    sum += w[i];
  }
  const double scale = static_cast<double>(n) * d_target / sum;
  for (auto& x : w) x *= scale;
  const double total = static_cast<double>(n) * d_target;  // sum of weights

  // Miller-Hagberg sampling: weights are already sorted descending, so for
  // each row i we skip-sample columns j > i under the upper bound
  // p_bar = w_i * w_j0 / W (w is non-increasing) and thin by p_ij / p_bar.
  ArenaBuf<Edge> edges(scope.arena());
  for (Vertex i = 0; i + 1 < n; ++i) {
    Vertex j = i + 1;
    double p_bar = std::min(1.0, w[i] * w[j] / total);
    while (j < n && p_bar > 0.0) {
      if (p_bar < 1.0) {
        const double u = std::max(rng.uniform(), 1e-300);
        const double skip = std::floor(std::log(u) / std::log1p(-p_bar));
        j += static_cast<Vertex>(std::min(skip, static_cast<double>(n)));
      }
      if (j >= n) break;
      const double p_ij = std::min(1.0, w[i] * w[j] / total);
      if (rng.uniform() < p_ij / p_bar) edges.emplace_back(i, j);
      p_bar = p_ij;  // w non-increasing: p_ij is a valid bound for later j
      ++j;
    }
  }
  return Graph(n, edges.take());
}

Graph tripartite_mu(Vertex side, double gamma, Rng& rng) {
  assert(static_cast<std::uint64_t>(side) * 3 <= std::numeric_limits<Vertex>::max());
  const double p = gamma / std::sqrt(static_cast<double>(side));
  const Vertex n = 3 * side;
  ArenaScope scope;
  ArenaBuf<Edge> edges(scope.arena());
  const std::uint64_t block = static_cast<std::uint64_t>(side) * side;
  // U x V1
  skip_sample(block, p, rng, [&](std::uint64_t idx) {
    edges.emplace_back(static_cast<Vertex>(idx / side), static_cast<Vertex>(side + idx % side));
  });
  // U x V2
  skip_sample(block, p, rng, [&](std::uint64_t idx) {
    edges.emplace_back(static_cast<Vertex>(idx / side),
                       static_cast<Vertex>(2 * side + idx % side));
  });
  // V1 x V2
  skip_sample(block, p, rng, [&](std::uint64_t idx) {
    edges.emplace_back(static_cast<Vertex>(side + idx / side),
                       static_cast<Vertex>(2 * side + idx % side));
  });
  return Graph(n, edges.take());
}

Graph embed_with_isolated(const Graph& core, Vertex total_n) {
  if (total_n < core.n()) throw std::invalid_argument("embed_with_isolated: total_n < core.n()");
  std::vector<Edge> edges(core.edges().begin(), core.edges().end());
  return Graph(total_n, std::move(edges));
}

Graph disjoint_union(const Graph& h1, const Graph& h2) {
  std::vector<Edge> edges(h1.edges().begin(), h1.edges().end());
  edges.reserve(h1.num_edges() + h2.num_edges());
  const Vertex shift = h1.n();
  for (const Edge& e : h2.edges()) edges.emplace_back(e.u + shift, e.v + shift);
  return Graph(h1.n() + h2.n(), std::move(edges));
}

Graph overlay(const Graph& h1, const Graph& h2) {
  if (h1.n() != h2.n()) throw std::invalid_argument("overlay: vertex sets differ");
  std::vector<Edge> edges(h1.edges().begin(), h1.edges().end());
  edges.insert(edges.end(), h2.edges().begin(), h2.edges().end());
  return Graph(h1.n(), std::move(edges));
}

}  // namespace tft::gen

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "graph/generators.h"
#include "graph/pair_sampling.h"
#include "graph/triangles.h"
#include "util/arena.h"
#include "util/rng.h"

namespace tft::gen {
namespace {

TEST(Gnp, EdgeCountConcentrates) {
  Rng rng(1);
  const Vertex n = 400;
  const double p = 0.05;
  const Graph g = gnp(n, p, rng);
  const double expected = p * n * (n - 1) / 2.0;
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected, 5 * std::sqrt(expected));
}

TEST(Gnp, ExtremeProbabilities) {
  Rng rng(1);
  for (const Vertex n : {0u, 1u, 2u, 50u}) {
    EXPECT_EQ(gnp(n, 0.0, rng).num_edges(), 0u) << "n=" << n;
    const Graph full = gnp(n, 1.0, rng);
    EXPECT_EQ(full.n(), n);
    EXPECT_EQ(full.num_edges(), pair_count(n)) << "n=" << n;
  }
}

TEST(Gnp, EdgesCoverAllPairsUniformly) {
  // Every unranked pair index must be a valid (u < v) pair; spot-check the
  // pair-unranking by generating a dense sample and verifying bounds. The
  // generator's own list is already what Graph would make of it: sorted and
  // unique, so partitions may deal it without a Graph.
  Rng rng(9);
  Rng same(9);
  const Graph g = gnp(100, 0.5, rng);
  for (const Edge& e : g.edges()) {
    ASSERT_LT(e.u, e.v);
    ASSERT_LT(e.v, 100u);
  }
  ArenaScope scope;
  EXPECT_TRUE(std::ranges::equal(gnp_edges(100, 0.5, same, scope.arena()), g.edges()));
}

TEST(BipartiteGnp, TriangleFree) {
  Rng rng(2);
  const Graph g = bipartite_gnp(300, 0.1, rng);
  EXPECT_TRUE(is_triangle_free(g));
  EXPECT_GT(g.num_edges(), 1000u);
}

TEST(CompleteBipartite, StructureAndFreeness) {
  const Graph g = complete_bipartite(5, 7);
  EXPECT_EQ(g.num_edges(), 35u);
  EXPECT_TRUE(is_triangle_free(g));
  EXPECT_EQ(g.degree(0), 7u);
  EXPECT_EQ(g.degree(5), 5u);
}

TEST(RandomTree, IsConnectedAcyclic) {
  Rng rng(3);
  const Graph g = random_tree(200, rng);
  EXPECT_EQ(g.num_edges(), 199u);
  EXPECT_TRUE(is_triangle_free(g));
}

TEST(Star, Structure) {
  const Graph g = star(10);
  EXPECT_EQ(g.num_edges(), 9u);
  EXPECT_EQ(g.degree(0), 9u);
  EXPECT_TRUE(is_triangle_free(g));
}

TEST(Cycle, EvenCycleIsTriangleFree) {
  EXPECT_TRUE(is_triangle_free(cycle(100)));
  EXPECT_EQ(cycle(100).num_edges(), 100u);
  EXPECT_FALSE(is_triangle_free(cycle(3)));
}

TEST(RandomMatching, DegreeAtMostOne) {
  Rng rng(4);
  const Graph g = random_matching(100, rng);
  EXPECT_EQ(g.num_edges(), 50u);
  for (Vertex v = 0; v < g.n(); ++v) EXPECT_LE(g.degree(v), 1u);
}

TEST(C5Blowup, DenseAndTriangleFree) {
  const Graph g = c5_blowup(100);
  EXPECT_EQ(g.num_edges(), 5u * 20 * 20);
  EXPECT_TRUE(is_triangle_free(g));
  EXPECT_GT(g.average_degree(), 30.0);
}

TEST(PlantedTriangles, ExactTriangleCountAndFarness) {
  Rng rng(5);
  const Graph g = planted_triangles(300, 40, rng);
  EXPECT_EQ(count_triangles(g), 40u);
  // 40 disjoint triangles / (120 + 90) edges -> ~0.19-far.
  EXPECT_TRUE(certify_eps_far(g, 0.15, rng));
}

TEST(PlantedTriangles, RejectsTooMany) {
  Rng rng(5);
  EXPECT_THROW(planted_triangles(10, 4, rng), std::invalid_argument);
}

TEST(HubMatching, HubsHaveHighDegreeAndGraphIsFar) {
  Rng rng(6);
  const std::uint32_t hubs = 4;
  const Vertex n = 800;
  const Graph g = hub_matching(n, hubs, rng);
  for (Vertex h = 0; h < hubs; ++h) EXPECT_EQ(g.degree(h), n - hubs);
  // Average degree ~ 3 * hubs.
  EXPECT_NEAR(g.average_degree(), 3.0 * hubs, 1.5);
  // Theta(hubs * n / 2) edge-disjoint triangles out of ~1.5 hubs n edges.
  EXPECT_TRUE(certify_eps_far(g, 0.15, rng));
  // Every triangle goes through a hub: non-hub-only subgraph (the union of
  // matchings) must be triangle-free with overwhelming probability... it is
  // a union of `hubs` random matchings, which can in principle close a
  // triangle; just verify triangles exist and are plentiful instead.
  EXPECT_GT(count_triangles(g), static_cast<std::uint64_t>(hubs) * (n - hubs) / 2 - 200);
}

TEST(TripartiteMu, StructureAndDensity) {
  Rng rng(7);
  const Vertex side = 300;
  const double gamma = 0.5;
  const Graph g = tripartite_mu(side, gamma, rng);
  EXPECT_EQ(g.n(), 3 * side);
  const double p = gamma / std::sqrt(static_cast<double>(side));
  const double expected = 3.0 * p * side * side;
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected, 6 * std::sqrt(expected));
  // No edge inside a part.
  for (const Edge& e : g.edges()) {
    const auto part = [&](Vertex v) { return v / side; };
    EXPECT_NE(part(e.u), part(e.v));
  }
}

TEST(EmbedWithIsolated, PreservesStructure) {
  Rng rng(8);
  const Graph core = gnp(50, 0.3, rng);
  const Graph g = embed_with_isolated(core, 500);
  EXPECT_EQ(g.n(), 500u);
  EXPECT_EQ(g.num_edges(), core.num_edges());
  EXPECT_EQ(count_triangles(g), count_triangles(core));
  for (Vertex v = 50; v < 500; ++v) EXPECT_EQ(g.degree(v), 0u);
  EXPECT_THROW(embed_with_isolated(core, 10), std::invalid_argument);
}

TEST(DisjointUnion, ShiftsSecondGraph) {
  const Graph a(3, {{0, 1}, {1, 2}, {0, 2}});
  const Graph b(2, {{0, 1}});
  const Graph u = disjoint_union(a, b);
  EXPECT_EQ(u.n(), 5u);
  EXPECT_EQ(u.num_edges(), 4u);
  EXPECT_TRUE(u.has_edge(3, 4));
  EXPECT_EQ(count_triangles(u), 1u);
}

TEST(Overlay, UnionsEdgeSets) {
  const Graph a(4, {{0, 1}, {1, 2}});
  const Graph b(4, {{1, 2}, {2, 3}});
  const Graph u = overlay(a, b);
  EXPECT_EQ(u.num_edges(), 3u);
  EXPECT_THROW(overlay(a, Graph(5, {})), std::invalid_argument);
}

// --- generator edge cases -------------------------------------------------

TEST(BipartiteGnp, ExtremeProbabilities) {
  Rng rng(1);
  for (const Vertex n : {0u, 1u, 2u, 60u, 61u}) {
    EXPECT_EQ(bipartite_gnp(n, 0.0, rng).num_edges(), 0u) << "n=" << n;
    // p = 1 gives the complete bipartite graph K_{n/2, n - n/2}, and its
    // list comes out sorted and unique.
    Rng same = rng;
    const Graph full = bipartite_gnp(n, 1.0, rng);
    EXPECT_EQ(full.n(), n);
    EXPECT_EQ(full.num_edges(), std::size_t{n / 2} * (n - n / 2)) << "n=" << n;
    EXPECT_TRUE(is_triangle_free(full));
    ArenaScope scope;
    EXPECT_TRUE(
        std::ranges::equal(bipartite_gnp_edges(n, 1.0, same, scope.arena()), full.edges()));
  }
  Rng a(2);
  Rng b(2);
  ArenaScope scope;
  EXPECT_TRUE(std::ranges::equal(bipartite_gnp_edges(301, 0.1, a, scope.arena()),
                                 bipartite_gnp(301, 0.1, b).edges()));
}

TEST(TripartiteMu, TinySides) {
  Rng rng(2);
  for (const Vertex side : {0u, 1u, 2u}) {
    const Graph g = tripartite_mu(side, 0.9, rng);
    EXPECT_EQ(g.n(), 3 * side);
    // Cross edges only; at side <= 2 the graph is tripartite on micro parts.
    for (const Edge& e : g.edges()) EXPECT_NE(e.u / std::max<Vertex>(side, 1),
                                              e.v / std::max<Vertex>(side, 1));
  }
}

TEST(HubMatching, ZeroHubsIsEmpty) {
  Rng rng(3);
  const Graph g = hub_matching(100, 0, rng);
  EXPECT_EQ(g.n(), 100u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(EmbedWithIsolated, TotalEqualsCore) {
  Rng rng(4);
  const Graph core = gnp(40, 0.3, rng);
  const Graph g = embed_with_isolated(core, 40);
  EXPECT_EQ(g.n(), core.n());
  EXPECT_EQ(g.num_edges(), core.num_edges());
  EXPECT_EQ(count_triangles(g), count_triangles(core));
}

// --- Vertex-width boundary regressions (pair_count / unrank_pair) ---------
//
// Two hazards when n is a 32-bit Vertex: the raw product n*(n-1) overflows
// u32 already for n > 2^16, and the pair count n*(n-1)/2 itself exceeds u32
// for n >= 92683. Both must be evaluated in 64 bits (the chunked index
// spaces at n = 1e8 sit far above both boundaries).

TEST(PairSampling, CountCrossesThe32BitProductBoundary) {
  // n just past 2^16: the raw product n*(n-1) no longer fits in 32 bits.
  const std::uint64_t n = (1ull << 16) + 3;
  EXPECT_EQ(pair_count(n), n * (n - 1) / 2);
  EXPECT_GT(pair_count(n), std::uint64_t{1} << 31);
  // n = 92683: the pair count itself exceeds 2^32.
  EXPECT_GT(pair_count(92683), std::uint64_t{0xFFFFFFFF});
  EXPECT_EQ(pair_count(92683), 92683ull * 92682ull / 2);
}

TEST(PairSampling, UnrankAtBoundaries) {
  for (const std::uint64_t n : {2ull, 363ull, 65539ull, 92683ull, 200000ull}) {
    const std::uint64_t total = pair_count(n);
    const auto first = unrank_pair(0, n);
    EXPECT_EQ(first.first, 0u);
    EXPECT_EQ(first.second, 1u);
    const auto last = unrank_pair(total - 1, n);
    EXPECT_EQ(last.first, n - 2);
    EXPECT_EQ(last.second, n - 1);
    // Round-trip a few interior indices through the ranking formula
    // idx = r*n - r*(r+1)/2 + (c - r - 1).
    for (const std::uint64_t idx :
         {total / 7, total / 3, total / 2, total - total / 5 - 1}) {
      const auto [r, c] = unrank_pair(idx, n);
      ASSERT_LT(r, c);
      ASSERT_LT(static_cast<std::uint64_t>(c), n);
      const std::uint64_t rr = r;
      EXPECT_EQ(rr * n - rr * (rr + 1) / 2 + (c - rr - 1), idx);
    }
    // The row cursor agrees with unrank_pair over an increasing stream: a
    // skip-sampled one (at small n every index, so runs of consecutive
    // indices through every row boundary), plus the last index of the row
    // before and the first of a few rows, and the very last index.
    std::vector<std::uint64_t> stream;
    Rng rng(n);
    const double p = n <= 363 ? 1.0 : 20000.0 / static_cast<double>(total);
    skip_sample(total, p, rng, [&](std::uint64_t i) { stream.push_back(i); });
    for (const std::uint64_t r : {std::uint64_t{1}, n / 2, n - 2}) {
      if (r == 0 || r > n - 2) continue;
      const std::uint64_t row_start = r * n - r * (r + 1) / 2;
      stream.insert(stream.end(), {row_start - 1, row_start});
    }
    stream.push_back(total - 1);
    std::sort(stream.begin(), stream.end());
    stream.erase(std::unique(stream.begin(), stream.end()), stream.end());
    PairCursor cursor(n);
    for (const std::uint64_t idx : stream) {
      ASSERT_EQ(cursor(idx), unrank_pair(idx, n)) << "n=" << n << " idx=" << idx;
    }
  }
}

TEST(PairSampling, UnrankPast32BitPairCount) {
  // Indices beyond 2^32 must unrank without truncation: take the very last
  // index of a space with > 2^32 pairs and one just above 2^32.
  const std::uint64_t n = 100000;
  const std::uint64_t total = pair_count(n);  // ~5e9 > 2^32
  ASSERT_GT(total, std::uint64_t{1} << 32);
  const std::uint64_t idx = (std::uint64_t{1} << 32) + 12345;
  const auto [r, c] = unrank_pair(idx, n);
  const std::uint64_t rr = r;
  EXPECT_EQ(rr * n - rr * (rr + 1) / 2 + (c - rr - 1), idx);
}

TEST(PairSampling, SkipSampleRangeSplitsCleanly) {
  // Splitting [0, total) into ranges with per-range streams yields exactly
  // the indices each range's stream would produce — the identity the
  // chunked generator's per-block sampling rests on.
  const std::uint64_t total = 10000;
  const double p = 0.03;
  std::vector<std::uint64_t> split;
  for (const auto& [lo, hi] : std::vector<std::pair<std::uint64_t, std::uint64_t>>{
           {0, 4000}, {4000, 9000}, {9000, 10000}}) {
    Rng rng = derive_rng(99, lo);
    skip_sample_range(lo, hi, p, rng, [&](std::uint64_t i) { split.push_back(i); });
    for (std::size_t j = 1; j < split.size(); ++j) ASSERT_LT(split[j - 1], split[j]);
  }
  for (const std::uint64_t i : split) ASSERT_LT(i, total);
  EXPECT_NEAR(static_cast<double>(split.size()), p * total, 6 * std::sqrt(p * total));
}

}  // namespace
}  // namespace tft::gen

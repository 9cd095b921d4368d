#include <gtest/gtest.h>

#include <map>
#include <string>
#include <unordered_set>

#include "core/building_blocks.h"
#include "core/sim_high.h"
#include "core/subgraph_freeness.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "graph/triangles.h"
#include "proptest.h"
#include "util/rng.h"

namespace tft {
namespace {

/// Cross-cutting invariants not tied to a single module.

/// The triangle-kernel checks that need no second implementation, or ""
/// when they all hold: the greedy packing (drawn with `rng`) is edge-disjoint
/// and maximal — no triangle with all three edges unused remains, the
/// property that makes it a 1/3-approximation and a valid distance bound —
/// count_triangles equals a brute-force enumeration, and find_triangle
/// returns a real triangle exactly when the count is positive.
std::string kernel_invariant_violation(const Graph& g, Rng& rng) {
  const auto packing = greedy_triangle_packing(g, rng);
  std::unordered_set<std::uint64_t> used;
  for (const Triangle& t : packing) {
    if (!g.contains(t)) return "packed a non-triangle";
    for (const Edge& e : {t.e1(), t.e2(), t.e3()}) {
      if (!used.insert(e.key()).second) return "packing reuses an edge";
    }
  }
  std::uint64_t brute = 0;
  for (Vertex a = 0; a < g.n(); ++a) {
    for (const Vertex b : g.neighbors(a)) {
      if (b <= a) continue;
      for (const Vertex c : g.neighbors(b)) {
        if (c <= b || !g.has_edge(a, c)) continue;
        ++brute;
        if (!used.contains(Edge(a, b).key()) && !used.contains(Edge(b, c).key()) &&
            !used.contains(Edge(a, c).key())) {
          return "unpacked triangle " + std::to_string(a) + "," + std::to_string(b) + "," +
                 std::to_string(c);
        }
      }
    }
  }
  const std::uint64_t count = count_triangles(g);
  if (count != brute) {
    return "count_triangles " + std::to_string(count) + " != brute force " +
           std::to_string(brute);
  }
  const auto found = find_triangle(g);
  if (found.has_value() != (brute > 0)) return "find_triangle disagrees with the count";
  if (found && !g.contains(*found)) return "find_triangle returned a non-triangle";
  return "";
}

TEST(Invariants, GreedyPackingIsMaximal) {
  Rng rng(1);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = gen::gnp(120, 0.1, rng);
    EXPECT_EQ(kernel_invariant_violation(g, rng), "");
  }
  // The skewed graph whose packing takes the bitmap probe (the frozen
  // chung_lu in tests/test_intersect.cpp).
  {
    Rng gen_rng(4);
    const Graph g = gen::chung_lu(10000, 12.0, 2.3, gen_rng);
    Rng pack_rng(7);
    EXPECT_EQ(kernel_invariant_violation(g, pack_rng), "");
  }
  const auto result = proptest::check(0x9AC4, 60, [](const proptest::GraphCase& c) {
    Rng pack_rng(c.seed);
    const std::string violation = kernel_invariant_violation(c.graph(), pack_rng);
    return proptest::PropOutcome{violation.empty(), violation};
  });
  EXPECT_TRUE(result.ok) << result.to_string();
}

TEST(Invariants, RandomWalkStepIsUniformOverNeighbors) {
  // One step from the star center must be ~uniform over leaves even when
  // leaves are duplicated unevenly across players.
  const Vertex n = 6;
  std::vector<PlayerInput> players;
  // Leaves 1..5; leaf 1 appears in all three inputs, others spread.
  players.push_back(PlayerInput{0, 3, Graph(n, {{0, 1}, {0, 2}})});
  players.push_back(PlayerInput{1, 3, Graph(n, {{0, 1}, {0, 3}, {0, 4}})});
  players.push_back(PlayerInput{2, 3, Graph(n, {{0, 1}, {0, 5}})});
  const SharedRandomness sr(7);
  Transcript t(3, n);
  std::map<Vertex, int> counts;
  constexpr int kTrials = 5000;
  for (int i = 0; i < kTrials; ++i) {
    const auto path =
        random_walk(players, t, sr, SharedTag{11, static_cast<std::uint64_t>(i), 0}, 0, 1);
    ASSERT_EQ(path.size(), 2u);
    ++counts[path[1]];
  }
  ASSERT_EQ(counts.size(), 5u);
  for (const auto& [v, c] : counts) EXPECT_NEAR(c, kTrials / 5, 130) << "leaf " << v;
}

TEST(Invariants, BfsOnDisconnectedGraphLeavesOtherComponentsUntouched) {
  Rng rng(2);
  const Graph g = gen::disjoint_union(gen::cycle(10), gen::cycle(10));
  const auto players = partition_random(g, 2, rng);
  Transcript t(2, g.n());
  const auto bfs = distributed_bfs(players, t, 0);
  EXPECT_EQ(bfs.order.size(), 10u);
  for (Vertex v = 10; v < 20; ++v) EXPECT_EQ(bfs.depth[v], UINT32_MAX);
}

TEST(Invariants, SimHighSampleSizeMonotoneInDegree) {
  SimHighOptions o;
  o.eps = 0.1;
  o.c = 3.0;
  double prev = 1e18;
  for (const double d : {16.0, 64.0, 256.0, 1024.0}) {
    o.average_degree = d;
    const double s = sim_high_sample_size(1 << 16, o);
    EXPECT_LT(s, prev);  // denser graphs need smaller samples
    prev = s;
  }
}

TEST(Invariants, SubgraphSearchBudgetExhaustionIsSafe) {
  // A tiny step budget returns nullopt rather than crashing or spinning,
  // even when a copy exists.
  Rng rng(3);
  const Graph g = gen::gnp(300, 0.2, rng);
  ASSERT_TRUE(contains_subgraph(g, pattern_clique(3)));
  const auto limited = find_subgraph(g, pattern_clique(5), /*max_steps=*/3);
  // With 3 steps the search cannot place 5 vertices.
  EXPECT_FALSE(limited.has_value());
}

TEST(Invariants, EdgeAndTriangleOrderingConsistent) {
  // Comparison operators: lexicographic on normalized forms.
  EXPECT_LT(Edge(0, 1), Edge(0, 2));
  EXPECT_LT(Edge(0, 9), Edge(1, 2));
  EXPECT_LT(Triangle(0, 1, 2), Triangle(0, 1, 3));
  EXPECT_EQ(Triangle(2, 1, 0), Triangle(0, 2, 1));
}

TEST(Invariants, PartitionPreservesVertexUniverse) {
  Rng rng(4);
  const Graph g = gen::gnp(100, 0.05, rng);
  for (const std::size_t k : {1u, 3u, 7u}) {
    const auto players = partition_random(g, k, rng);
    for (const auto& p : players) {
      EXPECT_EQ(p.n(), g.n());
      EXPECT_EQ(p.k, k);
    }
  }
}

TEST(Invariants, CertifyEpsFarIsMonotoneInEps) {
  Rng rng(5);
  const Graph g = gen::planted_triangles(300, 60, rng);
  // If certified at eps, every smaller eps must certify too (same packing
  // randomness via fresh but statistically equivalent runs; use one packing).
  const auto packing = static_cast<double>(distance_lower_bound(g, rng));
  const double m = static_cast<double>(g.num_edges());
  for (double eps = 0.05; eps < 0.5; eps += 0.05) {
    const bool expected = packing >= eps * m;
    Rng r2(5);  // deterministic packing replay not guaranteed; recompute bound
    const bool got = static_cast<double>(distance_lower_bound(g, r2)) >= eps * m;
    // Allow greedy variance of one trial: both computed bounds are within
    // a factor ~1 of each other on this structured instance (planted
    // disjoint triangles are always fully recovered).
    EXPECT_EQ(expected, got) << "eps=" << eps;
  }
}

TEST(Invariants, HubMatchingDegreesBimodal) {
  Rng rng(6);
  const Graph g = gen::hub_matching(500, 4, rng);
  // Hubs huge, everyone else small — the bimodal profile the bucketing
  // machinery targets.
  for (Vertex h = 0; h < 4; ++h) EXPECT_GT(g.degree(h), 400u);
  std::size_t small = 0;
  for (Vertex v = 4; v < g.n(); ++v) small += g.degree(v) <= 12 ? 1 : 0;
  EXPECT_GT(small, 450u);
}

}  // namespace
}  // namespace tft

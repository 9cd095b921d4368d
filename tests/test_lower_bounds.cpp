#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.h"
#include "graph/triangles.h"
#include "lower_bounds/boolean_matching.h"
#include "lower_bounds/budget_search.h"
#include "lower_bounds/embedding.h"
#include "lower_bounds/mu_distribution.h"
#include "util/arena.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stats.h"

namespace tft {
namespace {

// ---------- mu distribution ----------

TEST(Mu, PartitionIsCanonicalAndComplete) {
  Rng rng(1);
  const auto mu = sample_mu(200, 0.8, rng);
  const auto players = partition_mu_three(mu);
  ASSERT_EQ(players.size(), 3u);
  EXPECT_TRUE(is_duplication_free(players));
  EXPECT_EQ(union_graph(players).num_edges(), mu.graph.num_edges());
  // Alice only U x V1, Bob only U x V2, Charlie only V1 x V2.
  for (const Edge& e : players[0].local.edges()) {
    EXPECT_TRUE(mu.layout.in_u(e.u) && mu.layout.in_v1(e.v));
  }
  for (const Edge& e : players[1].local.edges()) {
    EXPECT_TRUE(mu.layout.in_u(e.u) && mu.layout.in_v2(e.v));
  }
  for (const Edge& e : players[2].local.edges()) {
    EXPECT_TRUE(mu.layout.in_v1(e.u) && mu.layout.in_v2(e.v));
  }
}

TEST(Mu, Lemma45FarnessHoldsEmpirically) {
  // Lemma 4.5: Omega(side^{3/2}) disjoint triangles with probability >= 1/2.
  // With gamma = 0.9 the packing is comfortably above c * gamma^3 * n^{3/2}
  // for a small c in almost every sample.
  const auto stats = mu_farness_stats(500, 0.9, 20, 1.0 / 48.0, 7);
  EXPECT_GE(stats.far_fraction(), 0.5);
  EXPECT_GT(stats.mean_packing, stats.threshold);
}

/// The researcher's loop: mu_farness_stats called again and again on one
/// thread draws a new instance per trial, and the packing's scratch must
/// come back to that thread's arena each time, so its capacity stays flat.
TEST(Mu, RepeatedFarnessStatsKeepTheThreadArenaFlat) {
  const int prev = default_threads();
  set_default_threads(1);  // every trial runs on this thread, in its arena
  for (std::uint64_t seed = 0; seed < 3; ++seed) {  // warm up
    (void)mu_farness_stats(600, 0.9, 1, 1.0 / 48.0, seed);
  }
  const std::size_t before = thread_arena().capacity_bytes();
  for (std::uint64_t seed = 3; seed < 23; ++seed) {
    (void)mu_farness_stats(600, 0.9, 1, 1.0 / 48.0, seed);
  }
  const std::size_t after = thread_arena().capacity_bytes();
  set_default_threads(prev);
  EXPECT_EQ(after, before) << "thread arena grew by " << (after - before) / 1024
                           << " KiB over 20 calls";
}

TEST(Mu, ExpectedTriangleScaling) {
  // E[#triangles] = side^3 * (gamma/sqrt(side))^3 = gamma^3 side^{3/2}.
  Rng rng(2);
  const Vertex side = 600;
  const double gamma = 0.8;
  Summary packs;
  for (int i = 0; i < 8; ++i) {
    const auto mu = sample_mu(side, gamma, rng);
    packs.add(static_cast<double>(count_triangles(mu.graph)));
  }
  const double expected = std::pow(gamma, 3.0) * std::pow(static_cast<double>(side), 1.5);
  EXPECT_NEAR(packs.mean(), expected, 0.5 * expected);
}

TEST(Mu, IsTriangleEdgeAgreesWithDefinition) {
  const Graph g(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  EXPECT_TRUE(is_triangle_edge(g, Edge(0, 1)));
  EXPECT_TRUE(is_triangle_edge(g, Edge(1, 2)));
  EXPECT_FALSE(is_triangle_edge(g, Edge(2, 3)));
  EXPECT_FALSE(is_triangle_edge(g, Edge(0, 3)));  // not even an edge
}

// ---------- Boolean Matching (Theorem 4.16) ----------

TEST(BooleanMatching, PromiseHoldsByConstruction) {
  Rng rng(3);
  for (const bool zero : {true, false}) {
    const auto inst = sample_bm(64, zero, rng);
    const auto v = bm_mx_xor_w(inst);
    for (const auto bit : v) EXPECT_EQ(bit, zero ? 0 : 1);
  }
}

TEST(BooleanMatching, ZeroCaseHasNDisjointTriangles) {
  Rng rng(4);
  const std::uint32_t n_pairs = 80;
  const auto inst = sample_bm(n_pairs, true, rng);
  const Graph g = bm_graph(inst);
  EXPECT_EQ(g.n(), 1u + 4 * n_pairs);
  EXPECT_EQ(g.num_edges(), 4u * n_pairs);
  EXPECT_EQ(count_triangles(g), n_pairs);
  // They are edge-disjoint: greedy packing recovers all of them.
  EXPECT_EQ(greedy_triangle_packing(g, rng).size(), n_pairs);
  // Constant farness: n triangles / 4n edges.
  EXPECT_TRUE(certify_eps_far(g, 0.2, rng));
}

TEST(BooleanMatching, OneCaseIsTriangleFree) {
  Rng rng(5);
  for (int t = 0; t < 5; ++t) {
    const auto inst = sample_bm(80, false, rng);
    EXPECT_TRUE(is_triangle_free(bm_graph(inst)));
  }
}

TEST(BooleanMatching, ConstantAverageDegree) {
  Rng rng(6);
  const auto g = bm_graph(sample_bm(500, true, rng));
  EXPECT_NEAR(g.average_degree(), 2.0, 0.1);
}

TEST(BooleanMatching, TwoPlayerSplitMatchesWholeGraph) {
  Rng rng(7);
  const auto inst = sample_bm(60, true, rng);
  const auto players = bm_two_players(inst);
  ASSERT_EQ(players.size(), 2u);
  EXPECT_TRUE(is_duplication_free(players));
  const Graph u = union_graph(players);
  const Graph g = bm_graph(inst);
  EXPECT_EQ(u.num_edges(), g.num_edges());
  // Alice's edges are all incident to the apex.
  for (const Edge& e : players[0].local.edges()) EXPECT_EQ(e.u, 0u);
  // Bob's never are.
  for (const Edge& e : players[1].local.edges()) EXPECT_NE(e.u, 0u);
}

// ---------- Embedding (Lemma 4.17) ----------

TEST(Embedding, TargetsRequestedAverageDegree) {
  Rng rng(8);
  const Vertex n = 20000;
  const double d_target = 4.0;
  const auto inst = embed_dense_core(n, d_target, 0.5, rng);
  EXPECT_NEAR(inst.graph.average_degree(), d_target, 0.2 * d_target);
  EXPECT_EQ(inst.graph.n(), n);
  // Core degree ~ n' p = sqrt(n d p): much denser than the average.
  EXPECT_GT(inst.core_degree, 10 * d_target);
}

TEST(Embedding, PreservesFarnessOfCore) {
  Rng rng(9);
  const auto inst = embed_dense_core(5000, 2.0, 0.5, rng);
  // Dense G(n', 1/2) cores are Omega(1)-far; distance is preserved exactly
  // by the embedding and |E| unchanged.
  EXPECT_TRUE(certify_eps_far(inst.graph, 0.1, rng));
}

TEST(Embedding, ArbitraryCore) {
  Rng rng(10);
  const Graph core = gen::gnp(40, 0.4, rng);
  const auto inst = embed_core(core, 400);
  EXPECT_EQ(inst.core_n, 40u);
  EXPECT_EQ(inst.graph.num_edges(), core.num_edges());
}

// ---------- Budget search ----------

TEST(BudgetSearch, FindsSyntheticThreshold) {
  // Trial succeeds iff budget >= 1000 (deterministic).
  const BudgetTrial trial = [](std::uint64_t budget, std::uint64_t) {
    return budget >= 1000;
  };
  BudgetSearchOptions opts;
  opts.budget_lo = 1;
  opts.trials_per_budget = 5;
  opts.refine_steps = 12;
  const auto r = find_min_budget(trial, opts);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.min_budget, 1000u);
}

TEST(BudgetSearch, HandlesNeverPassing) {
  const BudgetTrial trial = [](std::uint64_t, std::uint64_t) { return false; };
  BudgetSearchOptions opts;
  opts.budget_lo = 1;
  opts.budget_hi = 1 << 10;
  opts.trials_per_budget = 2;
  const auto r = find_min_budget(trial, opts);
  EXPECT_FALSE(r.found);
  EXPECT_FALSE(r.curve.empty());
}

TEST(BudgetSearch, NoisyThresholdWithinFactorTwo) {
  // Success probability ramps from 0 to 1 around budget 500.
  const BudgetTrial trial = [](std::uint64_t budget, std::uint64_t trial_index) {
    const double p = std::min(1.0, static_cast<double>(budget) / 500.0);
    const double u =
        static_cast<double>(mix_hash(trial_index, budget) >> 11) * 0x1.0p-53;
    return u < p * p;  // ~0.8 success needs budget ~ 450
  };
  BudgetSearchOptions opts;
  opts.budget_lo = 4;
  opts.target_success = 0.7;
  opts.trials_per_budget = 60;
  const auto r = find_min_budget(trial, opts);
  ASSERT_TRUE(r.found);
  EXPECT_GE(r.min_budget, 200u);
  EXPECT_LE(r.min_budget, 1100u);
}

}  // namespace
}  // namespace tft

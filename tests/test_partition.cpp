#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "graph/partition.h"
#include "util/arena.h"
#include "util/rng.h"

namespace tft {
namespace {

Graph make_test_graph(Rng& rng) { return gen::gnp(200, 0.05, rng); }

TEST(Partition, RandomPartitionCoversAllEdgesExactlyOnce) {
  Rng rng(1);
  const Graph g = make_test_graph(rng);
  const auto players = partition_random(g, 4, rng);
  ASSERT_EQ(players.size(), 4u);
  EXPECT_TRUE(is_duplication_free(players));
  std::size_t total = 0;
  for (const auto& p : players) {
    total += p.local.num_edges();
    EXPECT_EQ(p.n(), g.n());
    EXPECT_EQ(p.k, 4u);
  }
  EXPECT_EQ(total, g.num_edges());
  const Graph u = union_graph(players);
  EXPECT_EQ(u.num_edges(), g.num_edges());
}

TEST(Partition, UnionReconstructsGraph) {
  Rng rng(2);
  const Graph g = make_test_graph(rng);
  const auto players = partition_duplicated(g, 5, 2.5, rng);
  const Graph u = union_graph(players);
  ASSERT_EQ(u.num_edges(), g.num_edges());
  for (std::size_t i = 0; i < g.num_edges(); ++i) EXPECT_EQ(u.edge(i), g.edge(i));
}

/// The referee's union is a k-way merge of sorted lists; it must equal the
/// sorted, deduplicated concatenation it replaced, for any k and any
/// amount of duplication.
TEST(Partition, MergedUnionEqualsSortedConcatenation) {
  Rng rng(6);
  for (const std::size_t k : {1u, 2u, 3u, 4u, 5u, 7u, 8u}) {
    for (const double dup : {1.0, 1.5, 3.0}) {
      const Graph g = gen::gnp(300, 0.04, rng);
      const auto players = partition_duplicated(g, k, std::min<double>(dup, k), rng);
      std::vector<Edge> concatenated;
      for (const auto& p : players) {
        concatenated.insert(concatenated.end(), p.local.edges().begin(), p.local.edges().end());
      }
      std::sort(concatenated.begin(), concatenated.end());
      concatenated.erase(std::unique(concatenated.begin(), concatenated.end()),
                         concatenated.end());
      EXPECT_EQ(union_edges(players), concatenated) << "k=" << k << " dup=" << dup;
    }
  }
}

TEST(Partition, DuplicationFactorIsRespected) {
  Rng rng(3);
  const Graph g = make_test_graph(rng);
  const double dup = 2.0;
  const auto players = partition_duplicated(g, 8, dup, rng);
  EXPECT_FALSE(is_duplication_free(players));
  std::size_t total = 0;
  for (const auto& p : players) total += p.local.num_edges();
  const double expected = dup * static_cast<double>(g.num_edges());
  EXPECT_NEAR(static_cast<double>(total), expected, 0.15 * expected);
}

TEST(Partition, EveryEdgeAppearsSomewhereUnderDuplication) {
  Rng rng(4);
  const Graph g = make_test_graph(rng);
  const auto players = partition_duplicated(g, 3, 1.7, rng);
  const Graph u = union_graph(players);
  EXPECT_EQ(u.num_edges(), g.num_edges());
}

TEST(Partition, ByVertexColocatesEdges) {
  Rng rng(5);
  const Graph g = gen::star(100);  // all edges share vertex 0
  PartitionOptions opts;
  opts.by_vertex = true;
  const auto players = partition_edges(g, 4, opts, rng);
  // All star edges have min endpoint 0, so exactly one player owns them all.
  std::size_t owners = 0;
  for (const auto& p : players) owners += p.local.num_edges() > 0 ? 1 : 0;
  EXPECT_EQ(owners, 1u);
}

TEST(Partition, HeavyFractionSkewsPlayerZero) {
  Rng rng(6);
  const Graph g = make_test_graph(rng);
  PartitionOptions opts;
  opts.heavy_fraction = 0.8;
  const auto players = partition_edges(g, 4, opts, rng);
  EXPECT_GT(players[0].local.num_edges(), g.num_edges() / 2);
}

TEST(Partition, SinglePlayerGetsEverything) {
  Rng rng(7);
  const Graph g = make_test_graph(rng);
  const auto players = partition_random(g, 1, rng);
  EXPECT_EQ(players[0].local.num_edges(), g.num_edges());
}

/// A generator's sorted list, dealt as a span, gives the same players and
/// leaves the Rng in the same state as the Graph built from that list,
/// whatever the options.
TEST(Partition, SpanOfAGeneratorListMatchesTheGraphOverload) {
  PartitionOptions dup;
  dup.dup_factor = 2.5;
  PartitionOptions heavy;
  heavy.heavy_fraction = 0.4;
  PartitionOptions vertex;
  vertex.by_vertex = true;
  PartitionOptions all = dup;
  all.heavy_fraction = 0.3;
  all.by_vertex = true;
  Rng gen_rng(10);
  ArenaScope scope;
  const std::pair<Vertex, std::span<const Edge>> lists[] = {
      {300, gen::gnp_edges(300, 0.05, gen_rng, scope.arena())},
      {301, gen::bipartite_gnp_edges(301, 0.08, gen_rng, scope.arena())},
      {5, {}}};
  for (const auto& [n, list] : lists) {
    const Graph g(n, {list.begin(), list.end()});
    for (const std::size_t k : {1u, 3u, 4u}) {
      for (PartitionOptions opts : {PartitionOptions{}, dup, heavy, vertex, all}) {
        opts.dup_factor = std::min<double>(opts.dup_factor, static_cast<double>(k));
        Rng a(11);
        Rng b(11);
        const auto from_graph = partition_edges(g, k, opts, a);
        const auto from_span = partition_edges(n, list, k, opts, b);
        ASSERT_EQ(from_span.size(), k);
        for (std::size_t j = 0; j < k; ++j) {
          const auto span_edges = from_span[j].local.edges();
          EXPECT_EQ(from_span[j].n(), n);
          EXPECT_TRUE(std::ranges::equal(span_edges, from_graph[j].local.edges()))
              << "n=" << n << " k=" << k << " player " << j;
        }
        EXPECT_EQ(a(), b()) << "n=" << n << " k=" << k;
      }
    }
  }
}

TEST(Partition, InvalidArguments) {
  Rng rng(8);
  const Graph g = make_test_graph(rng);
  EXPECT_THROW(partition_random(g, 0, rng), std::invalid_argument);
  EXPECT_THROW(partition_random(g, (std::size_t{1} << 31) + 1, rng), std::invalid_argument);
  PartitionOptions bad;
  bad.dup_factor = 0.5;
  EXPECT_THROW(partition_edges(g, 2, bad, rng), std::invalid_argument);
  bad.dup_factor = 1.0;
  bad.heavy_fraction = 1.0;
  EXPECT_THROW(partition_edges(g, 2, bad, rng), std::invalid_argument);
}

TEST(PlayerInput, LocalDegreeMatchesLocalGraph) {
  Rng rng(9);
  const Graph g = make_test_graph(rng);
  const auto players = partition_random(g, 3, rng);
  // Sum of local degrees equals the true degree (no duplication).
  for (Vertex v = 0; v < g.n(); ++v) {
    std::uint32_t sum = 0;
    for (const auto& p : players) sum += p.local_degree(v);
    EXPECT_EQ(sum, g.degree(v));
  }
}

}  // namespace
}  // namespace tft

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "graph/graph.h"
#include "proptest.h"

namespace tft {
namespace {

TEST(Edge, NormalizesEndpoints) {
  const Edge e(5, 2);
  EXPECT_EQ(e.u, 2u);
  EXPECT_EQ(e.v, 5u);
  EXPECT_EQ(Edge(2, 5), e);
}

TEST(Edge, KeyIsInjective) {
  EXPECT_NE(Edge(1, 2).key(), Edge(1, 3).key());
  EXPECT_NE(Edge(1, 2).key(), Edge(2, 3).key());
  EXPECT_EQ(Edge(4, 1).key(), Edge(1, 4).key());
}

TEST(Triangle, SortsVertices) {
  const Triangle t(9, 3, 7);
  EXPECT_EQ(t.a, 3u);
  EXPECT_EQ(t.b, 7u);
  EXPECT_EQ(t.c, 9u);
  EXPECT_EQ(t.e1(), Edge(3, 7));
  EXPECT_EQ(t.e3(), Edge(7, 9));
}

TEST(Graph, EmptyGraph) {
  const Graph g;
  EXPECT_EQ(g.n(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.average_degree(), 0.0);
}

TEST(Graph, DeduplicatesAndDropsSelfLoops) {
  const Graph g(4, {{0, 1}, {1, 0}, {2, 2}, {1, 2}, {1, 2}});
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 1));
  EXPECT_FALSE(g.has_edge(2, 2));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(Graph, RejectsOutOfRangeEndpoint) {
  EXPECT_THROW(Graph(3, {{0, 3}}), std::invalid_argument);
}

TEST(Graph, DegreesAndNeighborsAreConsistent) {
  const Graph g(5, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {3, 4}});
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(4), 1u);
  const auto ns = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(ns.begin(), ns.end()));
  EXPECT_EQ(ns.size(), 3u);
  std::uint64_t degree_sum = 0;
  for (Vertex v = 0; v < g.n(); ++v) degree_sum += g.degree(v);
  EXPECT_EQ(degree_sum, 2 * g.num_edges());
}

TEST(Graph, HasEdgeSymmetry) {
  const Graph g(4, {{0, 1}, {2, 3}});
  for (Vertex u = 0; u < 4; ++u) {
    for (Vertex v = 0; v < 4; ++v) {
      EXPECT_EQ(g.has_edge(u, v), g.has_edge(v, u));
    }
  }
}

TEST(Graph, AverageAndMaxDegree) {
  const Graph g(4, {{0, 1}, {0, 2}, {0, 3}});
  EXPECT_DOUBLE_EQ(g.average_degree(), 1.5);
  EXPECT_EQ(g.max_degree(), 3u);
}

TEST(Graph, ContainsTriangleAndVee) {
  const Graph g(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  EXPECT_TRUE(g.contains(Triangle(0, 1, 2)));
  EXPECT_FALSE(g.contains(Triangle(1, 2, 3)));
  EXPECT_TRUE(g.contains(Vee{2, 0, 3}));
  EXPECT_FALSE(g.contains(Vee{3, 0, 2}));
}

TEST(Graph, EdgesAreSortedUnique) {
  const Graph g(6, {{5, 4}, {1, 0}, {3, 2}, {0, 1}});
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(std::is_sorted(g.edges().begin(), g.edges().end()));
}

/// A sorted edge list skips the constructor's sort; any other list takes
/// it. Both must build the same graph: equal edge list, degrees (the CSR
/// offsets) and neighbor lists.
TEST(Graph, SortedAndShuffledInputsBuildTheSameGraph) {
  const auto result = proptest::check(0x5EED5, 300, [](const proptest::GraphCase& c) {
    std::vector<Edge> sorted = c.edges;
    std::sort(sorted.begin(), sorted.end());
    std::vector<Edge> shuffled = sorted;
    Rng rng(c.seed);
    for (std::size_t i = 0; i < sorted.size(); i += 3) shuffled.push_back(sorted[i]);
    for (Vertex v = 0; v < c.n; v += 7) shuffled.emplace_back(v, v);
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    const Graph a(c.n, sorted);
    const Graph b(c.n, shuffled);
    if (!std::ranges::equal(a.edges(), b.edges())) return proptest::PropOutcome{false, "edges"};
    for (Vertex v = 0; v < c.n; ++v) {
      if (a.degree(v) != b.degree(v) || !std::ranges::equal(a.neighbors(v), b.neighbors(v))) {
        return proptest::PropOutcome{false, "row " + std::to_string(v)};
      }
    }
    return proptest::PropOutcome{};
  });
  EXPECT_TRUE(result.ok) << result.to_string();
}

}  // namespace
}  // namespace tft

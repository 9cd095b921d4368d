#include "graph/graph.h"

#include <algorithm>
#include <stdexcept>

namespace tft {

Triangle::Triangle(Vertex x, Vertex y, Vertex z) noexcept : a(x), b(y), c(z) {
  if (a > b) std::swap(a, b);
  if (b > c) std::swap(b, c);
  if (a > b) std::swap(a, b);
}

Graph::Graph(Vertex n, std::vector<Edge> edges) : n_(n), edges_(std::move(edges)) {
  // Drop self-loops, validate endpoints.
  std::erase_if(edges_, [](const Edge& e) { return e.u == e.v; });
  for (const Edge& e : edges_) {
    if (e.v >= n_) throw std::invalid_argument("Graph: edge endpoint out of range");
  }
  // Generators, partitions and merged unions hand over lists already in
  // order; only the rest pay for a sort.
  if (!std::is_sorted(edges_.begin(), edges_.end())) std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());

  // Build CSR (both directions).
  offsets_.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (const Edge& e : edges_) {
    ++offsets_[e.u + 1];
    ++offsets_[e.v + 1];
  }
  for (std::size_t i = 1; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];
  adj_.resize(2 * edges_.size());
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const Edge& e : edges_) {
    adj_[cursor[e.u]++] = e.v;
    adj_[cursor[e.v]++] = e.u;
  }
  // Each row is sorted because edges_ is sorted by (u, v): row u receives v's
  // in increasing v order, and row v receives u's in increasing u order;
  // both insert orders are monotone, so rows come out sorted with no
  // per-row sort pass (tests/test_graph.cpp asserts this invariant).
}

bool Graph::has_edge(Vertex u, Vertex v) const {
  if (u >= n_ || v >= n_ || u == v) return false;
  // Search from the lower-degree endpoint.
  if (degree(u) > degree(v)) std::swap(u, v);
  const auto ns = neighbors(u);
  return std::binary_search(ns.begin(), ns.end(), v);
}

Vertex Graph::max_degree() const noexcept {
  std::uint32_t best = 0;
  for (Vertex v = 0; v < n_; ++v) best = std::max(best, degree(v));
  return best;
}

}  // namespace tft

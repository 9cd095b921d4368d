#include "graph/partition.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <unordered_set>

#include "util/rng.h"

namespace tft {

std::vector<PlayerInput> partition_edges(const Graph& g, std::size_t k,
                                         const PartitionOptions& opts, Rng& rng) {
  if (k == 0) throw std::invalid_argument("partition_edges: k must be >= 1");
  if (opts.dup_factor < 1.0) throw std::invalid_argument("partition_edges: dup_factor < 1");
  if (opts.heavy_fraction < 0.0 || opts.heavy_fraction >= 1.0) {
    throw std::invalid_argument("partition_edges: heavy_fraction out of range");
  }

  std::vector<std::vector<Edge>> per_player(k);
  const double extra_p =
      (k > 1) ? (opts.dup_factor - 1.0) / static_cast<double>(k - 1) : 0.0;

  for (const Edge& e : g.edges()) {
    std::size_t owner;
    if (opts.heavy_fraction > 0.0 && rng.bernoulli(opts.heavy_fraction)) {
      owner = 0;
    } else if (opts.by_vertex) {
      owner = static_cast<std::size_t>(mix_hash(0x9a1fb7u, e.u) % k);
    } else {
      owner = static_cast<std::size_t>(rng.below(k));
    }
    per_player[owner].push_back(e);
    if (extra_p > 0.0) {
      for (std::size_t j = 0; j < k; ++j) {
        if (j != owner && rng.bernoulli(extra_p)) per_player[j].push_back(e);
      }
    }
  }

  std::vector<PlayerInput> players;
  players.reserve(k);
  for (std::size_t j = 0; j < k; ++j) {
    players.push_back(PlayerInput{j, k, Graph(g.n(), std::move(per_player[j]))});
  }
  return players;
}

std::vector<PlayerInput> partition_random(const Graph& g, std::size_t k, Rng& rng) {
  return partition_edges(g, k, PartitionOptions{}, rng);
}

std::vector<PlayerInput> partition_duplicated(const Graph& g, std::size_t k, double dup_factor,
                                              Rng& rng) {
  PartitionOptions opts;
  opts.dup_factor = dup_factor;
  return partition_edges(g, k, opts, rng);
}

std::vector<PlayerInput> players_from_slices(Vertex n, std::vector<std::vector<Edge>> slices) {
  if (slices.empty()) throw std::invalid_argument("players_from_slices: need >= 1 slice");
  std::vector<PlayerInput> players;
  players.reserve(slices.size());
  for (std::size_t j = 0; j < slices.size(); ++j) {
    players.push_back(PlayerInput{j, slices.size(), Graph(n, std::move(slices[j]))});
  }
  return players;
}

namespace {

/// set_union of two sorted lists without repeats is their sorted,
/// deduplicated union.
std::vector<Edge> merge_sorted(std::span<const Edge> a, std::span<const Edge> b) {
  std::vector<Edge> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

}  // namespace

std::vector<Edge> union_edges(std::span<const PlayerInput> players) {
  switch (players.size()) {
    case 0: return {};
    case 1: return {players[0].local.edges().begin(), players[0].local.edges().end()};
    case 2: return merge_sorted(players[0].local.edges(), players[1].local.edges());
    default: {
      const std::size_t half = players.size() / 2;
      return merge_sorted(union_edges(players.first(half)), union_edges(players.subspan(half)));
    }
  }
}

Graph union_graph(const std::vector<PlayerInput>& players) {
  if (players.empty()) return Graph();
  return Graph(players.front().n(), union_edges(players));
}

bool is_duplication_free(const std::vector<PlayerInput>& players) {
  std::unordered_set<std::uint64_t> seen;
  for (const auto& p : players) {
    for (const Edge& e : p.local.edges()) {
      if (!seen.insert(e.key()).second) return false;
    }
  }
  return true;
}

}  // namespace tft

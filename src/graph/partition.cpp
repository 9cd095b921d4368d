#include "graph/partition.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <stdexcept>
#include <unordered_set>

#include "util/arena.h"
#include "util/rng.h"

namespace tft {

namespace {

/// Marks the last of an edge's copies in partition_edges' deal list; the
/// low 31 bits hold the player.
constexpr std::uint32_t kLastCopy = std::uint32_t{1} << 31;

}  // namespace

std::vector<PlayerInput> partition_edges(Vertex n, std::span<const Edge> edges, std::size_t k,
                                         const PartitionOptions& opts, Rng& rng) {
  if (k == 0) throw std::invalid_argument("partition_edges: k must be >= 1");
  if (k > kLastCopy) throw std::invalid_argument("partition_edges: k must be <= 2^31");
  if (opts.dup_factor < 1.0) throw std::invalid_argument("partition_edges: dup_factor < 1");
  if (opts.heavy_fraction < 0.0 || opts.heavy_fraction >= 1.0) {
    throw std::invalid_argument("partition_edges: heavy_fraction out of range");
  }
  assert(std::adjacent_find(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
           return !(a < b);
         }) == edges.end());
  assert(std::none_of(edges.begin(), edges.end(), [](const Edge& e) { return e.u == e.v; }));

  const double extra_p =
      (k > 1) ? (opts.dup_factor - 1.0) / static_cast<double>(k - 1) : 0.0;

  // Pass 1 makes every draw, in the order the partition has always made
  // them (an edge's owner, then its extra copies), and notes which player
  // each copy goes to; an edge's last copy carries kLastCopy. Pass 2 deals
  // the edges into lists allocated once at their final sizes.
  ArenaScope scope;
  ArenaBuf<std::uint32_t> copies(scope.arena(), edges.size());
  std::vector<std::size_t> count(k, 0);
  const auto copy_to = [&](std::size_t j) {
    copies.push_back(static_cast<std::uint32_t>(j));
    ++count[j];
  };
  for (const Edge& e : edges) {
    std::size_t owner;
    if (opts.heavy_fraction > 0.0 && rng.bernoulli(opts.heavy_fraction)) {
      owner = 0;
    } else if (opts.by_vertex) {
      owner = static_cast<std::size_t>(mix_hash(0x9a1fb7u, e.u) % k);
    } else {
      owner = static_cast<std::size_t>(rng.below(k));
    }
    copy_to(owner);
    if (extra_p > 0.0) {
      for (std::size_t j = 0; j < k; ++j) {
        if (j != owner && rng.bernoulli(extra_p)) copy_to(j);
      }
    }
    copies[copies.size() - 1] |= kLastCopy;
  }

  std::vector<std::vector<Edge>> per_player(k);
  for (std::size_t j = 0; j < k; ++j) per_player[j].reserve(count[j]);
  std::size_t i = 0;
  for (const std::uint32_t c : copies) {
    per_player[c & ~kLastCopy].push_back(edges[i]);
    i += c >> 31;
  }

  std::vector<PlayerInput> players;
  players.reserve(k);
  for (std::size_t j = 0; j < k; ++j) {
    players.push_back(PlayerInput{j, k, Graph(n, std::move(per_player[j]))});
  }
  return players;
}

std::vector<PlayerInput> partition_edges(const Graph& g, std::size_t k,
                                         const PartitionOptions& opts, Rng& rng) {
  return partition_edges(g.n(), g.edges(), k, opts, rng);
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

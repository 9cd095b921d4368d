#include "core/oneway_vee.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "comm/conformance.h"
#include "comm/shared_randomness.h"
#include "util/bits.h"

namespace tft {

namespace {

/// Alice's / Bob's per-hub message: the first `budget` neighbors of `hub`
/// on the player's side, ordered by the shared permutation `tag`.
std::vector<Vertex> hub_neighbors(const PlayerInput& player, const SharedRandomness& sr,
                                  SharedTag tag, Vertex hub, std::uint64_t budget) {
  std::vector<Vertex> ns(player.local.neighbors(hub).begin(), player.local.neighbors(hub).end());
  const std::size_t take = std::min<std::size_t>(budget, ns.size());
  const SharedStream order = sr.stream(tag);
  std::partial_sort(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(take), ns.end(),
                    [&order](Vertex a, Vertex b) { return order.precedes(a, b); });
  ns.resize(take);
  return ns;
}

}  // namespace

OneWayResult oneway_vee_find_edge(std::span<const PlayerInput> players,
                                  const TripartiteLayout& layout, const OneWayOptions& opts) {
  if (players.size() != 3) throw std::invalid_argument("oneway_vee_find_edge: need 3 players");
  const auto& alice = players[0];
  const auto& bob = players[1];
  const auto& charlie = players[2];
  const std::uint64_t n = alice.n();

  return run_checked(CommModel::kOneWay, players.size(), n, [&](Channel t) {
    const SharedRandomness sr(opts.seed);
    OneWayResult result;
    const std::uint32_t hubs = std::max<std::uint32_t>(1, opts.hubs);
    const std::uint64_t per_hub = std::max<std::uint64_t>(1, opts.budget_edges_per_player / hubs);

    // One-way order: Alice speaks first (her whole message, one part per
    // hub), then Bob — who has seen Alice's message — then Charlie, who
    // only outputs. The hubs are shared random vertices of U, so naming
    // them costs nothing.
    std::vector<std::vector<Vertex>> a_sides(hubs);
    std::vector<std::vector<Vertex>> b_sides(hubs);
    for (std::uint32_t h = 0; h < hubs; ++h) {
      const auto hub =
          static_cast<Vertex>(sr.uniform_vertex(SharedTag{0x0B, h, 0}, 0, layout.side));
      a_sides[h] = hub_neighbors(alice, sr, SharedTag{0x0C, h, 0}, hub, per_hub);
      // Each transmitted neighbor costs one vertex id (the hub is shared).
      t.charge(0, Direction::kPlayerToCoordinator,
               count_bits(a_sides[h].size()) + a_sides[h].size() * vertex_bits(n), h);
    }
    for (std::uint32_t h = 0; h < hubs; ++h) {
      const auto hub =
          static_cast<Vertex>(sr.uniform_vertex(SharedTag{0x0B, h, 0}, 0, layout.side));
      b_sides[h] = hub_neighbors(bob, sr, SharedTag{0x0C, h, 0}, hub, per_hub);
      t.charge(1, Direction::kPlayerToCoordinator,
               count_bits(b_sides[h].size()) + b_sides[h].size() * vertex_bits(n), h);
    }
    result.total_bits = t.total_bits();

    for (std::uint32_t h = 0; h < hubs && !result.triangle_edge; ++h) {
      // Charlie scans his input restricted to A x B. For each v1 in A his
      // sorted neighbor list is intersected with B.
      std::vector<Vertex> b_sorted = b_sides[h];
      std::sort(b_sorted.begin(), b_sorted.end());
      for (const Vertex v1 : a_sides[h]) {
        if (!layout.in_v1(v1)) continue;
        for (const Vertex v2 : charlie.local.neighbors(v1)) {
          if (!layout.in_v2(v2)) continue;
          if (std::binary_search(b_sorted.begin(), b_sorted.end(), v2)) {
            result.triangle_edge = Edge(v1, v2);
            break;
          }
        }
        if (result.triangle_edge) break;
      }
    }
    return result;
  });
}

}  // namespace tft

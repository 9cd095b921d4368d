#include "core/building_blocks.h"

#include <algorithm>

#include "core/buckets.h"

namespace tft {

namespace {

constexpr auto kUp = Direction::kPlayerToCoordinator;
constexpr auto kDown = Direction::kCoordinatorToPlayer;

}  // namespace

bool query_edge(std::span<const PlayerInput> players, Channel t, const Edge& e) {
  bool present = false;
  for (const auto& p : players) {
    t.charge_flag(p.player_id, kUp, phase::kEdgeQuery);
    present = present || p.local.has_edge(e);
  }
  // The coordinator announces the answer to everyone (private channels).
  for (const auto& p : players) t.charge_flag(p.player_id, kDown, phase::kEdgeQuery);
  return present;
}

std::optional<Vertex> sample_uniform_btilde(std::span<const PlayerInput> players, Channel t,
                                            const SharedRandomness& sr, SharedTag tag,
                                            std::uint32_t bucket) {
  const SharedStream order = sr.stream(tag);
  std::optional<Vertex> best;
  for (const auto& p : players) {
    // Player-local scan for the first accepted vertex under the shared
    // permutation. One flag bit + optionally one vertex id upstream.
    std::optional<Vertex> local_best;
    for (Vertex v = 0; v < p.n(); ++v) {
      if (!in_btilde(p.local_degree(v), bucket, p.k)) continue;
      if (!local_best || order.precedes(v, *local_best)) local_best = v;
    }
    t.charge_flag(p.player_id, kUp, phase::kSampleVertex);
    if (local_best) {
      t.charge_vertex(p.player_id, kUp, phase::kSampleVertex);
      if (!best || order.precedes(*local_best, *best)) best = *local_best;
    }
  }
  return best;
}

std::optional<Vertex> sample_uniform_where(std::span<const PlayerInput> players, Channel t,
                                           const SharedRandomness& sr, SharedTag tag,
                                           bool (*accept)(const PlayerInput&, Vertex)) {
  const SharedStream order = sr.stream(tag);
  std::optional<Vertex> best;
  for (const auto& p : players) {
    std::optional<Vertex> local_best;
    for (Vertex v = 0; v < p.n(); ++v) {
      if (!accept(p, v)) continue;
      if (!local_best || order.precedes(v, *local_best)) local_best = v;
    }
    t.charge_flag(p.player_id, kUp, phase::kSampleVertex);
    if (local_best) {
      t.charge_vertex(p.player_id, kUp, phase::kSampleVertex);
      if (!best || order.precedes(*local_best, *best)) best = *local_best;
    }
  }
  return best;
}

std::optional<Edge> random_incident_edge(std::span<const PlayerInput> players, Channel t,
                                         const SharedRandomness& sr, SharedTag tag, Vertex v) {
  // Shared permutation over the n-1 potential endpoints; each player reports
  // its first incident edge under it. The permutation makes the choice
  // uniform over distinct edges regardless of duplication (Section 3.1).
  const SharedStream order = sr.stream(tag);
  std::optional<Vertex> best;
  for (const auto& p : players) {
    std::optional<Vertex> local_best;
    for (const Vertex w : p.local.neighbors(v)) {
      if (!local_best || order.precedes(w, *local_best)) local_best = w;
    }
    t.charge_flag(p.player_id, kUp, phase::kIncidentEdge);
    if (local_best) {
      t.charge_vertex(p.player_id, kUp, phase::kIncidentEdge);
      if (!best || order.precedes(*local_best, *best)) best = *local_best;
    }
  }
  if (!best) return std::nullopt;
  // Coordinator posts the winner to all players.
  for (const auto& p : players) t.charge_vertex(p.player_id, kDown, phase::kIncidentEdge);
  return Edge(v, *best);
}

std::optional<Edge> random_edge(std::span<const PlayerInput> players, Channel t,
                                const SharedRandomness& sr, SharedTag tag) {
  std::optional<Edge> best;
  const SharedStream order = sr.stream(tag);
  const auto edge_priority = [&order](const Edge& e) { return order.value(e.key()); };
  for (const auto& p : players) {
    std::optional<Edge> local_best;
    for (const Edge& e : p.local.edges()) {
      if (!local_best || edge_priority(e) < edge_priority(*local_best)) local_best = e;
    }
    t.charge_flag(p.player_id, kUp, phase::kRandomEdge);
    if (local_best) {
      t.charge_edges(p.player_id, kUp, 1, phase::kRandomEdge);
      if (!best || edge_priority(*local_best) < edge_priority(*best)) best = *local_best;
    }
  }
  if (!best) return std::nullopt;
  for (const auto& p : players) t.charge_edges(p.player_id, kDown, 1, phase::kRandomEdge);
  return best;
}

std::vector<Vertex> random_walk(std::span<const PlayerInput> players, Channel t,
                                const SharedRandomness& sr, SharedTag tag, Vertex start,
                                std::uint32_t steps) {
  std::vector<Vertex> path{start};
  Vertex cur = start;
  for (std::uint32_t s = 0; s < steps; ++s) {
    SharedTag step_tag = tag;
    step_tag.c = mix_hash(step_tag.c, s + 1);
    const auto e = random_incident_edge(players, t, sr, step_tag, cur);
    if (!e) break;  // dead end
    cur = (e->u == cur) ? e->v : e->u;
    path.push_back(cur);
  }
  return path;
}

std::vector<Edge> collect_induced_subgraph(std::span<const PlayerInput> players, Channel t,
                                           std::span<const Vertex> sorted_s,
                                           std::size_t cap_per_player) {
  std::vector<Edge> collected;
  const auto in_s = [&](Vertex v) {
    return std::binary_search(sorted_s.begin(), sorted_s.end(), v);
  };
  for (const auto& p : players) {
    std::size_t sent = 0;
    for (const Edge& e : p.local.edges()) {
      if (!in_s(e.u) || !in_s(e.v)) continue;
      if (cap_per_player != 0 && sent >= cap_per_player) break;
      collected.push_back(e);
      ++sent;
    }
    t.charge_count(p.player_id, kUp, sent, phase::kInducedSubgraph);
    t.charge_edges(p.player_id, kUp, sent, phase::kInducedSubgraph);
  }
  std::sort(collected.begin(), collected.end());
  collected.erase(std::unique(collected.begin(), collected.end()), collected.end());
  return collected;
}

std::vector<Vertex> collect_sampled_neighbors(std::span<const PlayerInput> players, Channel t,
                                              const SharedRandomness& sr, SharedTag tag, Vertex v,
                                              double p, std::size_t cap) {
  const SharedCoin in_sample = sr.coin(tag, p);
  std::vector<Vertex> collected;
  for (const auto& pl : players) {
    std::size_t sent = 0;
    for (const Vertex w : pl.local.neighbors(v)) {
      if (!in_sample(w)) continue;
      if (cap != 0 && sent >= cap) break;
      collected.push_back(w);
      ++sent;
    }
    t.charge_count(pl.player_id, kUp, sent, phase::kVeeSample);
    // Sending {v} x S edges: v is implicit from the round, so each edge
    // costs one vertex id.
    t.charge(pl.player_id, kUp, sent * vertex_bits(pl.n()), phase::kVeeSample);
  }
  std::sort(collected.begin(), collected.end());
  collected.erase(std::unique(collected.begin(), collected.end()), collected.end());
  return collected;
}

namespace {

/// Collect the union of all players' neighbor lists of v, charging each
/// player its posting cost.
std::vector<Vertex> post_neighbors(std::span<const PlayerInput> players, Channel t,
                                   Vertex v) {
  std::vector<Vertex> all;
  for (const auto& p : players) {
    const auto ns = p.local.neighbors(v);
    t.charge_count(p.player_id, kUp, ns.size(), phase::kBfs);
    t.charge(p.player_id, kUp, ns.size() * vertex_bits(p.n()), phase::kBfs);
    all.insert(all.end(), ns.begin(), ns.end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

}  // namespace

BfsResult distributed_bfs(std::span<const PlayerInput> players, Channel t, Vertex source,
                          std::size_t max_visits) {
  const Vertex n = players.front().n();
  BfsResult r;
  r.depth.assign(n, UINT32_MAX);
  r.parent.assign(n, source);
  r.depth[source] = 0;
  r.order.push_back(source);
  std::size_t head = 0;
  while (head < r.order.size()) {
    if (max_visits != 0 && r.order.size() >= max_visits) break;
    const Vertex v = r.order[head++];
    // The coordinator announces the examined vertex to everyone.
    for (const auto& p : players) t.charge_vertex(p.player_id, kDown, phase::kBfs);
    for (const Vertex w : post_neighbors(players, t, v)) {
      if (r.depth[w] != UINT32_MAX) continue;
      r.depth[w] = r.depth[v] + 1;
      r.parent[w] = v;
      r.order.push_back(w);
      if (max_visits != 0 && r.order.size() >= max_visits) break;
    }
  }
  return r;
}

std::optional<std::vector<Vertex>> distributed_odd_cycle(std::span<const PlayerInput> players,
                                                         Channel t, Vertex source) {
  const Vertex n = players.front().n();
  std::vector<std::uint32_t> depth(n, UINT32_MAX);
  std::vector<Vertex> parent(n, source);
  std::vector<Vertex> queue{source};
  depth[source] = 0;
  std::size_t head = 0;
  while (head < queue.size()) {
    const Vertex v = queue[head++];
    for (const auto& p : players) t.charge_vertex(p.player_id, kDown, phase::kBfs);
    for (const Vertex w : post_neighbors(players, t, v)) {
      if (depth[w] == UINT32_MAX) {
        depth[w] = depth[v] + 1;
        parent[w] = v;
        queue.push_back(w);
      } else if (depth[w] == depth[v]) {
        // Same-level edge: odd cycle through the lowest common ancestor.
        std::vector<Vertex> left{v};
        std::vector<Vertex> right{w};
        Vertex a = v;
        Vertex b = w;
        while (a != b) {
          a = parent[a];
          b = parent[b];
          left.push_back(a);
          right.push_back(b);
        }
        // left ends at the LCA; stitch: v .. lca .. w (reversed), excluding
        // the duplicated LCA on the right.
        std::vector<Vertex> cycle(left.begin(), left.end());
        for (auto it = right.rbegin() + 1; it != right.rend(); ++it) cycle.push_back(*it);
        return cycle;
      }
    }
  }
  return std::nullopt;
}

std::optional<Triangle> close_vee_round(std::span<const PlayerInput> players, Channel t,
                                        Vertex source, std::span<const Vertex> candidates) {
  // Coordinator posts the candidate set to every player.
  for (const auto& p : players) {
    t.charge(p.player_id, kDown, candidates.size() * vertex_bits(p.n()), phase::kCloseVee);
  }
  std::optional<Triangle> found;
  for (const auto& p : players) {
    t.charge_flag(p.player_id, kUp, phase::kCloseVee);
    if (found) continue;  // coordinator already satisfied; others answer "no"
    for (std::size_t i = 0; i < candidates.size() && !found; ++i) {
      const Vertex x = candidates[i];
      // Scan the smaller side: x's local neighbors intersected with the
      // candidate set.
      for (const Vertex y : p.local.neighbors(x)) {
        if (y == source) continue;
        if (!std::binary_search(candidates.begin(), candidates.end(), y)) continue;
        found = Triangle(source, x, y);
        t.charge_edges(p.player_id, kUp, 1, phase::kCloseVee);
        break;
      }
    }
  }
  return found;
}

}  // namespace tft

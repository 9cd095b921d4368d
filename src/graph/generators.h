#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/arena.h"
#include "util/rng.h"

/// \file generators.h
/// Workload generators: every graph family the paper's protocols and lower
/// bounds are exercised on.
///
/// Far-from-triangle-free families:
///   * planted_triangles     — t disjoint triangles plus triangle-free noise
///   * hub_matching          — the Section 3.4.2 adversarial instance:
///                             `hubs` high-degree vertices are the sources of
///                             Theta(n * hubs) edge-disjoint triangles
///   * gnp / tripartite_mu   — random graphs; mu is the Section 4.2.1 hard
///                             distribution (3 sides, p = gamma/sqrt(side))
/// Triangle-free families:
///   * bipartite_gnp, complete_bipartite, random_tree, star, even_cycle,
///     c5_blowup (dense triangle-free), random_matching
///
/// All generators are deterministic functions of their Rng.

namespace tft::gen {

/// Erdos-Renyi G(n, p).
[[nodiscard]] Graph gnp(Vertex n, double p, Rng& rng);

/// gnp's edge list as the generator emits it, staged in `arena`: sorted,
/// unique, no self-loops, so it can be dealt to players (partition_edges)
/// without a whole-graph CSR. The span lives until the arena is rewound past
/// it, i.e. until the caller's ArenaScope ends. gnp(n, p, rng) is the Graph
/// over this list.
[[nodiscard]] std::span<const Edge> gnp_edges(Vertex n, double p, Rng& rng, Arena& arena);

/// G(n, p) conditioned on being triangle-free is expensive; instead,
/// bipartite G(n/2, n/2, p) which is triangle-free by construction.
[[nodiscard]] Graph bipartite_gnp(Vertex n, double p, Rng& rng);

/// bipartite_gnp's edge list, staged in `arena` as gnp_edges' is.
[[nodiscard]] std::span<const Edge> bipartite_gnp_edges(Vertex n, double p, Rng& rng,
                                                        Arena& arena);

[[nodiscard]] Graph complete_bipartite(Vertex a, Vertex b);

/// Uniform random labelled tree (Prufer-free simple attachment): vertex i
/// attaches to a uniform earlier vertex. Triangle-free.
[[nodiscard]] Graph random_tree(Vertex n, Rng& rng);

[[nodiscard]] Graph star(Vertex n);

/// Cycle on n vertices; triangle-free iff n != 3 (use even n for safety).
[[nodiscard]] Graph cycle(Vertex n);

/// Perfect matching on n vertices (n even rounds down). Triangle-free,
/// average degree ~1 — the d = Theta(1) regime.
[[nodiscard]] Graph random_matching(Vertex n, Rng& rng);

/// Blow-up of C5 with n/5 vertices per class, classes joined completely
/// along the cycle. Dense and triangle-free.
[[nodiscard]] Graph c5_blowup(Vertex n);

/// t vertex-disjoint triangles on the first 3t vertices plus a triangle-free
/// noise matching on the remaining vertices. eps-far with
/// eps = t / |E| (every triangle needs a private deletion).
[[nodiscard]] Graph planted_triangles(Vertex n, std::uint32_t t, Rng& rng);

/// Section 3.4.2 adversarial family: `hubs` hub vertices of degree
/// Theta(n); every non-hub pair edge belongs to the private matching of one
/// hub, closing a triangle with it. Yields Theta(hubs * n) edge-disjoint
/// triangles while concentrating all of them on few sources — the family
/// that defeats naive uniform vertex sampling. Average degree ~ 3 * hubs.
[[nodiscard]] Graph hub_matching(Vertex n, std::uint32_t hubs, Rng& rng);

/// Barabasi-Albert preferential attachment: vertices arrive one at a time
/// and attach `edges_per_vertex` edges to existing vertices chosen
/// proportionally to their current degree. Heavy-tailed degrees, naturally
/// triangle-rich around early hubs; the second realistic workload family.
[[nodiscard]] Graph barabasi_albert(Vertex n, std::uint32_t edges_per_vertex, Rng& rng);

/// Chung-Lu power-law random graph: expected degree of vertex i is
/// proportional to (i+1)^{-1/(beta-1)}, scaled so the average degree is
/// ~ d_target. The social-network-shaped workload the paper's distributed
/// setting is motivated by (heavy-tailed degrees, triangles concentrated
/// around hubs). beta in (2, 3] is the usual regime.
[[nodiscard]] Graph chung_lu(Vertex n, double d_target, double beta, Rng& rng);

/// The hard distribution mu of Section 4.2.1: tripartite on
/// U, V1, V2 with |U| = |V1| = |V2| = side, each cross edge present iid with
/// probability gamma / sqrt(side). Total vertices 3 * side.
/// Vertex layout: U = [0, side), V1 = [side, 2*side), V2 = [2*side, 3*side).
[[nodiscard]] Graph tripartite_mu(Vertex side, double gamma, Rng& rng);

/// Lemma 4.17 embedding: relabel `core` onto the first core.n() vertices of
/// a graph with `total_n` vertices, leaving the rest isolated. Preserves
/// triangle structure exactly while lowering the average degree.
[[nodiscard]] Graph embed_with_isolated(const Graph& core, Vertex total_n);

/// Disjoint union: h2 shifted past h1's vertices.
[[nodiscard]] Graph disjoint_union(const Graph& h1, const Graph& h2);

/// Union on a common vertex set (logical OR of edge sets); both graphs must
/// have equal n.
[[nodiscard]] Graph overlay(const Graph& h1, const Graph& h2);

}  // namespace tft::gen

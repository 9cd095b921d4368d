#include "graph/triangles.h"

#include <algorithm>
#include <numeric>

#include "graph/intersect.h"
#include "util/arena.h"
#include "util/parallel.h"

namespace tft {

namespace {

using kernel::Ops;

/// Out-neighbors of each vertex under degree orientation (edge points from
/// lower to higher (degree, id) rank), as a flat CSR: one offsets array and
/// one column array, no per-vertex vectors. Rows inherit the id-sorted
/// order of the graph's own CSR rows, so no comparison sort is needed.
/// Storage lives in the caller's ArenaScope: repeated kernel calls reuse the
/// same warm blocks instead of paying malloc + page faults per call.
struct OrientedCsr {
  std::span<std::uint32_t> offsets;  // size n+1
  std::span<Vertex> cols;            // size m, id-sorted per row

  [[nodiscard]] std::span<const Vertex> row(Vertex u) const noexcept {
    return {cols.data() + offsets[u], cols.data() + offsets[u + 1]};
  }
};

/// Orientation build: one sequentially-built (degree, id) rank key per
/// vertex replaces the two offset loads behind g.degree(v) and makes the
/// predicate a single branchless u64 compare; neighbor rank loads are
/// prefetched a few iterations ahead (the rank array is bigger than L1 and
/// the accesses are random); the fill pass stores through a cmov-selected
/// pointer instead of a 50%-mispredicting branch. Count pass (parallel,
/// disjoint writes), serial prefix sum, fill pass (parallel: each worker
/// writes only its own rows' ranges). The rank scratch lives in a nested
/// scope so it is released before the caller's kernel loops run.
OrientedCsr orient(const Graph& g, Arena& arena) {
  // offsets are 32-bit: refuse inputs that would silently wrap them.
  kernel::require_csr_offsets_fit(g.num_edges());
  const std::size_t n = g.n();
  OrientedCsr csr;
  csr.offsets = arena.alloc<std::uint32_t>(n + 1);
  csr.cols = arena.alloc<Vertex>(g.num_edges());
  csr.offsets[0] = 0;  // the count pass below writes indices 1..n
  ArenaScope scope(arena);
  const std::span<std::uint64_t> rank = scope.arena().alloc<std::uint64_t>(n);
  parallel_for(n, [&](std::size_t v) {
    rank[v] = (static_cast<std::uint64_t>(g.degree(static_cast<Vertex>(v))) << 32) | v;
  });
  constexpr std::size_t kLook = 16;
  parallel_for(n, [&](std::size_t u) {
    const auto row = g.neighbors(static_cast<Vertex>(u));
    const std::uint64_t ru = rank[u];
    std::uint32_t out = 0;
    for (std::size_t j = 0; j < row.size(); ++j) {
      if (j + kLook < row.size()) __builtin_prefetch(&rank[row[j + kLook]], 0, 3);
      out += ru < rank[row[j]] ? 1u : 0u;
    }
    csr.offsets[u + 1] = out;
  });
  for (std::size_t u = 0; u < n; ++u) csr.offsets[u + 1] += csr.offsets[u];
  parallel_for(n, [&](std::size_t u) {
    const auto row = g.neighbors(static_cast<Vertex>(u));
    const std::uint64_t ru = rank[u];
    std::uint32_t w = csr.offsets[u];
    // A plain always-store would spill one slot past the row's end on a
    // trailing discard — racing the worker filling the next row. Routing
    // rejects into a dummy keeps the store unconditional and safe.
    Vertex* const base = csr.cols.data();
    Vertex reject = 0;
    for (std::size_t j = 0; j < row.size(); ++j) {
      if (j + kLook < row.size()) __builtin_prefetch(&rank[row[j + kLook]], 0, 3);
      const Vertex v = row[j];
      const bool keep = ru < rank[v];
      *(keep ? base + w : &reject) = v;
      w += keep ? 1u : 0u;
    }
  });
  return csr;
}

/// Rows at least this long take the bitmap path in count_triangles;
/// shorter rows use the merge (marking cost would dominate).
constexpr std::size_t kMarkThreshold = 8;

/// Packing pairs take the mark-shorter/probe-longer bitmap path only when
/// the shorter side is at least this long (and the longer side dwarfs it;
/// see greedy_triangle_packing); otherwise the merge wins.
constexpr std::size_t kPackBitmapThreshold = 32;

/// Request every cache line of a row ahead of use. The candidate rows the
/// kernels scan are scattered over the whole CSR (tens of MB at bench
/// scale), so the hot loops are DRAM-latency-bound; a lookahead prefetch
/// overlaps those misses with current work.
inline void prefetch_row(const Vertex* p, std::size_t count) noexcept {
  const auto* c = reinterpret_cast<const char*>(p);
  const auto* end = reinterpret_cast<const char*>(p + count);
  for (; c < end; c += 64) __builtin_prefetch(c, 0, 3);
}

/// Lookahead distance (in loop iterations) for the prefetches above.
constexpr std::size_t kPrefetchDist = 8;
constexpr std::size_t kPackPrefetchDist = 12;

inline void set_bit(std::uint32_t* bits, Vertex w) noexcept {
  bits[w >> 5] |= std::uint32_t{1} << (w & 31);
}
inline void clear_bit(std::uint32_t* bits, Vertex w) noexcept {
  bits[w >> 5] &= ~(std::uint32_t{1} << (w & 31));
}

/// Column-tiling decision for the bitmap count path. Auto mode blocks only
/// when the full bitmap would blow past L2 (~1 MiB at n = 2^23), tiling in
/// 2^22-vertex slices (512 KiB) so the hot slice stays resident;
/// kernel::set_block_bits forces a width for tests.
struct BlockPlan {
  bool blocked = false;
  std::uint64_t span = 0;  // vertices per tile
};

BlockPlan block_plan(std::size_t n) {
  const std::uint32_t bb = kernel::block_bits();
  if (bb != 0) {
    const std::uint64_t span = std::uint64_t{1} << std::min(bb, 31u);
    return span < n ? BlockPlan{true, span} : BlockPlan{};
  }
  constexpr std::size_t kAutoBitmapBits = std::size_t{8} << 20;  // 1 MiB of bitmap
  if (n > kAutoBitmapBits) return {true, std::uint64_t{1} << 22};
  return {};
}

/// Count contributions of one long-row vertex u via the blocked bitmap path:
/// for each column tile [lo, hi), mark u's out-neighbors falling in the tile
/// into a slice-local bitmap and advance a per-v cursor over each N+(v),
/// counting set bits. Cursors are monotone (tiles ascend), so the total work
/// per pair is one extra pass over N+(v); integer sums make the block
/// decomposition exact — same count as the unblocked path, always.
std::uint64_t count_blocked(const OrientedCsr& out, std::span<const Vertex> row_u,
                            std::uint32_t* bits, const BlockPlan& plan, std::size_t n,
                            const Ops& ops) {
  ArenaScope scope;
  const std::span<std::uint32_t> cursors = scope.arena().alloc<std::uint32_t>(row_u.size());
  for (std::size_t i = 0; i < row_u.size(); ++i) cursors[i] = out.offsets[row_u[i]];
  std::uint64_t total = 0;
  std::size_t mark_lo = 0;
  for (std::uint64_t lo = 0; lo < n; lo += plan.span) {
    const std::uint64_t hi = std::min<std::uint64_t>(lo + plan.span, n);
    std::size_t mark_hi = mark_lo;
    while (mark_hi < row_u.size() && row_u[mark_hi] < hi) ++mark_hi;
    const bool any = mark_hi > mark_lo;
    if (any) {
      for (std::size_t j = mark_lo; j < mark_hi; ++j) {
        set_bit(bits, static_cast<Vertex>(row_u[j] - lo));
      }
    }
    for (std::size_t i = 0; i < row_u.size(); ++i) {
      std::uint32_t c = cursors[i];
      const std::uint32_t vend = out.offsets[row_u[i] + 1];
      std::uint32_t cend = c;
      while (cend < vend && out.cols[cend] < hi) ++cend;
      if (any && cend > c) {
        total += ops.bitmap_count(bits, out.cols.data() + c, cend - c,
                                  static_cast<Vertex>(lo));
      }
      cursors[i] = cend;
    }
    if (any) {
      for (std::size_t j = mark_lo; j < mark_hi; ++j) {
        clear_bit(bits, static_cast<Vertex>(row_u[j] - lo));
      }
    }
    mark_lo = mark_hi;
  }
  return total;
}

}  // namespace

std::uint64_t count_triangles(const Graph& g) {
  ArenaScope scope;
  const OrientedCsr out = orient(g, scope.arena());
  const Ops& ops = kernel::ops();
  const BlockPlan plan = block_plan(g.n());
  // Integer sums are order-independent, and parallel_reduce folds chunk
  // partials in chunk order anyway, so the count is exact and identical at
  // any thread count — and on either primitive table.
  return parallel_reduce(
      g.n(), std::uint64_t{0},
      [&](std::size_t begin, std::size_t end) {
        std::uint64_t total = 0;
        std::uint32_t* const bits = kernel::mark_bits(plan.blocked ? plan.span : g.n());
        for (std::size_t u = begin; u < end; ++u) {
          const auto row_u = out.row(static_cast<Vertex>(u));
          if (row_u.size() < 2) continue;
          if (row_u.size() < kMarkThreshold) {
            for (const Vertex v : row_u) total += ops.merge_count(row_u, out.row(v));
            continue;
          }
          if (plan.blocked) {
            total += count_blocked(out, row_u, bits, plan, g.n(), ops);
            continue;
          }
          // Mark N+(u) once in a bit-packed row (1 bit/vertex keeps the whole
          // mark set L1-resident at n = 1e5: 12.5 KB), then probe each N+(v)
          // against it: a branch-free bit test per candidate instead of a
          // mispredicting merge step.
          for (const Vertex w : row_u) set_bit(bits, w);
          for (std::size_t j = 0; j < row_u.size(); ++j) {
            if (j + kPrefetchDist < row_u.size()) {
              const Vertex pv = row_u[j + kPrefetchDist];
              prefetch_row(out.cols.data() + out.offsets[pv],
                           out.offsets[pv + 1] - out.offsets[pv]);
            }
            const Vertex v = row_u[j];
            total += ops.bitmap_count(bits, out.cols.data() + out.offsets[v],
                                      out.offsets[v + 1] - out.offsets[v], 0);
          }
          for (const Vertex w : row_u) clear_bit(bits, w);
        }
        return total;
      },
      std::plus<>{});
}

std::optional<Triangle> find_triangle(const Graph& g) {
  // Serial: on triangle-rich inputs this exits almost immediately, and the
  // callers that need "some triangle" (referees, tests) want the cheap
  // first hit, not a parallel sweep. Never blocked: both primitive tables
  // visit common neighbors in (v-in-row-order, w-ascending) order, so the
  // reported triangle is identical on every host.
  ArenaScope scope;
  const OrientedCsr out = orient(g, scope.arena());
  const Ops& ops = kernel::ops();
  for (Vertex u = 0; u < g.n(); ++u) {
    const auto row_u = out.row(u);
    for (const Vertex v : row_u) {
      Vertex w = 0;
      if (ops.merge_find(row_u, out.row(v), nullptr, nullptr, &w)) {
        return Triangle(u, v, w);
      }
    }
  }
  return std::nullopt;
}

std::optional<Triangle> close_vee(const Graph& g, const Vee& vee) {
  if (!g.contains(vee)) return std::nullopt;
  if (!g.has_edge(vee.x, vee.y)) return std::nullopt;
  return Triangle(vee.source, vee.x, vee.y);
}

namespace {

/// Flat edge-index lookup over the graph's sorted edge list: edges_ is
/// sorted by (u, v), so the edges with first endpoint u form a contiguous
/// range and a binary search over the v's inside it resolves the index.
struct EdgeIndex {
  std::span<const Edge> edges;
  std::vector<std::uint32_t> row_start;  // first edge index with .u >= u

  explicit EdgeIndex(const Graph& g) : edges(g.edges()) {
    row_start.assign(static_cast<std::size_t>(g.n()) + 1, 0);
    for (const Edge& e : edges) ++row_start[e.u + 1];
    for (std::size_t u = 1; u < row_start.size(); ++u) row_start[u] += row_start[u - 1];
  }

  [[nodiscard]] std::size_t of(Vertex a, Vertex b) const noexcept {
    const Edge e(a, b);
    const auto* first = edges.data() + row_start[e.u];
    const auto* last = edges.data() + row_start[e.u + 1];
    const auto* it = std::lower_bound(first, last, e);
    return static_cast<std::size_t>(it - edges.data());
  }
};

/// One bit per edge index; the allocation-free replacement for the packing
/// loop's used-edge hash set.
class EdgeBitmap {
 public:
  explicit EdgeBitmap(std::size_t edges) : words_((edges + 63) / 64, 0) {}

  [[nodiscard]] bool test(std::size_t i) const noexcept {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void set(std::size_t i) noexcept { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }
  void prefetch(std::size_t i) const noexcept {
    __builtin_prefetch(&words_[i >> 6], 0, 3);
  }

 private:
  std::vector<std::uint64_t> words_;
};

/// Candidate filter for the packing search: accept the first common
/// neighbor w whose closing edges are both unused. Shared by the merge and
/// bitmap probes, which visit the same candidates in the same (ascending)
/// order — packings are identical whichever probe a pair takes.
struct PackCtx {
  const EdgeIndex* index;
  const EdgeBitmap* used;
  Vertex u, v;
  std::size_t uw = 0, vw = 0;  // out: edge indices of the accepted closure
};

bool pack_accept(void* p, Vertex w) {
  auto* c = static_cast<PackCtx*>(p);
  const std::size_t uw = c->index->of(c->u, w);
  const std::size_t vw = c->index->of(c->v, w);
  if (c->used->test(uw) || c->used->test(vw)) return false;
  c->uw = uw;
  c->vw = vw;
  return true;
}

}  // namespace

std::vector<Triangle> greedy_triangle_packing(const Graph& g, Rng& rng) {
  // 32-bit edge indices (the CSR-width guard bounds m) halve the shuffle
  // footprint; the arena reuses the same blocks across calls.
  kernel::require_csr_offsets_fit(g.num_edges());
  ArenaScope scope;
  const std::size_t m = g.num_edges();
  const std::span<std::uint32_t> order = scope.arena().alloc<std::uint32_t>(m);
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  // Fisher-Yates shuffle with our Rng (same value sequence as the original
  // size_t order array: rng.below draws are index-only).
  for (std::size_t i = m; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }

  const EdgeIndex index(g);
  EdgeBitmap used(m);
  const Ops& ops = kernel::ops();
  std::uint32_t* const bits = kernel::mark_bits(g.n());

  // The shuffled edge order makes every iteration's row fetches a fresh
  // DRAM miss; a two-level lookahead (edge struct first, then its rows)
  // keeps several misses in flight.
  std::vector<Triangle> packing;
  for (std::size_t i = 0; i < m; ++i) {
    if (i + 2 * kPackPrefetchDist < m) {
      const std::uint32_t pidx = order[i + 2 * kPackPrefetchDist];
      __builtin_prefetch(&g.edge(pidx), 0, 3);
      used.prefetch(pidx);
    }
    if (i + kPackPrefetchDist < m) {
      const Edge pe = g.edge(order[i + kPackPrefetchDist]);
      const auto pnu = g.neighbors(pe.u);
      const auto pnv = g.neighbors(pe.v);
      prefetch_row(pnu.data(), pnu.size());
      prefetch_row(pnv.data(), pnv.size());
    }
    const std::uint32_t idx = order[i];
    if (used.test(idx)) continue;
    const Edge e = g.edge(idx);
    // Search for a closing vertex w: common neighbors of u and v in id
    // order (the same candidate order as scanning N(u) and probing vs v).
    const auto nu = g.neighbors(e.u);
    const auto nv = g.neighbors(e.v);
    PackCtx ctx{&index, &used, e.u, e.v};
    Vertex w = 0;
    bool found;
    const auto shorter = nu.size() <= nv.size() ? nu : nv;
    const auto longer = nu.size() <= nv.size() ? nv : nu;
    // Mark-and-probe only pays when the longer row dwarfs the shorter one:
    // marking costs two extra passes over the shorter row, and on balanced
    // rows the 8-wide block merge beats per-candidate bitmap gathers. Both
    // paths visit commons in the same ascending order, so the packing is
    // identical either way.
    if (shorter.size() >= kPackBitmapThreshold && longer.size() >= 8 * shorter.size()) {
      for (const Vertex x : shorter) set_bit(bits, x);
      found = ops.bitmap_find(bits, longer.data(), longer.size(), pack_accept, &ctx, &w);
      for (const Vertex x : shorter) clear_bit(bits, x);
    } else {
      found = ops.merge_find(nu, nv, pack_accept, &ctx, &w);
    }
    if (found) {
      used.set(idx);
      used.set(ctx.uw);
      used.set(ctx.vw);
      packing.emplace_back(e.u, e.v, w);
    }
  }
  return packing;
}

std::uint64_t distance_lower_bound(const Graph& g, Rng& rng) {
  return greedy_triangle_packing(g, rng).size();
}

bool certify_eps_far(const Graph& g, double eps, Rng& rng) {
  const double need = eps * static_cast<double>(g.num_edges());
  return static_cast<double>(distance_lower_bound(g, rng)) >= need;
}

std::vector<Triangle> triangles_through(const Graph& g, Vertex source, std::size_t limit) {
  std::vector<Triangle> out;
  const auto ns = g.neighbors(source);
  for (std::size_t i = 0; i < ns.size() && out.size() < limit; ++i) {
    for (std::size_t j = i + 1; j < ns.size() && out.size() < limit; ++j) {
      if (g.has_edge(ns[i], ns[j])) out.emplace_back(source, ns[i], ns[j]);
    }
  }
  return out;
}

std::uint64_t disjoint_vees_at(const Graph& g, Vertex source) {
  // Greedy matching on the "closing" graph over N(source): vees from the
  // same source are disjoint iff their endpoint pairs are disjoint
  // (Section 3.2). Greedy maximal matching is a 1/2-approximation of the
  // maximum, which is enough for the full-vertex tests that consume this.
  //
  // For each unmatched x (in neighbor order), the first eligible partner is
  // the first unmatched common element of N(source) and N(x) — a sorted
  // two-pointer intersection with flat matched flags indexed by position in
  // N(source), instead of the former O(deg^2) probe loop with a hash set.
  // Stays scalar: the matched-position bookkeeping keys on *positions* in
  // N(source), which the value-keyed kernel primitives don't expose.
  const auto ns = g.neighbors(source);
  std::vector<std::uint8_t> matched(ns.size(), 0);
  std::uint64_t count = 0;
  for (std::size_t ix = 0; ix < ns.size(); ++ix) {
    if (matched[ix]) continue;
    const Vertex x = ns[ix];
    const auto nx = g.neighbors(x);
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < ns.size() && j < nx.size()) {
      if (ns[i] < nx[j]) {
        ++i;
      } else if (nx[j] < ns[i]) {
        ++j;
      } else {
        if (i != ix && !matched[i]) {
          matched[ix] = 1;
          matched[i] = 1;
          ++count;
          break;
        }
        ++i;
        ++j;
      }
    }
  }
  return count;
}

}  // namespace tft

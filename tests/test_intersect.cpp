#include "graph/intersect.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <vector>

#include "graph/generators.h"
#include "graph/triangles.h"
#include "proptest.h"
#include "util/arena.h"
#include "util/cpu.h"
#include "util/mem.h"
#include "util/rng.h"

namespace tft {
namespace {

using kernel::Variant;

/// Restore the process-global kernel knobs on scope exit so a test that
/// forces a variant/blocking/retain setting can't leak into its neighbors.
struct KernelKnobGuard {
  Variant variant = kernel::variant();
  std::uint32_t block_bits = kernel::block_bits();
  std::size_t retain = kernel::scratch_retain_bytes();
  ~KernelKnobGuard() {
    kernel::set_variant(variant);
    kernel::set_block_bits(block_bits);
    kernel::set_scratch_retain_bytes(retain);
  }
};

std::vector<Variant> all_variants() {
  return {Variant::kScalar, Variant::kAvx2, Variant::kBitset, Variant::kAuto};
}

// --- Arena ----------------------------------------------------------------

TEST(Arena, AllocatesAlignedAndDistinct) {
  Arena arena;
  auto a = arena.alloc<std::uint64_t>(100);
  auto b = arena.alloc<std::uint8_t>(3);
  auto c = arena.alloc<std::uint64_t>(5);
  ASSERT_EQ(a.size(), 100u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data()) % alignof(std::uint64_t), 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c.data()) % alignof(std::uint64_t), 0u);
  a[99] = 1;
  b[2] = 2;
  c[4] = 3;
  EXPECT_EQ(a[99], 1u);
  EXPECT_EQ(b[2], 2u);
  EXPECT_EQ(c[4], 3u);
}

TEST(Arena, RewindReusesMemoryWithoutGrowth) {
  Arena arena;
  (void)arena.alloc<std::uint8_t>(1000);
  const auto mark = arena.mark();
  const void* first = arena.alloc<std::uint8_t>(5000).data();
  const std::size_t cap = arena.capacity_bytes();
  for (int i = 0; i < 100; ++i) {
    arena.rewind(mark);
    const void* again = arena.alloc<std::uint8_t>(5000).data();
    EXPECT_EQ(again, first);
  }
  EXPECT_EQ(arena.capacity_bytes(), cap);
}

TEST(Arena, GrowsAcrossBlocksAndServesLargeRequests) {
  Arena arena;
  // Far beyond the first 64 KiB block; spans several doubling blocks.
  for (int i = 0; i < 64; ++i) {
    auto s = arena.alloc<std::uint32_t>(16 << 10);
    s[0] = static_cast<std::uint32_t>(i);
    s[s.size() - 1] = static_cast<std::uint32_t>(i);
  }
  // A single request larger than any existing block.
  auto big = arena.alloc<std::uint8_t>(3u << 20);
  big[0] = 1;
  big[big.size() - 1] = 2;
  EXPECT_GE(arena.capacity_bytes(), 3u << 20);
}

/// After a rewind every block past the active one is free, and a request
/// must take the first of them that fits, not just try the next one. One
/// scope leaves 64, 128 and 256 KiB blocks behind; each later scope asks
/// for 200 KiB, which only the 256 KiB block holds.
TEST(Arena, AnyLaterFreeBlockServesARequestAfterRewind) {
  Arena arena;
  {
    ArenaScope scope(arena);
    (void)arena.alloc<std::byte>(60 << 10);
    (void)arena.alloc<std::byte>(100 << 10);
    (void)arena.alloc<std::byte>(200 << 10);
  }
  const std::size_t grown = arena.capacity_bytes();
  ASSERT_EQ(grown, std::size_t{448} << 10);
  for (int i = 0; i < 20; ++i) {
    ArenaScope scope(arena);
    auto s = arena.alloc<std::byte>(200 << 10);
    s[0] = std::byte{1};
    s[s.size() - 1] = std::byte{2};
  }
  EXPECT_EQ(arena.capacity_bytes(), grown);
}

TEST(Arena, ChargesTheProcessArenaCounters) {
  const std::uint64_t before = arena_bytes();
  {
    Arena arena;
    (void)arena.alloc<std::uint8_t>(1 << 20);
    EXPECT_GE(arena_bytes(), before + (1u << 20));
  }
  EXPECT_EQ(arena_bytes(), before);  // destructor released every block
}

TEST(Arena, TrimDropsExcessCapacity) {
  Arena arena;
  (void)arena.alloc<std::uint8_t>(8 << 20);
  const std::size_t grown = arena.capacity_bytes();
  ASSERT_GE(grown, 8u << 20);
  arena.trim(Arena::kMinBlockBytes);
  EXPECT_LE(arena.capacity_bytes(), Arena::kMinBlockBytes);
  // Still usable after the trim.
  auto s = arena.alloc<std::uint32_t>(128);
  s[127] = 7;
  EXPECT_EQ(s[127], 7u);
}

TEST(Arena, ScopeRewindsOnExit) {
  Arena arena;
  (void)arena.alloc<std::uint8_t>(64);
  const std::size_t used = arena.used_bytes();
  {
    ArenaScope outer(arena);
    (void)arena.alloc<std::uint8_t>(1000);
    {
      ArenaScope inner(arena);
      (void)arena.alloc<std::uint8_t>(1000);
    }
    EXPECT_GT(arena.used_bytes(), used);
  }
  EXPECT_EQ(arena.used_bytes(), used);
}

TEST(ArenaBuf, GrowsClearsAndTakesExact) {
  Arena arena;
  ArenaScope scope(arena);
  ArenaBuf<std::uint32_t> buf(arena, 4);
  for (std::uint32_t i = 0; i < 1000; ++i) buf.push_back(i * 3);
  ASSERT_EQ(buf.size(), 1000u);
  const std::vector<std::uint32_t> out = buf.take();
  ASSERT_EQ(out.size(), 1000u);
  EXPECT_EQ(out.capacity(), 1000u);  // exact-size: no doubling slack escapes
  for (std::uint32_t i = 0; i < 1000; ++i) EXPECT_EQ(out[i], i * 3);
  buf.clear();
  EXPECT_TRUE(buf.empty());
  buf.push_back(42);
  EXPECT_EQ(buf[0], 42u);
}

// --- CPU probe ------------------------------------------------------------

TEST(Cpu, FeaturesAreStableAndConsistent) {
  const cpu::Features& a = cpu::features();
  const cpu::Features& b = cpu::features();
  EXPECT_EQ(&a, &b);  // probed once
  EXPECT_EQ(cpu::have_avx2(), a.avx2);
  EXPECT_EQ(kernel::avx2_available(), cpu::have_avx2());
}

TEST(KernelDispatch, VariantNamesRoundTrip) {
  for (const Variant v : all_variants()) {
    const auto parsed = kernel::variant_from_name(kernel::to_string(v));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, v);
  }
  EXPECT_FALSE(kernel::variant_from_name("sse9").has_value());
}

TEST(KernelDispatch, ResolutionNeverYieldsAutoAndRespectsHost) {
  KernelKnobGuard guard;
  for (const Variant v : all_variants()) {
    kernel::set_variant(v);
    const Variant r = kernel::resolved_variant();
    EXPECT_NE(r, Variant::kAuto);
    EXPECT_EQ(kernel::ops().strategy, r);
    if (!kernel::avx2_available()) {
      EXPECT_NE(r, Variant::kAvx2);
    }
  }
  kernel::set_variant(Variant::kScalar);
  EXPECT_EQ(kernel::resolved_variant(), Variant::kScalar);
}

// --- Primitive-level identity against references --------------------------

std::vector<Vertex> sorted_unique(Rng& rng, std::size_t len, Vertex universe) {
  std::set<Vertex> s;
  while (s.size() < len && s.size() < universe) {
    s.insert(static_cast<Vertex>(rng.below(universe)));
  }
  return {s.begin(), s.end()};
}

std::vector<Vertex> reference_commons(const std::vector<Vertex>& a, const std::vector<Vertex>& b) {
  std::vector<Vertex> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

TEST(IntersectPrimitives, AllVariantsMatchReferenceOnRandomSets) {
  Rng rng(20260809);
  for (int trial = 0; trial < 200; ++trial) {
    const Vertex universe = 16 + static_cast<Vertex>(rng.below(4000));
    // Lengths straddle the 8-lane block width and the gallop ratio.
    const std::size_t la = rng.below(80);
    const std::size_t lb = rng.below(3) == 0 ? rng.below(2000) : rng.below(90);
    const auto a = sorted_unique(rng, la, universe);
    const auto b = sorted_unique(rng, lb, universe);
    const auto expect = reference_commons(a, b);

    // Byte marks / bitmap of b's elements, probed with a's candidates.
    std::uint8_t* marks = kernel::mark_bytes(universe);
    std::uint32_t* bits = kernel::mark_bits(universe);
    for (const Vertex x : b) marks[x] = 1;
    for (const Vertex x : b) bits[x >> 5] |= 1u << (x & 31);

    for (const Variant v : all_variants()) {
      const kernel::Ops& ops = kernel::ops_for(v);
      EXPECT_EQ(ops.merge_count(a, b), expect.size());
      EXPECT_EQ(ops.merge_count(b, a), expect.size());
      EXPECT_EQ(ops.marks_count(marks, a.data(), a.size()), expect.size());
      EXPECT_EQ(ops.bitmap_count(bits, a.data(), a.size(), 0), expect.size());

      // find: visiting order must be the ascending commons, exactly.
      struct Collect {
        std::vector<Vertex> seen;
      } coll;
      const kernel::Accept never = [](void* ctx, Vertex w) {
        static_cast<Collect*>(ctx)->seen.push_back(w);
        return false;
      };
      Vertex w = 0;
      EXPECT_FALSE(ops.merge_find(a, b, never, &coll, &w));
      EXPECT_EQ(coll.seen, expect);
      coll.seen.clear();
      EXPECT_FALSE(ops.bitmap_find(bits, a.data(), a.size(), never, &coll, &w));
      EXPECT_EQ(coll.seen, expect);
      // First-accept returns the smallest common.
      if (!expect.empty()) {
        ASSERT_TRUE(ops.merge_find(a, b, nullptr, nullptr, &w));
        EXPECT_EQ(w, expect.front());
        ASSERT_TRUE(ops.bitmap_find(bits, a.data(), a.size(), nullptr, nullptr, &w));
        EXPECT_EQ(w, expect.front());
      }
    }

    for (const Vertex x : b) marks[x] = 0;
    for (const Vertex x : b) bits[x >> 5] &= ~(1u << (x & 31));
  }
}

TEST(IntersectPrimitives, BitmapCountHonorsBase) {
  Rng rng(7);
  const Vertex base = 1000;
  const Vertex span = 512;
  std::uint32_t* bits = kernel::mark_bits(span);
  std::vector<Vertex> candidates;
  std::vector<Vertex> marked;
  for (Vertex w = base; w < base + span; w += 3) {
    candidates.push_back(w);
    if (rng.below(2) == 0) {
      marked.push_back(w);
      bits[(w - base) >> 5] |= 1u << ((w - base) & 31);
    }
  }
  for (const Variant v : all_variants()) {
    EXPECT_EQ(kernel::ops_for(v).bitmap_count(bits, candidates.data(), candidates.size(), base),
              marked.size());
  }
  for (const Vertex w : marked) bits[(w - base) >> 5] &= ~(1u << ((w - base) & 31));
}

TEST(IntersectPrimitives, EmptyAndDisjointInputs) {
  const std::vector<Vertex> none;
  const std::vector<Vertex> some = {1, 5, 9, 12, 40, 41, 42, 43, 44, 45};
  const std::vector<Vertex> other = {0, 2, 6, 10, 13, 50, 51, 52, 53, 54};
  for (const Variant v : all_variants()) {
    const kernel::Ops& ops = kernel::ops_for(v);
    Vertex w = 0;
    EXPECT_EQ(ops.merge_count(none, none), 0u);
    EXPECT_EQ(ops.merge_count(none, some), 0u);
    EXPECT_EQ(ops.merge_count(some, other), 0u);
    EXPECT_FALSE(ops.merge_find(none, some, nullptr, nullptr, &w));
    EXPECT_FALSE(ops.merge_find(some, other, nullptr, nullptr, &w));
    EXPECT_EQ(ops.marks_count(kernel::mark_bytes(64), some.data(), some.size()), 0u);
    EXPECT_EQ(ops.bitmap_count(kernel::mark_bits(64), some.data(), some.size(), 0), 0u);
  }
}

// --- Degenerate graphs through every dispatch variant ---------------------

std::uint64_t brute_count(const Graph& g) {
  std::uint64_t c = 0;
  for (const Edge& e : g.edges()) {
    for (Vertex w = 0; w < g.n(); ++w) {
      if (w != e.u && w != e.v && g.has_edge(e.u, w) && g.has_edge(e.v, w)) ++c;
    }
  }
  return c / 3;
}

TEST(KernelDegenerate, EveryVariantHandlesEdgeCaseGraphs) {
  KernelKnobGuard guard;
  const std::vector<Graph> graphs = {
      Graph(0, {}),                     // n = 0
      Graph(1, {}),                     // single isolated vertex
      Graph(64, {}),                    // all-isolated
      gen::star(40),                    // one hub, no triangles
      gen::cycle(5),                    // odd cycle, no triangles
      gen::complete_bipartite(6, 7),    // dense, triangle-free
      [] {                              // complete K_9: C(9,3) = 84 triangles
        std::vector<Edge> edges;
        for (Vertex u = 0; u < 9; ++u) {
          for (Vertex v = u + 1; v < 9; ++v) edges.emplace_back(u, v);
        }
        return Graph(9, std::move(edges));
      }(),
      [] {  // two disjoint triangles plus isolated tail
        std::vector<Edge> e = {{0, 1}, {0, 2}, {1, 2}, {3, 4}, {3, 5}, {4, 5}};
        return Graph(16, std::move(e));
      }(),
  };
  for (const Graph& g : graphs) {
    const std::uint64_t expect = brute_count(g);
    for (const Variant v : all_variants()) {
      kernel::set_variant(v);
      EXPECT_EQ(count_triangles(g), expect) << "variant=" << kernel::to_string(v);
      const auto t = find_triangle(g);
      EXPECT_EQ(t.has_value(), expect > 0) << "variant=" << kernel::to_string(v);
      if (t) {
        EXPECT_TRUE(g.contains(*t));
      }
      Rng rng(99);
      const auto packing = greedy_triangle_packing(g, rng);
      if (expect == 0) {
        EXPECT_TRUE(packing.empty());
      }
      for (const Triangle& tri : packing) EXPECT_TRUE(g.contains(tri));
    }
  }
}

// --- Cross-variant identity over the generator zoo ------------------------

TEST(KernelVariantIdentity, CountFindPackingAgreeAcrossVariantsProperty) {
  KernelKnobGuard guard;
  const auto result = proptest::check(0x51D0, 40, [](const proptest::GraphCase& c) {
    const Graph g = c.graph();
    kernel::set_variant(Variant::kScalar);
    const std::uint64_t count0 = count_triangles(g);
    const auto find0 = find_triangle(g);
    Rng r0(c.seed);
    const auto pack0 = greedy_triangle_packing(g, r0);
    for (const Variant v : {Variant::kAvx2, Variant::kBitset, Variant::kAuto}) {
      kernel::set_variant(v);
      if (count_triangles(g) != count0) {
        return proptest::PropOutcome{false,
                                     std::string("count diverged on ") + kernel::to_string(v)};
      }
      if (find_triangle(g) != find0) {
        return proptest::PropOutcome{false,
                                     std::string("find diverged on ") + kernel::to_string(v)};
      }
      Rng rv(c.seed);
      if (greedy_triangle_packing(g, rv) != pack0) {
        return proptest::PropOutcome{false,
                                     std::string("packing diverged on ") + kernel::to_string(v)};
      }
    }
    kernel::set_variant(Variant::kScalar);
    return proptest::PropOutcome{};
  });
  EXPECT_TRUE(result.ok) << result.to_string();
}

TEST(KernelVariantIdentity, BlockedEqualsUnblockedProperty) {
  KernelKnobGuard guard;
  kernel::set_variant(Variant::kBitset);
  const auto result = proptest::check(0xB10C, 30, [](const proptest::GraphCase& c) {
    const Graph g = c.graph();
    kernel::set_block_bits(0);
    const std::uint64_t plain = count_triangles(g);
    // Tiny forced tiles (8 and 64 vertices) exercise many-block traversal
    // and the empty-tile cursor advance on small graphs.
    for (const std::uint32_t bits : {3u, 6u}) {
      kernel::set_block_bits(bits);
      if (count_triangles(g) != plain) {
        kernel::set_block_bits(0);
        return proptest::PropOutcome{
            false, "blocked count diverged at block_bits=" + std::to_string(bits)};
      }
    }
    kernel::set_block_bits(0);
    return proptest::PropOutcome{};
  });
  EXPECT_TRUE(result.ok) << result.to_string();
}

// --- Scratch cap-and-reallocate -------------------------------------------

TEST(KernelScratch, OneOffLargeCallDoesNotPinMemory) {
  KernelKnobGuard guard;
  kernel::release_thread_scratch();
  kernel::set_scratch_retain_bytes(1 << 20);  // 1 MiB cap for the test
  (void)kernel::mark_bytes(16u << 20);        // one-off "huge n" call
  EXPECT_GE(kernel::thread_scratch_bytes(), 16u << 20);
  // The next small request must shrink the buffer back to its own size.
  std::uint8_t* marks = kernel::mark_bytes(1000);
  EXPECT_LT(kernel::thread_scratch_bytes(), 1u << 20);
  for (std::size_t i = 0; i < 1000; ++i) EXPECT_EQ(marks[i], 0) << i;  // still zeroed
  kernel::release_thread_scratch();
  EXPECT_EQ(kernel::thread_scratch_bytes(), 0u);
}

TEST(KernelScratch, RetainedCapacityIsReusedBelowTheCap) {
  KernelKnobGuard guard;
  kernel::release_thread_scratch();
  kernel::set_scratch_retain_bytes(64 << 20);
  (void)kernel::mark_bytes(1 << 20);
  const std::size_t held = kernel::thread_scratch_bytes();
  (void)kernel::mark_bytes(1000);  // far smaller, but under the retain cap
  EXPECT_EQ(kernel::thread_scratch_bytes(), held);
  kernel::release_thread_scratch();
}

TEST(KernelScratch, BitmapScratchShrinksLikeBytes) {
  KernelKnobGuard guard;
  kernel::release_thread_scratch();
  kernel::set_scratch_retain_bytes(1 << 16);
  (void)kernel::mark_bits(64u << 20);  // 8 MiB of words
  EXPECT_GE(kernel::thread_scratch_bytes(), 8u << 20);
  std::uint32_t* bits = kernel::mark_bits(1 << 10);
  EXPECT_LT(kernel::thread_scratch_bytes(), 1u << 16);
  for (std::size_t i = 0; i < (1u << 10) / 32; ++i) EXPECT_EQ(bits[i], 0u);
  kernel::release_thread_scratch();
}

// --- CSR offset-width guard -----------------------------------------------

TEST(KernelGuards, RejectsEdgeCountsThatWouldWrapCsrOffsets) {
  EXPECT_NO_THROW(kernel::require_csr_offsets_fit(0));
  EXPECT_NO_THROW(kernel::require_csr_offsets_fit(UINT32_MAX - 1));
  EXPECT_THROW(kernel::require_csr_offsets_fit(UINT32_MAX), std::length_error);
  EXPECT_THROW(kernel::require_csr_offsets_fit(std::size_t{UINT32_MAX} + 17), std::length_error);
}

}  // namespace
}  // namespace tft

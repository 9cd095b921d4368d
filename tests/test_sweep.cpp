#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/oneway_vee.h"
#include "graph/instance_cache.h"
#include "graph/partition.h"
#include "lower_bounds/budget_search.h"
#include "lower_bounds/mu_distribution.h"
#include "util/parallel.h"
#include "util/rng.h"

// Determinism contracts of the sweep layer (instance cache, adaptive budget
// search). Every optimization must be invisible: byte-identical curves and
// min-budgets with each switch on or off, at any thread count. See
// EXPERIMENTS.md "Sweep methodology".

namespace tft {
namespace {

/// RAII guard: restore the global sweep switches and thread count however a
/// test leaves them.
struct SweepSwitchGuard {
  ~SweepSwitchGuard() {
    set_instance_caching(true);
    set_default_threads(0);
  }
};

/// A cached mu instance + canonical 3-player split, built the way the bench
/// sweeps do it: all randomness derived from the key.
struct CachedMu {
  MuInstance mu;
  std::vector<PlayerInput> players;
};
[[nodiscard]] std::size_t approx_bytes(const CachedMu& c) noexcept {
  return sizeof(c) + approx_bytes(c.mu.graph) + approx_bytes(c.players);
}

constexpr std::uint64_t kGenTestMu = 0x7E57;

std::shared_ptr<const CachedMu> cached_mu(InstanceCache& cache, Vertex side,
                                          std::uint64_t seed, std::uint64_t idx) {
  const InstanceKey key{kGenTestMu, side, InstanceKey::pack_param(0.9), 3, seed, idx};
  return cache.get_or_build<CachedMu>(key, [&] {
    Rng rng = derive_rng(seed, idx);
    CachedMu c;
    c.mu = sample_mu(side, 0.9, rng);
    c.players = partition_mu_three(c.mu);
    return c;
  });
}

/// The one-way vee protocol as a budget trial over cached instances —
/// the exact shape of the bench_oneway_lb closure.
BudgetTrial protocol_trial(InstanceCache& cache, Vertex side, std::uint64_t seed,
                           std::uint64_t instances) {
  return [&cache, side, seed, instances](std::uint64_t budget, std::uint64_t t) {
    const auto inst = cached_mu(cache, side, seed, t % instances);
    OneWayOptions o;
    o.seed = seed * 1000 + t;
    o.budget_edges_per_player = budget;
    o.hubs = 4;
    const auto r = oneway_vee_find_edge(inst->players, inst->mu.layout, o);
    return r.triangle_edge.has_value();
  };
}

/// A deterministic per-trial monotone verdict: pass iff budget >= a
/// hash-derived threshold. Cheap enough to run full grids in tests.
BudgetTrial synthetic_trial() {
  return [](std::uint64_t budget, std::uint64_t t) {
    const std::uint64_t threshold = 64 + (mix_hash(t, 0xC0FFEE) % 1024);
    return budget >= threshold;
  };
}

void expect_same_decisions(const BudgetSearchResult& a, const BudgetSearchResult& b) {
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.min_budget, b.min_budget);
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].budget, b.curve[i].budget) << "probe " << i;
  }
}

void expect_byte_identical(const BudgetSearchResult& a, const BudgetSearchResult& b) {
  expect_same_decisions(a, b);
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].success.successes, b.curve[i].success.successes) << "probe " << i;
    EXPECT_EQ(a.curve[i].success.trials, b.curve[i].success.trials) << "probe " << i;
  }
}

// ---------- instance cache ----------

TEST(SweepCache, HitRebuildAndOffAreIndistinguishable) {
  SweepSwitchGuard guard;
  InstanceCache cache(64u << 20);

  set_instance_caching(true);
  const auto first = cached_mu(cache, 128, 7, 3);
  const auto hit = cached_mu(cache, 128, 7, 3);
  EXPECT_EQ(first.get(), hit.get());  // second fetch is the same object
  EXPECT_GE(cache.stats().hits, 1u);

  cache.clear();
  const auto rebuilt = cached_mu(cache, 128, 7, 3);
  EXPECT_NE(first.get(), rebuilt.get());

  set_instance_caching(false);
  const auto uncached = cached_mu(cache, 128, 7, 3);

  // Purity: hit, rebuild-after-clear and cache-off builds are equal graphs.
  for (const auto* other : {rebuilt.get(), uncached.get()}) {
    ASSERT_EQ(first->mu.graph.num_edges(), other->mu.graph.num_edges());
    EXPECT_TRUE(std::ranges::equal(first->mu.graph.edges(), other->mu.graph.edges()));
    ASSERT_EQ(first->players.size(), other->players.size());
    for (std::size_t j = 0; j < first->players.size(); ++j) {
      EXPECT_TRUE(std::ranges::equal(first->players[j].local.edges(),
                                     other->players[j].local.edges()));
    }
  }
  // Cleared entries stay alive through the caller's shared_ptr.
  EXPECT_GT(first->mu.graph.num_edges(), 0u);
}

TEST(SweepCache, EvictionUnderTinyBudgetStaysCorrect) {
  SweepSwitchGuard guard;
  set_instance_caching(true);
  // Budget of a few KB: each 64-side mu instance is bigger, so every insert
  // evicts the previous entry (the cache never evicts its only entry).
  InstanceCache cache(4u << 10);
  std::vector<std::shared_ptr<const CachedMu>> live;
  for (std::uint64_t idx = 0; idx < 8; ++idx) {
    live.push_back(cached_mu(cache, 64, 9, idx));
  }
  const auto stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.entries, 2u);

  // Evicted values stay valid via the caller's reference, and a re-fetch
  // (necessarily a rebuild) reproduces them exactly.
  for (std::uint64_t idx = 0; idx < 8; ++idx) {
    const auto again = cached_mu(cache, 64, 9, idx);
    EXPECT_TRUE(std::ranges::equal(live[idx]->mu.graph.edges(), again->mu.graph.edges()));
  }
}

TEST(SweepCache, BudgetCurveByteIdenticalWithCacheOnOrOff) {
  SweepSwitchGuard guard;
  InstanceCache cache(64u << 20);
  BudgetSearchOptions opts = BudgetSearchOptions::legacy();
  opts.target_success = 0.7;
  opts.trials_per_budget = 10;
  opts.budget_lo = 2;
  opts.budget_hi = 1u << 16;
  opts.refine_steps = 3;

  set_instance_caching(false);
  const auto off = find_min_budget(protocol_trial(cache, 128, 5, 4), opts);
  set_instance_caching(true);
  cache.clear();
  cache.reset_stats();
  const auto on = find_min_budget(protocol_trial(cache, 128, 5, 4), opts);

  expect_byte_identical(off, on);
  EXPECT_GT(cache.stats().hits, 0u);  // the sweep actually exercised the cache
}

// ---------- adaptive budget search ----------

TEST(SweepSearch, MemoizationIsByteIdentical) {
  // The search's own probe sequence (doubling, then strict-midpoint
  // bisection) never repeats a budget; duplicates come from a requested
  // curve grid colliding with the probes.
  BudgetSearchOptions legacy = BudgetSearchOptions::legacy();
  legacy.target_success = 0.9;
  legacy.trials_per_budget = 24;
  legacy.budget_lo = 4;
  legacy.budget_hi = 1u << 20;
  legacy.refine_steps = 6;
  for (std::uint64_t b = 4; b <= (1u << 12); b *= 2) legacy.curve_budgets.push_back(b);

  BudgetSearchOptions memo = legacy;
  memo.memoize_budgets = true;

  const auto a = find_min_budget(synthetic_trial(), legacy);
  const auto b = find_min_budget(synthetic_trial(), memo);
  expect_byte_identical(a, b);
  EXPECT_GT(b.memo_hits, 0u);  // grid points collide with doubling probes
  EXPECT_LT(b.trials_run, a.trials_run);
}

TEST(SweepSearch, MonotoneReuseNeverChangesMinBudget) {
  // Seeded grid: several thresholds exercised via different trial counts and
  // targets; memo+monotone (early stopping off) must be byte-identical to
  // the legacy search on every cell.
  for (const double target : {0.5, 0.8, 1.0}) {
    for (const std::size_t trials : {8u, 25u}) {
      BudgetSearchOptions legacy = BudgetSearchOptions::legacy();
      legacy.target_success = target;
      legacy.trials_per_budget = trials;
      legacy.budget_lo = 1;
      legacy.budget_hi = 1u << 20;
      legacy.refine_steps = 5;

      BudgetSearchOptions adaptive = legacy;
      adaptive.memoize_budgets = true;
      adaptive.monotone_reuse = true;

      const auto a = find_min_budget(synthetic_trial(), legacy);
      const auto b = find_min_budget(synthetic_trial(), adaptive);
      expect_byte_identical(a, b);
      EXPECT_GT(b.trials_inferred, 0u);
      EXPECT_LT(b.trials_run, a.trials_run);
    }
  }
}

TEST(SweepSearch, MonotoneReuseIdenticalOnProtocolSweep) {
  SweepSwitchGuard guard;
  InstanceCache cache(64u << 20);
  set_instance_caching(true);
  BudgetSearchOptions legacy = BudgetSearchOptions::legacy();
  legacy.target_success = 0.7;
  legacy.trials_per_budget = 10;
  legacy.budget_lo = 2;
  legacy.budget_hi = 1u << 16;
  legacy.refine_steps = 3;

  BudgetSearchOptions adaptive = legacy;
  adaptive.memoize_budgets = true;
  adaptive.monotone_reuse = true;

  const auto a = find_min_budget(protocol_trial(cache, 128, 21, 4), legacy);
  const auto b = find_min_budget(protocol_trial(cache, 128, 21, 4), adaptive);
  expect_byte_identical(a, b);
}

TEST(SweepSearch, EarlyStopPreservesDecisionsAndProbes) {
  BudgetSearchOptions legacy = BudgetSearchOptions::legacy();
  legacy.target_success = 0.9;
  legacy.trials_per_budget = 30;
  legacy.budget_lo = 4;
  legacy.budget_hi = 1u << 20;
  legacy.refine_steps = 6;
  for (std::uint64_t b = 2; b <= (1u << 12); b *= 2) legacy.curve_budgets.push_back(b);

  BudgetSearchOptions all_on;  // defaults: every switch on
  all_on.target_success = legacy.target_success;
  all_on.trials_per_budget = legacy.trials_per_budget;
  all_on.budget_lo = legacy.budget_lo;
  all_on.budget_hi = legacy.budget_hi;
  all_on.refine_steps = legacy.refine_steps;
  all_on.curve_budgets = legacy.curve_budgets;

  const auto a = find_min_budget(synthetic_trial(), legacy);
  const auto b = find_min_budget(synthetic_trial(), all_on);
  // Early stopping may leave search-probe counts partial, but the probe
  // sequence, per-budget decisions, found and min_budget are identical.
  expect_same_decisions(a, b);
  EXPECT_GT(b.trials_skipped, 0u);
  EXPECT_LT(b.trials_run, a.trials_run);
  // Each partial point still reports exactly the trials it resolved.
  for (const auto& p : b.curve) {
    EXPECT_LE(p.success.successes, p.success.trials);
    EXPECT_LE(p.success.trials, legacy.trials_per_budget);
  }
  // Requested curve-grid points are never early-stopped: the grid tail is
  // byte-identical to the legacy run, full trial counts included.
  ASSERT_GE(b.curve.size(), legacy.curve_budgets.size());
  const std::size_t a0 = a.curve.size() - legacy.curve_budgets.size();
  const std::size_t b0 = b.curve.size() - legacy.curve_budgets.size();
  for (std::size_t i = 0; i < legacy.curve_budgets.size(); ++i) {
    EXPECT_EQ(a.curve[a0 + i].budget, b.curve[b0 + i].budget);
    EXPECT_EQ(a.curve[a0 + i].success.successes, b.curve[b0 + i].success.successes);
    EXPECT_EQ(a.curve[a0 + i].success.trials, b.curve[b0 + i].success.trials);
    EXPECT_EQ(b.curve[b0 + i].success.trials, legacy.trials_per_budget);
  }
}

TEST(SweepSearch, NeverPassingAndAlwaysPassingEdges) {
  for (const bool adaptive : {false, true}) {
    BudgetSearchOptions opts =
        adaptive ? BudgetSearchOptions{} : BudgetSearchOptions::legacy();
    opts.trials_per_budget = 6;
    opts.budget_lo = 1;
    opts.budget_hi = 1u << 10;

    const auto never = find_min_budget(
        [](std::uint64_t, std::uint64_t) { return false; }, opts);
    EXPECT_FALSE(never.found) << "adaptive=" << adaptive;
    EXPECT_FALSE(never.curve.empty());

    const auto always = find_min_budget(
        [](std::uint64_t, std::uint64_t) { return true; }, opts);
    ASSERT_TRUE(always.found) << "adaptive=" << adaptive;
    EXPECT_EQ(always.min_budget, opts.budget_lo);
  }
}

TEST(SweepSearch, ThreadCountDoesNotChangeResults) {
  SweepSwitchGuard guard;
  BudgetSearchOptions opts;  // all adaptive switches on
  opts.target_success = 0.9;
  opts.trials_per_budget = 24;
  opts.budget_lo = 4;
  opts.budget_hi = 1u << 20;
  opts.refine_steps = 6;

  set_default_threads(1);
  const auto serial = find_min_budget(synthetic_trial(), opts);
  set_default_threads(4);
  const auto parallel = find_min_budget(synthetic_trial(), opts);

  // Early-stop chunk boundaries depend only on counts, never on the thread
  // count, so even the partial curve counts match bit-for-bit.
  expect_byte_identical(serial, parallel);
  EXPECT_EQ(serial.trials_run, parallel.trials_run);
  EXPECT_EQ(serial.trials_skipped, parallel.trials_skipped);
}

// ---------- per-chunk cache keys ----------

/// Tiny cacheable payload for key-identity checks.
struct ChunkTag {
  std::uint64_t tag = 0;
};
[[nodiscard]] std::size_t approx_bytes(const ChunkTag& t) noexcept { return sizeof(t); }

// The purity contract extended to chunks: keys that agree on every field but
// chunk_id name different cached payloads, and the legacy 6-field aggregate
// init (chunk_id defaulted to 0) stays interchangeable with an explicit 0.
TEST(SweepCache, ChunkIdIsPartOfTheKey) {
  SweepSwitchGuard guard;
  set_instance_caching(true);
  InstanceCache cache(64u << 20);

  constexpr std::uint64_t kGen = 0xC4A9;
  const auto build_tagged = [&](std::uint64_t chunk_id) {
    InstanceKey key{kGen, 100, InstanceKey::pack_param(0.5), 8, 7, 0};
    key.chunk_id = chunk_id;
    return cache.get_or_build<ChunkTag>(key, [&] { return ChunkTag{chunk_id}; });
  };
  for (std::uint64_t chunk = 0; chunk < 8; ++chunk) {
    EXPECT_EQ(build_tagged(chunk)->tag, chunk);
  }
  // Re-fetch: every chunk's entry is still live and distinct — nothing
  // collided onto one slot.
  std::size_t builder_calls = 0;
  for (std::uint64_t chunk = 0; chunk < 8; ++chunk) {
    InstanceKey key{kGen, 100, InstanceKey::pack_param(0.5), 8, 7, 0};
    key.chunk_id = chunk;
    const auto hit = cache.get_or_build<ChunkTag>(key, [&] {
      ++builder_calls;
      return ChunkTag{~0ull};
    });
    EXPECT_EQ(hit->tag, chunk);
  }
  EXPECT_EQ(builder_calls, 0u);

  // Aggregate init with six fields means chunk 0: same entry, same hash.
  const InstanceKey six{kGen, 100, InstanceKey::pack_param(0.5), 8, 7, 0};
  InstanceKey seven = six;
  seven.chunk_id = 0;
  EXPECT_EQ(six, seven);
  EXPECT_EQ(InstanceKeyHash{}(six), InstanceKeyHash{}(seven));
  const auto again = cache.get_or_build<ChunkTag>(six, [&] {
    ++builder_calls;
    return ChunkTag{~0ull};
  });
  EXPECT_EQ(again->tag, 0u);
  EXPECT_EQ(builder_calls, 0u);
}

}  // namespace
}  // namespace tft

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/oneway_vee.h"
#include "graph/instance_cache.h"
#include "graph/partition.h"
#include "lower_bounds/budget_search.h"
#include "lower_bounds/mu_distribution.h"
#include "util/parallel.h"
#include "util/rng.h"

// Determinism contracts of the sweep layer (instance cache, budget search).
// The budget search once had an exhaustive mode that ran every trial at
// every probe. Its output for each configuration below is frozen here as
// literals, and the one search must reproduce it in the tiers EXPERIMENTS.md
// "Sweep methodology" states. The cache must be invisible: a hit, a rebuild
// and a direct call of the builder give the same instance.

namespace tft {
namespace {

/// RAII guard: restore the global thread count however a test leaves it.
struct ThreadCountGuard {
  ~ThreadCountGuard() { set_default_threads(0); }
};

/// A mu instance + canonical 3-player split, built the way the bench
/// sweeps do it: all randomness derived from (seed, idx).
struct CachedMu {
  MuInstance mu;
  std::vector<PlayerInput> players;
};
[[nodiscard]] std::size_t approx_bytes(const CachedMu& c) noexcept {
  return sizeof(c) + approx_bytes(c.mu.graph) + approx_bytes(c.players);
}

constexpr std::uint64_t kGenTestMu = 0x7E57;

CachedMu build_mu(Vertex side, std::uint64_t seed, std::uint64_t idx) {
  Rng rng = derive_rng(seed, idx);
  CachedMu c;
  c.mu = sample_mu(side, 0.9, rng);
  c.players = partition_mu_three(c.mu);
  return c;
}

std::shared_ptr<const CachedMu> cached_mu(InstanceCache& cache, Vertex side,
                                          std::uint64_t seed, std::uint64_t idx) {
  const InstanceKey key{kGenTestMu, side, InstanceKey::pack_param(0.9), 3, seed, idx};
  return cache.get_or_build<CachedMu>(key, [&] { return build_mu(side, seed, idx); });
}

/// The one-way vee protocol as a budget trial over `instances` mu instances
/// fetched by fetch(idx) — the exact shape of the bench_oneway_lb closure.
template <typename Fetch>
BudgetTrial vee_trial(Fetch fetch, std::uint64_t protocol_seed, std::uint64_t instances) {
  return [fetch, protocol_seed, instances](std::uint64_t budget, std::uint64_t t) {
    const auto inst = fetch(t % instances);
    OneWayOptions o;
    o.seed = protocol_seed + t;
    o.budget_edges_per_player = budget;
    o.hubs = 4;
    return oneway_vee_find_edge(inst->players, inst->mu.layout, o).triangle_edge.has_value();
  };
}

/// vee_trial over cached instances.
BudgetTrial protocol_trial(InstanceCache& cache, Vertex side, std::uint64_t seed,
                           std::uint64_t instances) {
  return vee_trial([&cache, side, seed](std::uint64_t idx) {
    return cached_mu(cache, side, seed, idx);
  }, seed * 1000, instances);
}

/// A deterministic per-trial monotone verdict: pass iff budget >= a
/// hash-derived threshold. Cheap enough to run full grids in tests.
std::uint64_t synthetic_threshold(std::uint64_t t) {
  return 64 + (mix_hash(t, 0xC0FFEE) % 1024);
}

BudgetTrial synthetic_trial() {
  return [](std::uint64_t budget, std::uint64_t t) { return budget >= synthetic_threshold(t); };
}

/// The exhaustive counts of synthetic_trial in closed form: at budget b,
/// the successes are #{t < trials : threshold(t) <= b}.
std::vector<std::size_t> synthetic_successes(const std::vector<std::uint64_t>& budgets,
                                             std::size_t trials) {
  std::vector<std::size_t> out;
  for (const std::uint64_t b : budgets) {
    std::size_t s = 0;
    for (std::uint64_t t = 0; t < trials; ++t) s += synthetic_threshold(t) <= b ? 1 : 0;
    out.push_back(s);
  }
  return out;
}

/// The exhaustive search's output for one configuration, frozen as
/// literals: every point ran all trials_per_budget trials, so each point's
/// success count is exact.
struct Frozen {
  bool found = false;
  std::uint64_t min_budget = 0;
  std::vector<std::uint64_t> budgets;  ///< search probes, then the curve grid, in order
  std::vector<std::size_t> successes;  ///< per point, out of trials_per_budget
};

/// The one search against the frozen exhaustive output:
///   * the same probe sequence, found and min_budget;
///   * every requested curve_budgets point (the curve's tail) with the same
///     counts over all trials_per_budget trials;
///   * every search probe forcing the frozen pass/fail decision, with
///     successes <= trials <= trials_per_budget, and the frozen count
///     whenever it resolved every trial.
void expect_matches_frozen(const BudgetSearchResult& r, const Frozen& f,
                           const BudgetSearchOptions& o) {
  EXPECT_EQ(r.found, f.found);
  EXPECT_EQ(r.min_budget, f.min_budget);
  ASSERT_EQ(f.successes.size(), f.budgets.size());
  ASSERT_EQ(r.curve.size(), f.budgets.size());
  const std::size_t total = o.trials_per_budget;
  const std::size_t grid = r.curve.size() - o.curve_budgets.size();
  for (std::size_t i = 0; i < r.curve.size(); ++i) {
    const SuccessRate& got = r.curve[i].success;
    EXPECT_EQ(r.curve[i].budget, f.budgets[i]) << "point " << i;
    if (i >= grid || got.trials == total) {
      EXPECT_EQ(got.successes, f.successes[i]) << "point " << i;
      EXPECT_EQ(got.trials, total) << "point " << i;
      continue;
    }
    EXPECT_LE(got.successes, got.trials) << "probe " << i;
    EXPECT_LE(got.trials, total) << "probe " << i;
    // Count the unresolved trials as failures, then as successes: both
    // must give the frozen decision, so the resolved ones forced it.
    const bool pass = SuccessRate{f.successes[i], total}.rate() >= o.target_success;
    const SuccessRate low{got.successes, total};
    const SuccessRate high{got.successes + (total - got.trials), total};
    EXPECT_EQ(low.rate() >= o.target_success, pass) << "probe " << i;
    EXPECT_EQ(high.rate() >= o.target_success, pass) << "probe " << i;
  }
}

void expect_byte_identical(const BudgetSearchResult& a, const BudgetSearchResult& b) {
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.min_budget, b.min_budget);
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].budget, b.curve[i].budget) << "probe " << i;
    EXPECT_EQ(a.curve[i].success.successes, b.curve[i].success.successes) << "probe " << i;
    EXPECT_EQ(a.curve[i].success.trials, b.curve[i].success.trials) << "probe " << i;
  }
}

/// The search's work counters, pinned so that turning off memoization,
/// monotone reuse or early stopping fails a test.
struct Work {
  std::uint64_t run = 0;
  std::uint64_t inferred = 0;
  std::uint64_t skipped = 0;
  std::uint64_t memo_hits = 0;
};

void expect_work(const BudgetSearchResult& r, const Work& w) {
  EXPECT_EQ(r.trials_run, w.run);
  EXPECT_EQ(r.trials_inferred, w.inferred);
  EXPECT_EQ(r.trials_skipped, w.skipped);
  EXPECT_EQ(r.memo_hits, w.memo_hits);
}

// ---------- instance cache ----------

TEST(SweepCache, HitRebuildAndOffAreIndistinguishable) {
  InstanceCache cache(64u << 20);

  const auto first = cached_mu(cache, 128, 7, 3);
  const auto hit = cached_mu(cache, 128, 7, 3);
  EXPECT_EQ(first.get(), hit.get());  // second fetch is the same object
  EXPECT_GE(cache.stats().hits, 1u);

  cache.clear();
  const auto rebuilt = cached_mu(cache, 128, 7, 3);
  EXPECT_NE(first.get(), rebuilt.get());

  const CachedMu direct = build_mu(128, 7, 3);

  // Purity: hit, rebuild-after-clear and a build without the cache are
  // equal graphs.
  for (const CachedMu* other : {rebuilt.get(), &direct}) {
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
  InstanceCache cache(64u << 20);
  BudgetSearchOptions opts;
  opts.target_success = 0.7;
  opts.trials_per_budget = 10;
  opts.budget_lo = 2;
  opts.budget_hi = 1u << 16;
  opts.refine_steps = 3;

  const auto direct_fetch = [](std::uint64_t idx) {
    return std::make_shared<const CachedMu>(build_mu(128, 5, idx));
  };
  const auto off = find_min_budget(vee_trial(direct_fetch, 5 * 1000, 4), opts);
  const auto on = find_min_budget(protocol_trial(cache, 128, 5, 4), opts);

  expect_byte_identical(off, on);
  EXPECT_GT(cache.stats().hits, 0u);  // the sweep actually exercised the cache
  expect_matches_frozen(on, {true, 8, {2, 4, 8, 6, 7}, {5, 5, 7, 5, 5}}, opts);
}

// ---------- budget search ----------

TEST(SweepSearch, MemoizationIsByteIdentical) {
  // The search's own probe sequence (doubling, then strict-midpoint
  // bisection) never repeats a budget; duplicates come from a requested
  // curve grid colliding with the probes.
  BudgetSearchOptions opts;
  opts.target_success = 0.9;
  opts.trials_per_budget = 24;
  opts.budget_lo = 4;
  opts.budget_hi = 1u << 20;
  opts.refine_steps = 6;
  for (std::uint64_t b = 4; b <= (1u << 12); b *= 2) opts.curve_budgets.push_back(b);

  const auto r = find_min_budget(synthetic_trial(), opts);
  const std::vector<std::uint64_t> budgets = {4,   8,   16,  32,  64,  128, 256,  512,  1024,
                                              768, 896, 960, 992, 976, 968, 4,    8,    16,
                                              32,  64,  128, 256, 512, 1024, 2048, 4096};
  expect_matches_frozen(r, {true, 976, budgets, synthetic_successes(budgets, 24)}, opts);
  // The grid's 1024 is the one memo hit: the search resolved it in full.
  // The exhaustive search ran 26 x 24 = 624 trials.
  expect_work(r, {232, 131, 237, 1});
}

TEST(SweepSearch, MonotoneReuseNeverChangesMinBudget) {
  // Seeded grid: several thresholds exercised via different trial counts
  // and targets; every cell must reproduce the exhaustive search.
  struct Cell {
    double target;
    std::size_t trials;
    std::uint64_t min_budget;
    std::vector<std::uint64_t> probes;
    Work work;
  };
  const std::vector<Cell> cells = {
      {0.5, 8, 544,
       {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 768, 640, 576, 544, 528},
       {67, 26, 35, 0}},
      {0.5, 25, 560,
       {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 768, 640, 576, 544, 560},
       {176, 95, 129, 0}},
      {0.8, 8, 832,
       {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 768, 896, 832, 800, 816},
       {41, 23, 64, 0}},
      {0.8, 25, 880,
       {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 768, 896, 832, 864, 880},
       {121, 62, 217, 0}},
      {1.0, 8, 976,
       {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 768, 896, 960, 992, 976},
       {34, 12, 82, 0}},
      {1.0, 25, 1088,
       {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 1536, 1280, 1152, 1088, 1056},
       {89, 72, 264, 0}},
  };
  for (const Cell& c : cells) {
    SCOPED_TRACE("target " + std::to_string(c.target) + ", trials " + std::to_string(c.trials));
    BudgetSearchOptions opts;
    opts.target_success = c.target;
    opts.trials_per_budget = c.trials;
    opts.budget_lo = 1;
    opts.budget_hi = 1u << 20;
    opts.refine_steps = 5;

    const auto r = find_min_budget(synthetic_trial(), opts);
    expect_matches_frozen(
        r, {true, c.min_budget, c.probes, synthetic_successes(c.probes, c.trials)}, opts);
    expect_work(r, c.work);
  }
}

TEST(SweepSearch, MonotoneReuseIdenticalOnProtocolSweep) {
  InstanceCache cache(64u << 20);
  BudgetSearchOptions opts;
  opts.target_success = 0.7;
  opts.trials_per_budget = 10;
  opts.budget_lo = 2;
  opts.budget_hi = 1u << 16;
  opts.refine_steps = 3;

  const auto r = find_min_budget(protocol_trial(cache, 128, 21, 4), opts);
  expect_matches_frozen(r, {true, 8, {2, 4, 8, 6, 7}, {2, 2, 7, 2, 2}}, opts);
  // The exhaustive search ran 5 x 10 = 50 trials.
  expect_work(r, {20, 6, 24, 0});
}

TEST(SweepSearch, EarlyStopPreservesDecisionsAndProbes) {
  BudgetSearchOptions opts;
  opts.target_success = 0.9;
  opts.trials_per_budget = 30;
  opts.budget_lo = 4;
  opts.budget_hi = 1u << 20;
  opts.refine_steps = 6;
  for (std::uint64_t b = 2; b <= (1u << 12); b *= 2) opts.curve_budgets.push_back(b);

  // Early stopping leaves search-probe counts partial, but the probe
  // sequence, per-budget decisions, found and min_budget are the frozen
  // ones, and the requested grid points report all 30 trials exactly.
  const auto r = find_min_budget(synthetic_trial(), opts);
  const std::vector<std::uint64_t> budgets = {
      4, 8,  16, 32, 64,  128, 256, 512, 1024, 768,  896,  960, 992, 976,
      968, 2, 4, 8,  16, 32, 64,  128, 256,  512,  1024, 2048, 4096};
  expect_matches_frozen(r, {true, 976, budgets, synthetic_successes(budgets, 30)}, opts);
  // The exhaustive search ran 27 x 30 = 810 trials.
  expect_work(r, {310, 173, 297, 1});
}

TEST(SweepSearch, NeverPassingAndAlwaysPassingEdges) {
  BudgetSearchOptions opts;
  opts.trials_per_budget = 6;
  opts.budget_lo = 1;
  opts.budget_hi = 1u << 10;

  const auto never = find_min_budget([](std::uint64_t, std::uint64_t) { return false; }, opts);
  expect_matches_frozen(never,
                        {false, 0, {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024},
                         std::vector<std::size_t>(11, 0)},
                        opts);

  const auto always = find_min_budget([](std::uint64_t, std::uint64_t) { return true; }, opts);
  expect_matches_frozen(always, {true, 1, {1}, {6}}, opts);
}

TEST(SweepSearch, ThreadCountDoesNotChangeResults) {
  ThreadCountGuard guard;
  BudgetSearchOptions opts;
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

// Budgets start at 1: the per-trial monotone state reads 0 as "known to
// fail", so a curve point at 0 would report 0 successes without running a
// trial, and doubling from budget_lo = 0 would probe 0 forever. Both are
// rejected before any trial runs. The curve case is asserted first, so a
// search without the check fails here instead of spinning.
TEST(SweepSearch, ZeroBudgetIsRejected) {
  std::atomic<std::size_t> calls{0};
  const BudgetTrial always = [&calls](std::uint64_t, std::uint64_t) {
    calls.fetch_add(1, std::memory_order_relaxed);
    return true;
  };
  BudgetSearchOptions opts;
  opts.trials_per_budget = 8;
  opts.budget_lo = 1;
  opts.budget_hi = 1u << 10;

  opts.curve_budgets = {4, 0};
  ASSERT_THROW((void)find_min_budget(always, opts), std::invalid_argument);

  opts.curve_budgets.clear();
  opts.budget_lo = 0;
  ASSERT_THROW((void)find_min_budget(always, opts), std::invalid_argument);
  EXPECT_EQ(calls.load(), 0u);
}

// A side-512 one-way vee search over 8 instances: the exhaustive search ran
// 6 x 30 = 180 trials for these probes, the one search runs 68.
TEST(SweepSearch, OneWayVeeSearchWorkIsPinned) {
  InstanceCache cache(64u << 20);
  BudgetSearchOptions opts;
  opts.target_success = 0.8;
  opts.trials_per_budget = 30;
  opts.budget_lo = 4;
  opts.budget_hi = 1ULL << 24;
  opts.refine_steps = 5;

  const auto r = find_min_budget(
      vee_trial([&cache](std::uint64_t idx) { return cached_mu(cache, 512, 0x5EED, idx); },
                0xABC0, 8),
      opts);
  expect_matches_frozen(r, {true, 16, {4, 8, 16, 12, 14, 15}, {6, 16, 28, 22, 22, 22}}, opts);
  expect_work(r, {68, 63, 49, 0});
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

// Experiment T1-R6 (Table 1, row 6): testing triangle-freeness at average
// degree Theta(1) requires Omega(sqrt(n)) bits one-way/simultaneously, via
// the Boolean Matching reduction (Theorem 4.16 / Section 4.4).
//
// Empirical counterpart: on the reduction graphs, the capped simultaneous
// protocol's minimum per-player budget for distinguishing the promise cases
// (find a triangle in the zero case; never err in the one case, which holds
// unconditionally by one-sidedness) scales as sqrt(n). The row also checks
// the reduction's promise structure at scale.

#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "core/sim_low.h"
#include "graph/triangles.h"
#include "lower_bounds/boolean_matching.h"
#include "lower_bounds/budget_search.h"
#include "runner.h"
#include "sweep_instances.h"
#include "util/flags.h"
#include "util/rng.h"

using namespace tft;

namespace {

BudgetTrial make_trial(const bench::SweepContext& sweep, std::uint32_t pairs,
                       std::uint64_t seed, std::size_t instances) {
  return [&sweep, pairs, seed, instances](std::uint64_t budget, std::uint64_t trial_index) {
    const auto inst =
        bench::bm_sweep_instance(sweep, pairs, /*zero_case=*/true, seed, trial_index % instances);
    SimLowOptions o;
    o.average_degree = 2.0;
    o.c = 4.0;
    o.seed = 0xB30 + trial_index;
    o.cap_edges_per_player = budget;
    const auto r = sim_low_find_triangle(inst->players, o);
    return r.triangle.has_value();
  };
}

/// The O(m/k)-memory trial behind --chunked: the k players' slices of the
/// chunked BM graph are fetched (and generated) one at a time, each turned
/// into its sim_low message CSR-free (sim_low_message_edges), and the
/// referee unions the messages over the compacted endpoint set
/// (finalize_simultaneous_compact) — no data structure of size O(n) or O(m)
/// ever exists in the process, which is what lets the sweep reach
/// n = 4 * pairs + 1 >= 1e8.
BudgetTrial make_chunked_trial(const bench::SweepContext& sweep, std::uint64_t pairs,
                               std::uint64_t seed, std::size_t instances) {
  return [&sweep, pairs, seed, instances](std::uint64_t budget, std::uint64_t trial_index) {
    const std::uint64_t k = sweep.chunks();
    const std::uint64_t n = 4 * pairs + 1;
    SimLowOptions o;
    o.average_degree = 2.0;
    o.c = 4.0;
    o.seed = 0xB30 + trial_index;
    o.cap_edges_per_player = budget;
    std::vector<SimMessage> messages;
    messages.reserve(static_cast<std::size_t>(k));
    for (std::uint64_t c = 0; c < k; ++c) {
      const auto slice = bench::bm_chunk_slice(sweep, pairs, /*zero_case=*/true, k, c, seed,
                                               trial_index % instances);
      messages.push_back(
          sim_low_message_edges(slice->edges, static_cast<std::size_t>(c), n, o));
    }
    const auto r = finalize_simultaneous_compact(static_cast<Vertex>(n), std::move(messages));
    return r.triangle.has_value();
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::configure_threads(flags);
  const bench::SweepContext sweep(flags);
  bench::JsonRows json(flags, sweep.chunked() ? "bm_lb_chunked" : "bm_lb");
  const std::size_t instances = static_cast<std::size_t>(flags.get_int("instances", 10));
  const std::size_t trials_per_budget =
      static_cast<std::size_t>(flags.get_int("trials", 24));

  bench::header("T1-R6 bench_bm_lb",
                "d = Theta(1) simultaneous triangle-freeness: Omega(sqrt n) via the "
                "Boolean Matching reduction");

  std::printf("\n-- promise verification at scale --\n");
  {
    Rng rng(1);
    for (const std::uint32_t pairs : {1000u, 10000u, 100000u}) {
      const auto zero = sample_bm(pairs, true, rng);
      const auto one = sample_bm(pairs, false, rng);
      const Graph gz = bm_graph(zero);
      const Graph go = bm_graph(one);
      bench::row({{"n_pairs", static_cast<double>(pairs)},
                  {"zero_triangles", static_cast<double>(count_triangles(gz))},
                  {"one_triangles", static_cast<double>(count_triangles(go))},
                  {"avg_degree", gz.average_degree()}});
      json.row("promise", {{"n_pairs", static_cast<std::uint64_t>(pairs)},
                           {"zero_triangles", static_cast<std::uint64_t>(count_triangles(gz))},
                           {"one_triangles", static_cast<std::uint64_t>(count_triangles(go))}});
    }
  }

  std::printf("\n-- min per-player budget (edges) to catch the zero case w.p. 0.8 --\n");
  std::vector<double> ns, budgets;
  // Quadrupling grid from 256 up to --pairs_max; the max itself is always
  // included so a sweep can land on an exact target size (e.g.
  // --pairs_max=25000000 --chunked puts the last row at n = 1e8 + 1).
  std::vector<std::uint64_t> grid;
  const auto pairs_max = static_cast<std::uint64_t>(flags.get_int("pairs_max", 65536));
  for (std::uint64_t p = 256; p <= pairs_max; p *= 4) grid.push_back(p);
  if (grid.empty() || grid.back() != pairs_max) grid.push_back(pairs_max);
  for (const std::uint64_t pairs : grid) {
    BudgetSearchOptions opts;
    opts.target_success = 0.8;
    opts.trials_per_budget = trials_per_budget;
    opts.budget_lo = 4;
    opts.budget_hi = 1ULL << 26;
    opts.refine_steps = 5;
    const auto trial =
        sweep.chunked()
            ? make_chunked_trial(sweep, pairs, 100 + pairs, instances)
            : make_trial(sweep, static_cast<std::uint32_t>(pairs), 100 + pairs, instances);
    const auto result = find_min_budget(trial, opts);
    if (!result.found) {
      std::printf("  pairs=%-8llu NO passing budget found\n",
                  static_cast<unsigned long long>(pairs));
      continue;
    }
    const double n_vertices = 4.0 * static_cast<double>(pairs) + 1.0;
    bench::row({{"n", n_vertices},
                {"min_budget_edges", static_cast<double>(result.min_budget)},
                {"sqrt_n", std::sqrt(n_vertices)}});
    json.row("min_budget", {{"n_pairs", pairs}, {"min_budget_edges", result.min_budget}});
    ns.push_back(n_vertices);
    budgets.push_back(static_cast<double>(result.min_budget));
  }
  if (ns.size() >= 3) {
    bench::fit_line("min-budget vs n", loglog_fit(ns, budgets), 0.5);
    json.row("fit", {{"slope_n", loglog_fit(ns, budgets).slope}});
  }

  if (sweep.chunked()) {
    // A/B identity: the --chunks build equals the monolithic k = 1 build of
    // the same spec/seed, edge-multiset-wise. CI replays this row.
    std::printf("\n-- chunked/monolithic identity (k=%llu vs k=1) --\n",
                static_cast<unsigned long long>(sweep.chunks()));
    const std::uint64_t pairs0 = grid.front();
    const ChunkedSpec spec = ChunkedSpec::bm_reduction(pairs0, /*zero_case=*/true);
    const std::uint64_t s = bench::chunk_instance_seed(100 + pairs0, 0);
    const std::uint64_t hk = chunked_union_hash(spec, s, sweep.chunks());
    const std::uint64_t h1 = chunked_union_hash(spec, s, 1);
    bench::row({{"chunk_identity_ok", hk == h1 ? 1.0 : 0.0}});
    json.row("chunk_identity", {{"hash", hk}, {"match", hk == h1}});
  }

  std::printf("\n-- one-sidedness on the triangle-free case (never errs) --\n");
  {
    const auto results = bench::run_trials(50, 7, [&](Rng& trng, std::size_t t) {
      const auto inst = sample_bm(4096, false, trng);
      const auto players = bm_two_players(inst);
      SimLowOptions o;
      o.average_degree = 2.0;
      o.c = 4.0;
      o.seed = 0xF00 + static_cast<std::uint64_t>(t);
      return sim_low_find_triangle(players, o).triangle.has_value();
    });
    int false_positives = 0;
    for (const bool fp : results) false_positives += fp ? 1 : 0;
    bench::row({{"trials", 50.0}, {"false_positives", static_cast<double>(false_positives)}});
    json.row("one_sided", {{"trials", static_cast<std::uint64_t>(50)},
                           {"false_positives", static_cast<std::int64_t>(false_positives)}});
  }
  return 0;
}

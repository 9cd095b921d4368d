// Experiment T1-R3 (Table 1, row 3): triangle-edge detection in "extended"
// one-way 3-player communication requires Omega((nd)^{1/6}) bits
// (Theorem 4.7 at d = Theta(sqrt n): Omega(n^{1/4})), and the shared-hub
// birthday protocol matches it up to logs.
//
// Empirical counterpart: on the hard distribution mu, search for the
// minimum per-player edge budget at which the one-way protocol succeeds
// w.p. >= 0.8, sweep the side size, and fit min-budget vs side. Expected
// slope: 1/4 in side (equivalently 1/6 in nd, since nd ~ side^{3/2}).

#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "core/oneway_vee.h"
#include "graph/chunked.h"
#include "lower_bounds/budget_search.h"
#include "lower_bounds/mu_distribution.h"
#include "runner.h"
#include "sweep_instances.h"
#include "util/flags.h"
#include "util/rng.h"

using namespace tft;

namespace {

/// Budget trial over a pool of `instances` cached mu instances: success iff
/// the protocol outputs an edge (always a true triangle edge by
/// one-sidedness). Under --chunked the instance is generated chunk-wise with
/// the k = 3 mu chunking doubling as the player partition (zero-copy,
/// graph/chunked.h); the protocol and budget accounting are unchanged.
BudgetTrial make_trial(const bench::SweepContext& sweep, Vertex side, double gamma,
                       std::uint64_t seed, std::size_t instances) {
  return [&sweep, side, gamma, seed, instances](std::uint64_t budget, std::uint64_t trial_index) {
    OneWayOptions o;
    o.seed = 0xABC0 + trial_index;
    o.hubs = 4;
    o.budget_edges_per_player = budget;
    if (sweep.chunked()) {
      const auto inst =
          bench::mu_chunk_instance(sweep, side, gamma, seed, trial_index % instances);
      return oneway_vee_find_edge(inst->players, inst->layout, o).triangle_edge.has_value();
    }
    const auto inst =
        bench::mu_sweep_instance(sweep, side, gamma, seed, trial_index % instances);
    return oneway_vee_find_edge(inst->players, inst->mu.layout, o).triangle_edge.has_value();
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::configure_threads(flags);
  const bench::SweepContext sweep(flags);
  bench::JsonRows json(flags, sweep.chunked() ? "oneway_lb_chunked" : "oneway_lb");
  const double gamma = flags.get_double("gamma", 0.9);
  const std::size_t instances = static_cast<std::size_t>(flags.get_int("instances", 10));
  const std::size_t trials_per_budget =
      static_cast<std::size_t>(flags.get_int("trials", 30));

  bench::header("T1-R3 bench_oneway_lb",
                "one-way 3-player triangle-edge detection: Theta~(n^{1/4}) on mu "
                "(= Theta~((nd)^{1/6}))");

  std::vector<double> sides, budgets;
  for (Vertex side = 256; side <= static_cast<Vertex>(flags.get_int("side_max", 16384));
       side *= 4) {
    BudgetSearchOptions opts;
    opts.target_success = 0.8;
    opts.trials_per_budget = trials_per_budget;
    opts.budget_lo = 4;
    opts.budget_hi = 1ULL << 24;
    opts.refine_steps = 5;
    const auto result =
        find_min_budget(make_trial(sweep, side, gamma, 1000 + side, instances), opts);
    if (!result.found) {
      std::printf("  side=%-8u NO passing budget found\n", side);
      continue;
    }
    const double nd = 3.0 * static_cast<double>(side) * 2.0 * gamma *
                      std::sqrt(static_cast<double>(side));
    bench::row({{"side", static_cast<double>(side)},
                {"nd", nd},
                {"min_budget_edges", static_cast<double>(result.min_budget)},
                {"side^0.25", std::pow(static_cast<double>(side), 0.25)}});
    json.row("min_budget", {{"side", static_cast<std::uint64_t>(side)},
                            {"min_budget_edges", result.min_budget}});
    sides.push_back(static_cast<double>(side));
    budgets.push_back(static_cast<double>(result.min_budget));
  }
  if (sides.size() >= 3) {
    bench::fit_line("min-budget vs side", loglog_fit(sides, budgets), 0.25);
    // In terms of nd (nd ~ side^{3/2}) the same fit is 1/6.
    std::vector<double> nds;
    for (const double s : sides) nds.push_back(std::pow(s, 1.5));
    bench::fit_line("min-budget vs nd", loglog_fit(nds, budgets), 1.0 / 6.0);
    json.row("fit", {{"slope_side", loglog_fit(sides, budgets).slope},
                     {"slope_nd", loglog_fit(nds, budgets).slope}});
  }

  std::printf("\n-- success curve at side=4096 (threshold behaviour) --\n");
  {
    // One search call measures both the threshold and the printed curve:
    // opts.curve_budgets rides on the search's evaluator, so grid points the
    // doubling phase already resolved in full are memo hits and the rest
    // reuse per-trial monotone verdicts. Curve points always report all 30
    // trials (never early-stopped), so these rows are byte-identical at any
    // --threads or --cache_mb setting.
    BudgetSearchOptions opts;
    opts.target_success = 0.8;
    opts.trials_per_budget = trials_per_budget;
    opts.budget_lo = 4;
    opts.budget_hi = 1ULL << 24;
    opts.refine_steps = 5;
    for (std::uint64_t b = 2; b <= 512; b *= 2) opts.curve_budgets.push_back(b);
    const auto result =
        find_min_budget(make_trial(sweep, 4096, gamma, 77, instances), opts);
    if (result.found) {
      bench::row({{"threshold_min_budget", static_cast<double>(result.min_budget)}});
      json.row("curve_min_budget", {{"min_budget_edges", result.min_budget}});
    }
    const std::size_t first = result.curve.size() - opts.curve_budgets.size();
    for (std::size_t i = first; i < result.curve.size(); ++i) {
      const auto& p = result.curve[i];
      bench::row({{"budget", static_cast<double>(p.budget)}, {"success", p.success.rate()}});
      json.row("curve", {{"budget", p.budget},
                         {"successes", static_cast<std::uint64_t>(p.success.successes)}});
    }
  }

  if (sweep.chunked()) {
    // A/B identity: the k-chunk build is edge-multiset-identical to the
    // monolithic (k = 1) build of the same spec/seed. CI replays this row.
    std::printf("\n-- chunked/monolithic identity (k=3 vs k=1) --\n");
    const ChunkedSpec spec = ChunkedSpec::tripartite_mu(256, gamma);
    const std::uint64_t s = bench::chunk_instance_seed(1000 + 256, 0);
    const std::uint64_t hk = chunked_union_hash(spec, s, 3);
    const std::uint64_t h1 = chunked_union_hash(spec, s, 1);
    bench::row({{"chunk_identity_ok", hk == h1 ? 1.0 : 0.0}});
    json.row("chunk_identity", {{"hash", hk}, {"match", hk == h1}});
  }
  return bench::finish(flags);
}

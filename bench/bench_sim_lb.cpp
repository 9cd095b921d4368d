// Experiment T1-R4 (Table 1, row 4): simultaneous 3-player triangle-edge
// detection requires Omega((nd)^{1/3}) bits at d = Theta(sqrt n)
// (Section 4.2.3) — and Section 3.4.1 notes this is tight: AlgHigh matches
// it. Empirical counterpart: the minimum per-player edge cap at which the
// capped simultaneous protocol still succeeds on mu scales as (nd)^{1/3}
// ~ side^{1/2}.

#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "core/sim_high.h"
#include "lower_bounds/budget_search.h"
#include "lower_bounds/mu_distribution.h"
#include "runner.h"
#include "sweep_instances.h"
#include "util/flags.h"
#include "util/rng.h"

using namespace tft;

namespace {

BudgetTrial make_trial(const bench::SweepContext& sweep, Vertex side, double gamma,
                       std::uint64_t seed, std::size_t instances, double eps) {
  return [&sweep, side, gamma, seed, instances, eps](std::uint64_t budget,
                                                     std::uint64_t trial_index) {
    const auto inst =
        bench::mu_sweep_instance(sweep, side, gamma, seed, trial_index % instances);
    SimHighOptions o;
    o.eps = eps;
    o.c = 3.0;
    o.seed = 0x51B0 + trial_index;
    o.average_degree = std::max(1.0, inst->mu.graph.average_degree());
    o.cap_edges_per_player = budget;
    const auto r = sim_high_find_triangle(inst->players, o);
    return r.triangle.has_value();
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::configure_threads(flags);
  const bench::SweepContext sweep(flags);
  bench::JsonRows json(flags, "sim_lb");
  const double gamma = flags.get_double("gamma", 0.9);
  const std::size_t instances = static_cast<std::size_t>(flags.get_int("instances", 8));

  bench::header("T1-R4 bench_sim_lb",
                "simultaneous 3-player triangle finding on mu: Theta((nd)^{1/3}) "
                "= Theta(side^{1/2}) per-player budget (tight per Sec. 3.4.1)");

  std::vector<double> sides, budgets;
  for (Vertex side = 256; side <= static_cast<Vertex>(flags.get_int("side_max", 16384));
       side *= 4) {
    BudgetSearchOptions opts;
    opts.target_success = 0.8;
    opts.trials_per_budget = 24;
    opts.budget_lo = 4;
    opts.budget_hi = 1ULL << 26;
    opts.refine_steps = 5;
    const auto result = find_min_budget(
        make_trial(sweep, side, gamma, 2000 + side, instances, 0.3), opts);
    if (!result.found) {
      std::printf("  side=%-8u NO passing budget found\n", side);
      continue;
    }
    bench::row({{"side", static_cast<double>(side)},
                {"min_budget_edges", static_cast<double>(result.min_budget)},
                {"side^0.5", std::sqrt(static_cast<double>(side))}});
    json.row("min_budget", {{"side", static_cast<std::uint64_t>(side)},
                            {"min_budget_edges", result.min_budget}});
    sides.push_back(static_cast<double>(side));
    budgets.push_back(static_cast<double>(result.min_budget));
  }
  if (sides.size() >= 3) {
    bench::fit_line("min-budget vs side", loglog_fit(sides, budgets), 0.5);
    std::vector<double> nds;
    for (const double s : sides) nds.push_back(std::pow(s, 1.5));
    bench::fit_line("min-budget vs nd", loglog_fit(nds, budgets), 1.0 / 3.0);
    json.row("fit", {{"slope_side", loglog_fit(sides, budgets).slope},
                     {"slope_nd", loglog_fit(nds, budgets).slope}});
  }

  std::printf(
      "\n-- one-way vs simultaneous gap (Table 1 rows 3 vs 4): at equal side,\n"
      "   the simultaneous threshold is polynomially larger --\n");
  for (const Vertex side : {1024u, 4096u}) {
    BudgetSearchOptions opts;
    opts.target_success = 0.8;
    opts.trials_per_budget = 24;
    opts.budget_lo = 4;
    opts.budget_hi = 1ULL << 26;
    const auto sim = find_min_budget(
        make_trial(sweep, side, gamma, 3000 + side, instances, 0.3), opts);
    bench::row({{"side", static_cast<double>(side)},
                {"sim_min_budget", static_cast<double>(sim.min_budget)},
                {"side^0.5", std::sqrt(static_cast<double>(side))},
                {"side^0.25", std::pow(static_cast<double>(side), 0.25)}});
    json.row("gap", {{"side", static_cast<std::uint64_t>(side)},
                     {"sim_min_budget", sim.min_budget}});
  }
  return 0;
}

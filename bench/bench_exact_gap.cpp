// Experiment E-GAP (Section 5 / intro): exact triangle detection requires
// Omega(k m) bits ([38], Woodruff-Zhang) — essentially "send everything" —
// while property testing is polynomially cheaper. Measure the gap between
// the full-exchange exact baseline and every tester at growing scale.

#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "core/exact_baseline.h"
#include "core/sim_oblivious.h"
#include "core/unrestricted.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "runner.h"
#include "util/flags.h"
#include "util/rng.h"

using namespace tft;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::configure_threads(flags);
  bench::JsonRows json(flags, "exact_gap");
  const std::size_t k = static_cast<std::size_t>(flags.get_int("k", 4));
  const int trials = static_cast<int>(flags.get_int("trials", 3));

  bench::header("E-GAP bench_exact_gap",
                "property testing is polynomially cheaper than exact detection "
                "(Omega(km) for exact [38])");

  std::printf("\n%-10s %-12s %-14s %-16s %-16s %-10s\n", "n", "edges", "exact_bits",
              "unrestricted", "sim_oblivious", "gap(x)");
  std::vector<double> ns, gaps;
  for (Vertex n = 4096; n <= static_cast<Vertex>(flags.get_int("nmax", 131072)); n *= 2) {
    const double d = std::sqrt(static_cast<double>(n));
    struct Trial {
      double exact = 0.0;
      double unres = 0.0;
      double obl = 0.0;
      double edges = 0.0;
    };
    const auto results = bench::run_trials(trials, 5 + n, [&](Rng& rng, std::size_t t) {
      const Graph g = gen::gnp(n, d / static_cast<double>(n), rng);
      const auto players = partition_random(g, k, rng);

      UnrestrictedOptions uo;
      uo.consts = ProtocolConstants::practical();
      uo.seed = 17 + t;

      SimObliviousOptions oo;
      oo.seed = 23 + t;

      return Trial{static_cast<double>(exact_find_triangle(players).total_bits),
                   static_cast<double>(find_triangle_unrestricted(players, uo).total_bits),
                   static_cast<double>(sim_oblivious_find_triangle(players, oo).total_bits),
                   static_cast<double>(g.num_edges())};
    });
    const Summary exact_bits = bench::summarize(results, [](const Trial& r) { return r.exact; });
    const Summary unres_bits = bench::summarize(results, [](const Trial& r) { return r.unres; });
    const Summary obl_bits = bench::summarize(results, [](const Trial& r) { return r.obl; });
    const double m_mean = bench::summarize(results, [](const Trial& r) { return r.edges; }).mean();
    const double gap = exact_bits.mean() / std::max(1.0, unres_bits.mean());
    std::printf("%-10u %-12.0f %-14.4g %-16.4g %-16.4g %-10.1f\n", n, m_mean,
                exact_bits.mean(), unres_bits.mean(), obl_bits.mean(), gap);
    json.row("gap", {{"n", static_cast<std::uint64_t>(n)},
                     {"exact_bits", exact_bits.mean()},
                     {"unrestricted_bits", unres_bits.mean()},
                     {"oblivious_bits", obl_bits.mean()},
                     {"gap", gap}});
    ns.push_back(static_cast<double>(n));
    gaps.push_back(gap);
  }
  if (ns.size() >= 3) {
    // Exact ~ n^{3/2} log n, unrestricted ~ n^{3/8} polylog at d = sqrt(n):
    // the gap itself grows polynomially.
    bench::fit_line("gap vs n", loglog_fit(ns, gaps), 1.125);
  }
  return bench::finish(flags);
}

// Experiment E-OBL (Corollary 3.22 / Theorem 3.32): degree-oblivious
// protocols pay only polylog factors over their degree-aware counterparts,
// and a single simultaneous algorithm covers the full density range
// (Algorithm 11).
//
// Sweep the average degree d from Theta(1) to n^{0.8} at fixed n; compare
// the oblivious protocol's cost and success against the degree-aware
// protocol appropriate for that regime.

#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "core/sim_high.h"
#include "core/sim_low.h"
#include "core/sim_oblivious.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "runner.h"
#include "util/flags.h"
#include "util/rng.h"

using namespace tft;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::configure_threads(flags);
  bench::JsonRows json(flags, "oblivious");
  const Vertex n = static_cast<Vertex>(flags.get_int("n", 16384));
  const std::size_t k = static_cast<std::size_t>(flags.get_int("k", 4));
  const int trials = static_cast<int>(flags.get_int("trials", 5));

  bench::header("E-OBL bench_oblivious",
                "degree-oblivious simultaneous testing matches the degree-aware "
                "protocols up to polylog factors across the whole density range");

  const double sqrt_n = std::sqrt(static_cast<double>(n));
  std::printf("\nn=%u, k=%zu, sqrt(n)=%.0f\n", n, k, sqrt_n);
  std::printf("%-10s %-10s %-14s %-12s %-14s %-12s %-8s\n", "d", "regime", "aware_bits",
              "aware_ok", "oblivious_bits", "obliv_ok", "ratio");

  for (const double exp : {0.0, 0.25, 0.5, 0.65, 0.8}) {
    const double d = std::max(2.0, std::pow(static_cast<double>(n), exp));
    struct Trial {
      double aware_bits = 0.0;
      double obl_bits = 0.0;
      bool aware_ok = false;
      bool obl_ok = false;
    };
    const auto results = bench::run_trials(
        trials, 91 + static_cast<std::uint64_t>(100 * exp), [&](Rng& rng, std::size_t t) {
          const Graph g = gen::gnp(n, d / static_cast<double>(n), rng);
          const auto players = partition_random(g, k, rng);
          const double true_d = std::max(1.0, g.average_degree());
          const std::uint64_t seed = 555 + static_cast<std::uint64_t>(t);

          Trial out;
          if (true_d >= sqrt_n) {
            SimHighOptions o;
            o.average_degree = true_d;
            o.c = 3.0;
            o.seed = seed;
            const auto r = sim_high_find_triangle(players, o);
            out.aware_bits = static_cast<double>(r.total_bits);
            out.aware_ok = r.triangle.has_value();
          } else {
            SimLowOptions o;
            o.average_degree = true_d;
            o.c = 4.0;
            o.seed = seed;
            const auto r = sim_low_find_triangle(players, o);
            out.aware_bits = static_cast<double>(r.total_bits);
            out.aware_ok = r.triangle.has_value();
          }

          SimObliviousOptions oo;
          oo.c = 3.0;
          oo.seed = seed;
          const auto ro = sim_oblivious_find_triangle(players, oo);
          out.obl_bits = static_cast<double>(ro.total_bits);
          out.obl_ok = ro.triangle.has_value();
          return out;
        });
    const Summary aware_bits =
        bench::summarize(results, [](const Trial& r) { return r.aware_bits; });
    const Summary obl_bits = bench::summarize(results, [](const Trial& r) { return r.obl_bits; });
    std::printf("%-10.1f %-10s %-14.3g %-12.2f %-14.3g %-12.2f %-8.2f\n", d,
                d >= sqrt_n ? "high" : "low", aware_bits.mean(),
                bench::success_rate(results, [](const Trial& r) { return r.aware_ok; }),
                obl_bits.mean(),
                bench::success_rate(results, [](const Trial& r) { return r.obl_ok; }),
                aware_bits.mean() > 0 ? obl_bits.mean() / aware_bits.mean() : 0.0);
    json.row("density", {{"d", d},
                         {"regime", d >= sqrt_n ? "high" : "low"},
                         {"aware_bits", aware_bits.mean()},
                         {"oblivious_bits", obl_bits.mean()}});
  }

  std::printf(
      "\nNote: sparse G(n,p) at d = O(1) has few triangles, so both protocols\n"
      "legitimately accept most such samples; the d >= n^{1/4} rows carry the\n"
      "success comparison, and the ratio column carries the cost claim.\n");
  return bench::finish(flags);
}

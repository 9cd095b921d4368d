// Experiment E-MU (Lemma 4.5): a sample of the hard distribution mu
// contains Omega(side^{3/2}) edge-disjoint triangles — i.e. is
// Omega(1)-far from triangle-free — with probability at least 1/2 (for
// sufficiently small gamma the lemma's constant is gamma^3/48).
//
// Measure the empirical far-fraction and the packing/side^{3/2} coefficient
// across gamma and side.

#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "lower_bounds/mu_distribution.h"
#include "runner.h"
#include "util/flags.h"

using namespace tft;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::configure_threads(flags);  // mu_farness_stats fans trials internally
  // --chunked: draw each trial's mu sample through the chunked generator
  // (streamed union build, O(chunk) generator scratch); --chunks sets the
  // build granularity (the sampled graphs are chunk-count invariant).
  const bool chunked = flags.get_bool("chunked", false);
  const auto chunks = static_cast<std::uint64_t>(flags.get_int("chunks", 3));
  bench::JsonRows json(flags, chunked ? "mu_farness_chunked" : "mu_farness");
  const std::size_t trials = static_cast<std::size_t>(flags.get_int("trials", 20));
  const auto stats = [&](Vertex side, double gamma, std::uint64_t seed) {
    return chunked ? mu_farness_stats_chunked(side, gamma, trials, 1.0 / 48.0, seed, chunks)
                   : mu_farness_stats(side, gamma, trials, 1.0 / 48.0, seed);
  };

  bench::header("E-MU bench_mu_farness",
                "Lemma 4.5: mu is Omega(1)-far (>= c gamma^3 side^{3/2} disjoint "
                "triangles) w.p. >= 1/2");

  std::printf("\n-- gamma sweep at side = 1024 --\n");
  for (const double gamma : {0.5, 0.7, 0.9, 1.2}) {
    const auto s = stats(1024, gamma, 17);
    bench::row({{"gamma", gamma},
                {"far_fraction", s.far_fraction()},
                {"mean_packing", s.mean_packing},
                {"threshold", s.threshold},
                {"packing/side^1.5", s.mean_packing / std::pow(1024.0, 1.5)}});
    json.row("gamma_sweep", {{"gamma", gamma},
                             {"far_fraction", s.far_fraction()},
                             {"mean_packing", s.mean_packing}});
  }

  std::printf("\n-- side sweep at gamma = 0.9 --\n");
  std::vector<double> sides, packs;
  for (const Vertex side : {256u, 512u, 1024u, 2048u, 4096u}) {
    const auto s = stats(side, 0.9, 19);
    bench::row({{"side", static_cast<double>(side)},
                {"far_fraction", s.far_fraction()},
                {"mean_packing", s.mean_packing}});
    json.row("side_sweep", {{"side", static_cast<std::uint64_t>(side)},
                            {"far_fraction", s.far_fraction()},
                            {"mean_packing", s.mean_packing}});
    sides.push_back(static_cast<double>(side));
    packs.push_back(s.mean_packing);
  }
  bench::fit_line("packing vs side", loglog_fit(sides, packs), 1.5);
  return bench::finish(flags);
}

// Experiment T1-R5 (Table 1, row 5): the k-player simultaneous lower bound
// Omega(k (nd)^{1/6}) is obtained by symmetrization (Theorem 4.15): a
// k-player simultaneous protocol of cost C yields a 3-player one-way
// protocol of expected cost (2/k) C on the symmetric distribution.
//
// Empirical counterpart: run the reduction and verify the measured
// one-way/total cost ratio equals 2/k across k, on both a generic symmetric
// distribution and the mu-derived parts.

#include <cstdio>

#include "bench_common.h"
#include "core/sim_low.h"
#include "core/sim_oblivious.h"
#include "graph/generators.h"
#include "lower_bounds/mu_distribution.h"
#include "lower_bounds/symmetrization.h"
#include "runner.h"
#include "util/flags.h"
#include "util/rng.h"

using namespace tft;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::configure_threads(flags);  // run_symmetrization fans trials internally
  bench::JsonRows json(flags, "symmetrization");
  const std::size_t trials = static_cast<std::size_t>(flags.get_int("trials", 60));
  const Vertex n = static_cast<Vertex>(flags.get_int("n", 2048));

  bench::header("T1-R5 bench_symmetrization",
                "Theorem 4.15: E[one-way cost] = (2/k) * E[k-player simultaneous cost]");

  const ThreePartSampler sampler = [n](Rng& rng) {
    const double p = 6.0 / static_cast<double>(n);
    return std::array<Graph, 3>{gen::gnp(n, p, rng), gen::gnp(n, p, rng), gen::gnp(n, p, rng)};
  };
  const SimProtocol protocol = [](std::span<const PlayerInput> players) {
    SimLowOptions o;
    o.average_degree = 6.0;
    o.c = 4.0;
    o.seed = 4242;
    return sim_low_find_triangle(players, o);
  };

  std::printf("\n-- ratio vs k (symmetric G(n,p) parts, sim-low) --\n");
  for (const std::size_t k : {3u, 4u, 6u, 8u, 12u, 16u}) {
    const auto report = run_symmetrization(sampler, protocol, k, trials, 11 * k);
    bench::row({{"k", static_cast<double>(k)},
                {"sim_total_bits", report.avg_sim_total_bits},
                {"oneway_bits", report.avg_one_way_bits},
                {"ratio", report.ratio()},
                {"2/k", 2.0 / static_cast<double>(k)},
                {"sim_success", report.sim_success.rate()}});
    json.row("gnp", {{"k", static_cast<std::uint64_t>(k)},
                     {"sim_total_bits", report.avg_sim_total_bits},
                     {"oneway_bits", report.avg_one_way_bits},
                     {"ratio", report.ratio()}});
  }

  std::printf("\n-- ratio vs k (mu-derived parts, sim-oblivious) --\n");
  const ThreePartSampler mu_sampler = [](Rng& rng) {
    const auto mu = sample_mu(512, 0.9, rng);
    const auto players = partition_mu_three(mu);
    return std::array<Graph, 3>{players[0].local, players[1].local, players[2].local};
  };
  const SimProtocol oblivious = [](std::span<const PlayerInput> players) {
    SimObliviousOptions o;
    o.seed = 777;
    return sim_oblivious_find_triangle(players, o);
  };
  for (const std::size_t k : {3u, 6u, 12u}) {
    const auto report = run_symmetrization(mu_sampler, oblivious, k, trials / 2, 13 * k);
    bench::row({{"k", static_cast<double>(k)},
                {"ratio", report.ratio()},
                {"2/k", 2.0 / static_cast<double>(k)},
                {"sim_success", report.sim_success.rate()}});
    json.row("mu", {{"k", static_cast<std::uint64_t>(k)}, {"ratio", report.ratio()}});
  }

  std::printf(
      "\nConsequence (paper): combining the measured 3-player one-way threshold\n"
      "Theta~(n^{1/4}) (bench_oneway_lb) with the 2/k identity above lifts to the\n"
      "k-player simultaneous bound Omega(k (nd)^{1/6}) of Table 1 row 5.\n");
  return bench::finish(flags);
}

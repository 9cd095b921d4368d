// Experiment E-INFO (Section 4.1): the information-theoretic engine of the
// lower bounds, run empirically against the actual protocols.
//
// Super-additivity (the inequality every Section 4.2 argument routes
// through): for independent input bits, sum_e I(M; X_e) <= H(M) <= |M|.
// We instrument Alice's message in the one-way hub protocol on a small mu
// instance and report the measured per-edge information sum against the
// message entropy and the charged message length, across budgets.
//
// Also prints the Lemma 4.3 grid check (D(q||p) >= q - 2p, p < 1/2).

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "comm/shared_randomness.h"
#include "core/oneway_vee.h"
#include "lower_bounds/information.h"
#include "lower_bounds/mu_distribution.h"
#include "runner.h"
#include "util/bits.h"
#include "util/flags.h"
#include "util/rng.h"

using namespace tft;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::configure_threads(flags);
  bench::JsonRows json(flags, "information");
  const auto side = static_cast<Vertex>(flags.get_int("side", 10));
  const double gamma = flags.get_double("gamma", 1.2);
  const std::size_t samples = static_cast<std::size_t>(flags.get_int("samples", 30000));

  bench::header("E-INFO bench_information",
                "Section 4.1: sum_e I(M; X_e) <= H(M) <= |M| measured on the one-way "
                "protocol's Alice message over mu");

  std::printf("\nLemma 4.3 grid check: min slack of D(q||p) - (q - 2p) = %.6f (>= 0)\n",
              lemma_4_3_min_slack(300));

  // Alice's input: the U x V1 block of mu — side^2 iid edge slots with
  // p = gamma / sqrt(side). Her message: per shared hub, her first
  // budget-many hub neighbors under a shared permutation.
  const double p_edge = gamma / std::sqrt(static_cast<double>(side));
  const std::size_t slots = static_cast<std::size_t>(side) * side;

  std::printf("\nside=%u (Alice holds %zu iid edge slots at p=%.3f), %zu samples per row\n",
              side, slots, p_edge, samples);
  std::printf("%-8s %-14s %-14s %-14s %-10s\n", "budget", "sum_e I(M;Xe)", "H(M)", "|M| charged",
              "distinct M");

  for (const std::uint64_t budget : {1u, 2u, 4u, 8u, 16u}) {
    const InformationSample sample = [&](std::size_t t) {
      Rng rng(0x1F0 + t);
      // Sample Alice's block.
      std::vector<std::uint8_t> bits(slots);
      std::vector<Edge> alice_edges;
      for (Vertex u = 0; u < side; ++u) {
        for (Vertex v1 = 0; v1 < side; ++v1) {
          const bool present = rng.bernoulli(p_edge);
          bits[u * side + v1] = present ? 1 : 0;
          if (present) alice_edges.emplace_back(u, static_cast<Vertex>(side + v1));
        }
      }
      const PlayerInput alice{0, 3, Graph(3 * side, std::move(alice_edges))};
      // Protocol randomness is FIXED across samples (deterministic message
      // function of the input), as Section 4's transcript analysis assumes.
      const SharedRandomness sr(42);
      std::uint64_t fingerprint = 0x9E3779B97F4A7C15ULL;
      const auto hub = static_cast<Vertex>(sr.uniform_vertex(SharedTag{0x0B, 0, 0}, 0, side));
      // Alice's hub message: first `budget` neighbors under the shared
      // permutation (mirrors oneway_vee.cpp's hub_neighbors).
      std::vector<Vertex> ns(alice.local.neighbors(hub).begin(),
                             alice.local.neighbors(hub).end());
      std::sort(ns.begin(), ns.end(), [&](Vertex a, Vertex b) {
        return sr.precedes(SharedTag{0x0C, 0, 0}, a, b);
      });
      if (ns.size() > budget) ns.resize(budget);
      for (const Vertex v : ns) fingerprint = mix_hash(fingerprint, v + 1);
      return std::make_pair(fingerprint, bits);
    };

    const auto est = empirical_edge_information(sample, samples, slots);
    const double charged =
        static_cast<double>(budget) * vertex_bits(3ULL * side) + count_bits(budget);
    std::printf("%-8llu %-14.3f %-14.3f %-14.0f %-10zu\n",
                static_cast<unsigned long long>(budget), est.total_information_bits,
                est.message_entropy_bits, charged, est.distinct_messages);
    json.row("information", {{"budget", budget},
                             {"sum_edge_information", est.total_information_bits},
                             {"message_entropy", est.message_entropy_bits},
                             {"charged_bits", charged},
                             {"distinct_messages",
                              static_cast<std::uint64_t>(est.distinct_messages)}});
  }

  std::printf(
      "\nReading: the per-edge information sum stays below the message entropy\n"
      "(super-additivity) which stays below the charged message length — the\n"
      "chain the Omega(n^{1/4}) proof quantifies. Finite-sample MI estimates\n"
      "are biased upward for large message spaces; rows with many distinct\n"
      "messages overstate both columns equally.\n");
  return bench::finish(flags);
}

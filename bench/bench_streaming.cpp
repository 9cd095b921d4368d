// Experiment E-STREAM (Section 4.2.2): one-way communication lower bounds
// transfer to streaming space via the generic AMS reduction — so
// triangle-edge detection on mu needs Omega(n^{1/4}) streaming memory.
//
// Measure: (a) detection probability vs memory budget on mu streams (the
// threshold should move right as side grows); (b) the reduction identity:
// the one-way protocol induced by a space-S streaming algorithm costs
// (#players - 1) * S.

#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "graph/partition.h"
#include "lower_bounds/mu_distribution.h"
#include "runner.h"
#include "streaming/reduction.h"
#include "streaming/stream_model.h"
#include "util/bits.h"
#include "util/flags.h"
#include "util/rng.h"

using namespace tft;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::configure_threads(flags);
  bench::JsonRows json(flags, "streaming");
  const int trials = static_cast<int>(flags.get_int("trials", 12));

  bench::header("E-STREAM bench_streaming",
                "one-way CC lower bounds transfer to streaming space (Sec 4.2.2)");

  std::printf("\n-- detection probability vs memory (mu streams) --\n");
  for (const Vertex side : {512u, 2048u}) {
    std::printf("  side=%u:\n", side);
    Rng rng(10 + side);
    std::vector<MuInstance> pool;
    for (int i = 0; i < trials; ++i) pool.push_back(sample_mu(side, 0.9, rng));
    const std::uint64_t eb = edge_bits(3ULL * side);
    for (const std::uint64_t mem_edges : {8u, 32u, 128u, 512u, 2048u, 8192u}) {
      // Stream order and algorithm seeds are already counter-style in t.
      const auto oks = bench::run_trials(trials, mem_edges, [&](Rng&, std::size_t t) {
        Rng order_rng(100 + t);
        auto stream = shuffled_stream_of(pool[t].graph, order_rng);
        const auto r = run_streaming(stream, mem_edges * eb, 1000 + t);
        return r.triangle.has_value();
      });
      bench::row({{"mem_edges", static_cast<double>(mem_edges)},
                  {"success",
                   bench::success_rate(oks, [](bool ok) { return ok; })}});
      json.row("detection", {{"side", static_cast<std::uint64_t>(side)},
                             {"mem_edges", static_cast<std::uint64_t>(mem_edges)},
                             {"success", bench::success_rate(oks, [](bool ok) { return ok; })}});
    }
  }

  std::printf("\n-- reduction identity: one-way cost = (players-1) * state size --\n");
  {
    Rng rng(3);
    const auto mu = sample_mu(1024, 0.9, rng);
    const auto three = partition_mu_three(mu);
    for (const std::uint64_t mem_edges : {64u, 512u, 4096u}) {
      const std::uint64_t budget = mem_edges * edge_bits(mu.graph.n());
      const auto r = one_way_via_streaming(three, budget, 7);
      bench::row({{"mem_edges", static_cast<double>(mem_edges)},
                  {"comm_bits", static_cast<double>(r.communication_bits)},
                  {"2x_peak_mem", 2.0 * static_cast<double>(r.peak_memory_bits)},
                  {"found", r.triangle ? 1.0 : 0.0}});
      json.row("reduction", {{"mem_edges", static_cast<std::uint64_t>(mem_edges)},
                             {"comm_bits", static_cast<std::uint64_t>(r.communication_bits)},
                             {"peak_memory_bits",
                              static_cast<std::uint64_t>(r.peak_memory_bits)}});
    }
  }

  std::printf(
      "\nReading: the memory threshold for constant success tracks the one-way\n"
      "communication threshold (bench_oneway_lb) divided by the number of\n"
      "hand-offs, exactly as the Section 4.2.2 reduction predicts.\n");
  return bench::finish(flags);
}

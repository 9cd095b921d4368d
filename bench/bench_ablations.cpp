// Experiment E-ABL: ablations of the design choices DESIGN.md calls out.
//   A1 bucketing vs naive uniform vertex sampling (the Section 3.3
//      motivation: dense subgraphs of high-degree nodes defeat naive
//      sampling)
//   A2 per-player caps vs no caps in the simultaneous protocols (caps bound
//      the worst case at no observable success cost — Theorem 3.24/3.26)
//   A3 duplication vs no-duplication (the k-factor of Cor. 3.25/3.27)
//   A4 blackboard vs coordinator for the unrestricted protocol
//      (Theorem 3.23's k-factor saving)

#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "core/sim_high.h"
#include "core/sim_low.h"
#include "core/unrestricted.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "lower_bounds/embedding.h"
#include "runner.h"
#include "util/flags.h"
#include "util/rng.h"

using namespace tft;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::configure_threads(flags);
  bench::JsonRows json(flags, "ablations");
  const int trials = static_cast<int>(flags.get_int("trials", 8));

  bench::header("E-ABL bench_ablations", "design-choice ablations (see DESIGN.md E-ABL)");

  std::printf("\n-- A1: bucketing vs naive uniform sampling (tiny dense core in a big graph) --\n");
  {
    Rng rng(1);
    const Graph core = gen::gnp(24, 0.6, rng);
    const Graph g = gen::embed_with_isolated(core, 80000);
    struct Trial {
      double bucket_bits = 0.0;
      double naive_bits = 0.0;
      bool bucket_ok = false;
      bool naive_ok = false;
    };
    const auto results = bench::run_trials(trials, 1, [&](Rng& trng, std::size_t t) {
      const auto players = partition_random(g, 4, trng);
      Trial out;
      for (const bool use_buckets : {true, false}) {
        UnrestrictedOptions o;
        o.consts = ProtocolConstants::practical();
        o.seed = 100 + static_cast<std::uint64_t>(t);
        o.use_bucketing = use_buckets;
        const auto r = find_triangle_unrestricted(players, o);
        if (use_buckets) {
          out.bucket_ok = r.triangle.has_value();
          out.bucket_bits = static_cast<double>(r.total_bits);
        } else {
          out.naive_ok = r.triangle.has_value();
          out.naive_bits = static_cast<double>(r.total_bits);
        }
      }
      return out;
    });
    bench::row({{"bucket_success",
                 bench::success_rate(results, [](const Trial& r) { return r.bucket_ok; })},
                {"naive_success",
                 bench::success_rate(results, [](const Trial& r) { return r.naive_ok; })},
                {"bucket_bits",
                 bench::summarize(results, [](const Trial& r) { return r.bucket_bits; }).mean()},
                {"naive_bits",
                 bench::summarize(results, [](const Trial& r) { return r.naive_bits; }).mean()}});
    json.row("a1_bucketing",
             {{"bucket_success",
               bench::success_rate(results, [](const Trial& r) { return r.bucket_ok; })},
              {"naive_success",
               bench::success_rate(results, [](const Trial& r) { return r.naive_ok; })},
              {"bucket_bits",
               bench::summarize(results, [](const Trial& r) { return r.bucket_bits; }).mean()},
              {"naive_bits",
               bench::summarize(results, [](const Trial& r) { return r.naive_bits; }).mean()}});
  }

  std::printf("\n-- A2: cap tightness sweep (sim-high, heavy player holds 90%% of edges) --\n");
  std::printf("   The Theorem 3.24 cap is sized for a delta-tail event, so it never binds\n");
  std::printf("   on typical runs (beta=paper); tightening it below ~1x of the expected\n");
  std::printf("   message trades worst-player bits against success.\n");
  {
    Rng rng(2);
    const Vertex n = 16384;
    const Graph g = gen::gnp(n, std::sqrt(static_cast<double>(n)) / n, rng);
    PartitionOptions popts;
    popts.heavy_fraction = 0.9;
    // Expected per-run sampled-subgraph size ~ (s/n)^2 * m.
    SimHighOptions probe;
    probe.average_degree = g.average_degree();
    const double s_size = sim_high_sample_size(n, probe);
    const double expected_edges =
        (s_size / n) * (s_size / n) * static_cast<double>(g.num_edges());
    int beta_index = 0;
    for (const double beta : {0.25, 0.5, 1.0, 2.0, 0.0 /* = paper cap */}) {
      struct Trial {
        double worst = 0.0;
        bool ok = false;
      };
      const auto results =
          bench::run_trials(trials, 2000 + beta_index++, [&](Rng& trng, std::size_t t) {
            const auto players = partition_edges(g, 4, popts, trng);
            SimHighOptions o;
            o.average_degree = g.average_degree();
            o.seed = 200 + static_cast<std::uint64_t>(t);
            o.cap_edges_per_player =
                beta > 0 ? static_cast<std::uint64_t>(beta * expected_edges) + 1
                         : SimHighOptions::kPaperCap;
            const auto r = sim_high_find_triangle(players, o);
            double mx = 0;
            for (const auto b : r.per_player_bits) mx = std::max(mx, static_cast<double>(b));
            return Trial{mx, r.triangle.has_value()};
          });
      bench::row({{"beta", beta > 0 ? beta : -1.0},
                  {"success", bench::success_rate(results, [](const Trial& r) { return r.ok; })},
                  {"worst_player_bits",
                   bench::summarize(results, [](const Trial& r) { return r.worst; }).mean()}});
      json.row("a2_caps",
               {{"beta", beta > 0 ? beta : -1.0},
                {"success", bench::success_rate(results, [](const Trial& r) { return r.ok; })},
                {"worst_player_bits",
                 bench::summarize(results, [](const Trial& r) { return r.worst; }).mean()}});
    }
  }

  std::printf("\n-- A3: duplication factor vs total cost (sim-low, planted, k=8) --\n");
  {
    Rng rng(3);
    const Graph g = gen::planted_triangles(65536, 8192, rng);
    for (const double dup : {1.0, 2.0, 4.0, 8.0}) {
      struct Trial {
        double bits = 0.0;
        bool ok = false;
      };
      const auto results = bench::run_trials(
          trials, 3000 + static_cast<std::uint64_t>(dup), [&](Rng& trng, std::size_t t) {
            const auto players = partition_duplicated(g, 8, dup, trng);
            SimLowOptions o;
            o.average_degree = g.average_degree();
            o.c = 4.0;
            o.seed = 300 + static_cast<std::uint64_t>(t);
            const auto r = sim_low_find_triangle(players, o);
            return Trial{static_cast<double>(r.total_bits), r.triangle.has_value()};
          });
      bench::row({{"dup", dup},
                  {"bits", bench::summarize(results, [](const Trial& r) { return r.bits; }).mean()},
                  {"success", bench::success_rate(results, [](const Trial& r) { return r.ok; })}});
      json.row("a3_duplication",
               {{"dup", dup},
                {"bits", bench::summarize(results, [](const Trial& r) { return r.bits; }).mean()},
                {"success", bench::success_rate(results, [](const Trial& r) { return r.ok; })}});
    }
  }

  std::printf("\n-- A4: blackboard vs coordinator (Theorem 3.23) --\n");
  std::printf("   The k-factor saving applies to the edge-posting term, so we compare the\n");
  std::printf("   edge-sampling phase on a workload where it dominates (dense embedded\n");
  std::printf("   core, degree ~ sqrt(nd)), with heavy duplication.\n");
  {
    Rng rng(4);
    const auto inst = embed_dense_core(65536, 8.0, 0.5, rng);
    for (const std::size_t k : {4u, 8u, 16u}) {
      struct Trial {
        double coord_sampling = 0.0;
        double board_sampling = 0.0;
        double coord_total = 0.0;
        double board_total = 0.0;
      };
      const auto results = bench::run_trials(trials, 4000 + k, [&](Rng& trng, std::size_t t) {
        const auto players = partition_duplicated(inst.graph, k, 3.0, trng);
        Trial out;
        for (const bool board : {false, true}) {
          UnrestrictedOptions o;
          o.consts = ProtocolConstants::practical();
          o.seed = 400 + static_cast<std::uint64_t>(t);
          o.blackboard = board;
          const auto r = find_triangle_unrestricted(players, o);
          (board ? out.board_sampling : out.coord_sampling) =
              static_cast<double>(r.edge_sampling_bits);
          (board ? out.board_total : out.coord_total) = static_cast<double>(r.total_bits);
        }
        return out;
      });
      const Summary coord_sampling =
          bench::summarize(results, [](const Trial& r) { return r.coord_sampling; });
      const Summary board_sampling =
          bench::summarize(results, [](const Trial& r) { return r.board_sampling; });
      const Summary coord_total =
          bench::summarize(results, [](const Trial& r) { return r.coord_total; });
      const Summary board_total =
          bench::summarize(results, [](const Trial& r) { return r.board_total; });
      bench::row({{"k", static_cast<double>(k)},
                  {"coord_sampling_bits", coord_sampling.mean()},
                  {"board_sampling_bits", board_sampling.mean()},
                  {"sampling_saving(x)",
                   coord_sampling.mean() / std::max(1.0, board_sampling.mean())},
                  {"total_saving(x)", coord_total.mean() / std::max(1.0, board_total.mean())}});
      json.row("a4_blackboard", {{"k", static_cast<std::uint64_t>(k)},
                                 {"coord_sampling_bits", coord_sampling.mean()},
                                 {"board_sampling_bits", board_sampling.mean()},
                                 {"coord_total_bits", coord_total.mean()},
                                 {"board_total_bits", board_total.mean()}});
    }
  }
  return bench::finish(flags);
}

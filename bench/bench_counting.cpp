// Experiment E-COUNT: the triangle-counting side of the Section 4.4
// connection — the paper's Omega(sqrt n) bound is imported from Kallaugher-
// Price [27], whose object is streaming triangle *counting*. The
// wedge-sampling counter here is the classic one-pass estimator; we measure
// estimate quality vs reservoir size (memory) across graph families, the
// memory/accuracy tradeoff the lower bound constrains.

#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "graph/generators.h"
#include "graph/triangles.h"
#include "runner.h"
#include "streaming/wedge_counter.h"
#include "util/flags.h"
#include "util/rng.h"

using namespace tft;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::configure_threads(flags);
  const int trials = static_cast<int>(flags.get_int("trials", 7));
  bench::JsonRows json(flags, "bench_counting");

  bench::header("E-COUNT bench_counting",
                "streaming triangle counting (the [27] problem behind Sec 4.4): "
                "relative error vs reservoir size");

  struct Workload {
    const char* name;
    Graph graph;
  };
  Rng rng(1);
  const Workload workloads[] = {
      {"gnp(2000, d=40)", gen::gnp(2000, 0.02, rng)},
      {"planted(6000, t=600)", gen::planted_triangles(6000, 600, rng)},
      {"hub(3000, h=3)", gen::hub_matching(3000, 3, rng)},
      {"chung-lu(4000, d=12, b=2.3)", gen::chung_lu(4000, 12.0, 2.3, rng)},
  };

  for (const auto& w : workloads) {
    const double truth = static_cast<double>(count_triangles(w.graph));
    std::printf("\n-- %s: %g triangles, %g wedges --\n", w.name, truth, [&] {
      double wedges = 0;
      for (Vertex v = 0; v < w.graph.n(); ++v) {
        const double d = w.graph.degree(v);
        wedges += 0.5 * d * (d - 1);
      }
      return wedges;
    }());
    for (const std::size_t reservoir : {64u, 256u, 1024u, 4096u}) {
      // The estimator's randomness is already counter-style in t.
      const auto errs = bench::run_trials(trials, reservoir, [&](Rng&, std::size_t t) {
        const double est =
            estimate_triangles_streaming(w.graph, reservoir, 10 + t, 100 + t);
        return std::abs(est - truth) / std::max(1.0, truth);
      });
      const Summary rel_err = bench::summarize(errs, [](double e) { return e; });
      bench::row({{"reservoir", static_cast<double>(reservoir)},
                  {"mean_rel_err", rel_err.mean()},
                  {"max_rel_err", rel_err.max()}});
      json.row(w.name, {{"reservoir", static_cast<std::uint64_t>(reservoir)},
                        {"triangles", truth},
                        {"mean_rel_err", rel_err.mean()},
                        {"max_rel_err", rel_err.max()}});
    }
  }

  std::printf(
      "\nReading: error shrinks ~1/sqrt(reservoir); hub-concentrated inputs\n"
      "(high wedge count, triangles on few wedges) need the largest\n"
      "reservoirs — the same concentration phenomenon the testing lower\n"
      "bounds exploit.\n");
  return bench::finish(flags);
}

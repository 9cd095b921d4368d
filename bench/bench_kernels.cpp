// Experiment E-KERN: raw kernel throughput. Not a paper claim — this bench
// exists so regressions in the triangle kernels (the hot path under every
// protocol simulation and lower-bound search) are visible as numbers.
//
// Measures wall-clock and Medges/s for:
//   * Graph construction from an edge list (CSR build)
//   * count_triangles        (degree-oriented + mark-scan intersection)
//   * find_triangle          (early-exit variant of the same walk)
//   * greedy_triangle_packing (edge-disjoint packing, EdgeBitmap)
//   * disjoint_vees_at       (per-source vee packing on hub graphs)
// across generator families with different degree shapes: gnp at d=sqrt(n)
// (the Table-1 hard density), planted (sparse), hub_matching (skewed), and
// chung_lu (power-law).
//
// Flags: --n (gnp scale, default 100000), --trials, --threads. Timings are
// wall-clock; counts are byte-identical at any --threads value and on every
// host. --json=PATH writes one `kernel_outputs` row: triangles, found and
// packing on the gnp family at --n (the baseline pins it at n = 2000).

#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "graph/generators.h"
#include "graph/intersect.h"
#include "graph/triangles.h"
#include "runner.h"
#include "util/flags.h"
#include "util/rng.h"

using namespace tft;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-`trials` wall time of fn() in seconds.
template <typename Fn>
double best_time(int trials, Fn&& fn) {
  double best = 1e300;
  for (int t = 0; t < trials; ++t) {
    const double t0 = now_s();
    fn();
    best = std::min(best, now_s() - t0);
  }
  return best;
}

/// The host-independent outputs of one family's kernels.
struct Outputs {
  std::uint64_t triangles = 0;
  bool found = false;
  std::size_t packing = 0;
};

Outputs bench_family(const char* name, const Graph& g, int trials) {
  const double m = static_cast<double>(g.num_edges());
  std::printf("\n-- %s: n=%u, m=%.0f, avg_d=%.1f --\n", name, g.n(), m,
              g.average_degree());

  std::uint64_t tri = 0;
  const double t_count =
      best_time(trials, [&] { tri = count_triangles(g); });
  bench::row({{"count_triangles_s", t_count},
              {"Medges/s", m / 1e6 / t_count},
              {"triangles", static_cast<double>(tri)}});

  bool found = false;
  const double t_find =
      best_time(trials, [&] { found = find_triangle(g).has_value(); });
  bench::row({{"find_triangle_s", t_find},
              {"Medges/s", m / 1e6 / t_find},
              {"found", found ? 1.0 : 0.0}});

  std::size_t pack = 0;
  const double t_pack = best_time(trials, [&] {
    Rng rng(7);
    pack = greedy_triangle_packing(g, rng).size();
  });
  bench::row({{"greedy_packing_s", t_pack},
              {"Medges/s", m / 1e6 / t_pack},
              {"packing", static_cast<double>(pack)}});
  return {tri, found, pack};
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::configure_threads(flags);
  bench::JsonRows json(flags, "kernels");
  const Vertex n = static_cast<Vertex>(flags.get_int("n", 100000));
  const int trials = static_cast<int>(flags.get_int("trials", 3));

  bench::header("E-KERN bench_kernels",
                "kernel throughput (regression guard, not a paper claim)");
  std::printf("primitive bodies: %s\n", kernel::avx2_available() ? "avx2" : "scalar");

  // Construction throughput: time the CSR build alone by regenerating the
  // same edge list each round (generator cost included, dominated by build
  // at this density).
  {
    const double t_build = best_time(trials, [&] {
      Rng rng(1);
      const Graph g = gen::gnp(n, std::sqrt(static_cast<double>(n)) /
                                      static_cast<double>(n),
                               rng);
      (void)g;
    });
    Rng rng(1);
    const Graph g =
        gen::gnp(n, std::sqrt(static_cast<double>(n)) / static_cast<double>(n),
                 rng);
    bench::row({{"gnp_build_s", t_build},
                {"Medges/s", static_cast<double>(g.num_edges()) / 1e6 / t_build}});

    const Outputs gnp = bench_family("gnp(n, d=sqrt n)", g, trials);
    json.row("kernel_outputs", {{"family", "gnp"},
                                {"triangles", gnp.triangles},
                                {"found", gnp.found},
                                {"packing", gnp.packing}});
  }
  {
    Rng rng(2);
    const Graph g = gen::planted_triangles(n, n / 8, rng);
    bench_family("planted(n, t=n/8)", g, trials);
  }
  {
    Rng rng(3);
    const Graph g = gen::hub_matching(n / 4, 4, rng);
    bench_family("hub(n/4, h=4)", g, trials);

    // The per-source vee kernel only matters on hub-shaped inputs; charge
    // it against the heaviest vertex.
    Vertex hub = 0;
    for (Vertex v = 0; v < g.n(); ++v)
      if (g.degree(v) > g.degree(hub)) hub = v;
    std::uint64_t vees = 0;
    const double t_vee =
        best_time(trials, [&] { vees = disjoint_vees_at(g, hub); });
    bench::row({{"disjoint_vees_s", t_vee},
                {"hub_degree", static_cast<double>(g.degree(hub))},
                {"vees", static_cast<double>(vees)}});
  }
  {
    Rng rng(4);
    const Graph g = gen::chung_lu(n / 2, 12.0, 2.3, rng);
    bench_family("chung_lu(n/2, d=12, b=2.3)", g, trials);
  }

  return bench::finish(flags);
}

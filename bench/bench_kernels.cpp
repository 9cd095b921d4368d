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
// wall-clock; counts are byte-identical at any --threads value.
//
// Kernel-variant flags (graph/intersect.h):
//   --kernel=auto|scalar|avx2|bitset  strategy for the family benches
//                                     (default auto; baseline runs pin
//                                     scalar for host-independence)
//   --kernel_rows=0|1   emit kernel/kernel_identity JSON rows (default 0)
// The variant A/B section always runs: like the chunked `chunk_identity`
// rows, a scalar/AVX2/bitset output mismatch is a hard failure (exit 1),
// not a report.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

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

void bench_family(const char* name, const Graph& g, int trials) {
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
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::configure_threads(flags);
  bench::JsonRows json(flags, "kernels");
  const Vertex n = static_cast<Vertex>(flags.get_int("n", 100000));
  const int trials = static_cast<int>(flags.get_int("trials", 3));
  const bool kernel_rows = flags.get_bool("kernel_rows", false);

  const std::string kernel_name = flags.get_string("kernel", "auto");
  const auto requested = kernel::variant_from_name(kernel_name);
  if (!requested) {
    std::fprintf(stderr, "unknown --kernel=%s (auto|scalar|avx2|bitset)\n",
                 kernel_name.c_str());
    return 2;
  }
  kernel::set_variant(*requested);

  bench::header("E-KERN bench_kernels",
                "kernel throughput (regression guard, not a paper claim)");
  std::printf("kernel: %s (resolved: %s, avx2 %s)\n",
              kernel::to_string(kernel::variant()),
              kernel::to_string(kernel::resolved_variant()),
              kernel::avx2_available() ? "available" : "unavailable");

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

    bench_family("gnp(n, d=sqrt n)", g, trials);
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

  // -- kernel variant A/B (E-KERNELS-SIMD) --
  // Every variant must produce the exact scalar outputs: same triangle
  // count, same found triangle, same packing (Triangle-for-Triangle, same
  // order). Like the chunked `chunk_identity` rows, a mismatch is a hard
  // failure. Timings feed the geomean-speedup line; JSON rows (gated by
  // --kernel_rows) carry only host-independent identity/output fields.
  std::printf("\n-- kernel variants: gnp(n, d=sqrt n), scalar reference A/B --\n");
  bool kernel_identical = true;
  {
    Rng rng(1);
    const Graph g =
        gen::gnp(n, std::sqrt(static_cast<double>(n)) / static_cast<double>(n),
                 rng);
    const double m = static_cast<double>(g.num_edges());

    struct VariantRun {
      kernel::Variant v = kernel::Variant::kScalar;
      std::uint64_t tri = 0;
      std::optional<Triangle> found;
      std::vector<Triangle> pack;
      double t_count = 0, t_find = 0, t_pack = 0;
    };
    VariantRun runs[3];
    runs[0].v = kernel::Variant::kScalar;
    runs[1].v = kernel::Variant::kAvx2;
    runs[2].v = kernel::Variant::kBitset;
    for (VariantRun& r : runs) {
      kernel::set_variant(r.v);
      r.t_count = best_time(trials, [&] { r.tri = count_triangles(g); });
      r.t_find = best_time(trials, [&] { r.found = find_triangle(g); });
      r.t_pack = best_time(trials, [&] {
        Rng prng(7);
        r.pack = greedy_triangle_packing(g, prng);
      });
    }
    kernel::set_variant(*requested);  // restore the flag-selected strategy

    const VariantRun& ref = runs[0];
    for (const VariantRun& r : runs) {
      const bool match =
          r.tri == ref.tri && r.found == ref.found && r.pack == ref.pack;
      kernel_identical = kernel_identical && match;
      const double geomean = std::cbrt((ref.t_count / r.t_count) *
                                       (ref.t_find / r.t_find) *
                                       (ref.t_pack / r.t_pack));
      std::printf("%-8s", kernel::to_string(r.v));
      bench::row({{"count_s", r.t_count},
                  {"count_Medges/s", m / 1e6 / r.t_count},
                  {"find_s", r.t_find},
                  {"pack_s", r.t_pack},
                  {"geomean_vs_scalar", geomean},
                  {"identical", match ? 1.0 : 0.0}});
      if (kernel_rows) {
        json.row("kernel_identity",
                 {{"variant", kernel::to_string(r.v)},
                  {"family", "gnp"},
                  {"triangles", r.tri},
                  {"found", r.found.has_value()},
                  {"packing", r.pack.size()},
                  {"identical", match}});
      }
    }
    // The headline number: resolved-auto strategy vs the scalar reference.
    const kernel::Variant best = kernel::avx2_available()
                                     ? kernel::Variant::kBitset
                                     : kernel::Variant::kScalar;
    for (const VariantRun& r : runs) {
      if (r.v != best) continue;
      const double geomean = std::cbrt((ref.t_count / r.t_count) *
                                       (ref.t_find / r.t_find) *
                                       (ref.t_pack / r.t_pack));
      std::printf("kernel geomean speedup (%s vs scalar): %.2fx  [target: 2.0x]\n",
                  kernel::to_string(r.v), geomean);
    }
    if (!kernel_identical) {
      std::fprintf(stderr,
                   "FAIL: kernel variants disagree with the scalar reference\n");
      return 1;
    }
  }

  return 0;
}

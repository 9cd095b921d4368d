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
//   --kernel_rows=0|1   emit kernel/kernel_identity JSON rows (default 0,
//                       so pre-existing baseline invocations are unchanged)
//   --sweep=0|1         run the sweep-layer microbench (default 1)
// The variant A/B section always runs: like the chunked `chunk_identity`
// rows, a scalar/AVX2/bitset output mismatch is a hard failure (exit 1),
// not a report.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "core/oneway_vee.h"
#include "graph/generators.h"
#include "graph/intersect.h"
#include "graph/triangles.h"
#include "lower_bounds/budget_search.h"
#include "runner.h"
#include "sweep_instances.h"
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

/// One sweep-layer configuration for the A/B microbench below.
struct SweepConfig {
  const char* name;
  bool cache;
  bool memo;
  bool monotone;
  bool early;
};

/// A fixed seeded min-budget search (one-way vee on mu, side=512) under one
/// configuration of the sweep-layer switches. Returns wall seconds.
double run_sweep(const bench::SweepContext& sweep, const SweepConfig& cfg,
                 BudgetSearchResult* out) {
  set_instance_caching(cfg.cache);
  InstanceCache::global().clear();
  constexpr Vertex kSide = 512;
  constexpr std::uint64_t kSeed = 0x5EED;
  constexpr std::size_t kInstances = 8;
  const BudgetTrial trial = [&sweep](std::uint64_t budget, std::uint64_t trial_index) {
    const auto inst =
        bench::mu_sweep_instance(sweep, kSide, 0.9, kSeed, trial_index % kInstances);
    OneWayOptions o;
    o.seed = 0xABC0 + trial_index;
    o.hubs = 4;
    o.budget_edges_per_player = budget;
    return oneway_vee_find_edge(inst->players, inst->mu.layout, o).triangle_edge.has_value();
  };
  BudgetSearchOptions opts;
  opts.target_success = 0.8;
  opts.trials_per_budget = 30;
  opts.budget_lo = 4;
  opts.budget_hi = 1ULL << 24;
  opts.refine_steps = 5;
  opts.memoize_budgets = cfg.memo;
  opts.monotone_reuse = cfg.monotone;
  opts.early_stop = cfg.early;
  const double t0 = now_s();
  *out = find_min_budget(trial, opts);
  return now_s() - t0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::configure_threads(flags);
  const bench::SweepContext sweep(flags);
  bench::JsonRows json(flags, "kernels");
  const Vertex n = static_cast<Vertex>(flags.get_int("n", 100000));
  const int trials = static_cast<int>(flags.get_int("trials", 3));
  const bool kernel_rows = flags.get_bool("kernel_rows", false);
  const bool run_sweep_bench = flags.get_bool("sweep", true);

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

  if (!run_sweep_bench) return kernel_identical ? 0 : 1;

  // -- sweep-layer microbench (E-SWEEP): the PRs' end-to-end claim --
  // The same seeded min-budget search under every sweep-layer switch
  // combination must print identical results (min_budget, probe sequence;
  // the memo+monotone configuration additionally matches the legacy curve
  // byte-for-byte) while the all-on configuration runs >= 3x faster than
  // all-off. A mismatch is a hard failure, not a report.
  std::printf("\n-- sweep layer: min-budget search, one-way vee on mu(side=512) --\n");
  {
    const SweepConfig configs[] = {
        {"all_off", false, false, false, false},
        {"cache_only", true, false, false, false},
        {"memo_monotone", false, true, true, false},
        {"all_on", true, true, true, true},
    };
    BudgetSearchResult baseline;
    double baseline_s = 0.0;
    double all_on_s = 0.0;
    bool identical = true;
    for (std::size_t c = 0; c < std::size(configs); ++c) {
      const SweepConfig& cfg = configs[c];
      BudgetSearchResult r;
      const double secs = run_sweep(sweep, cfg, &r);
      if (c == 0) {
        baseline = r;
        baseline_s = secs;
      }
      if (std::string_view(cfg.name) == "all_on") all_on_s = secs;
      bool match = r.found == baseline.found && r.min_budget == baseline.min_budget &&
                   r.curve.size() == baseline.curve.size();
      for (std::size_t i = 0; match && i < r.curve.size(); ++i) {
        match = r.curve[i].budget == baseline.curve[i].budget;
        // Early stopping may leave success counts partial; every other
        // configuration must reproduce them exactly.
        if (std::string_view(cfg.name) != "all_on") {
          match = match && r.curve[i].success.successes == baseline.curve[i].success.successes &&
                  r.curve[i].success.trials == baseline.curve[i].success.trials;
        }
      }
      identical = identical && match;
      bench::row({{"config_" + std::string(cfg.name), 1.0},
                  {"seconds", secs},
                  {"min_budget", static_cast<double>(r.min_budget)},
                  {"trials_run", static_cast<double>(r.trials_run)},
                  {"speedup", baseline_s / secs},
                  {"identical", match ? 1.0 : 0.0}});
      json.row("sweep", {{"config", cfg.name},
                         {"min_budget", r.min_budget},
                         {"trials_run", r.trials_run},
                         {"identical", match}});
    }
    // Restore the flag-selected switches for any code running after us.
    set_instance_caching(flags.get_bool("cache", true));
    const double speedup = baseline_s / all_on_s;
    std::printf("sweep speedup (all_on vs all_off): %.1fx  [floor: 3.0x]\n", speedup);
    if (!identical) {
      std::fprintf(stderr, "FAIL: sweep-layer configurations disagree on search results\n");
      return 1;
    }
  }
  return 0;
}

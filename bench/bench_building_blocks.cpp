// Experiment E-BB (Section 3.1): building-block costs.
//   * degree approximation under duplication: O(k loglog d + k log k
//     loglog k log 1/tau) bits (Theorem 3.1)
//   * no-duplication variant: O(k loglog(d/k)) bits (Lemma 3.2)
//   * distinct-elements generalization
//   * uniform incident-edge / random-edge sampling: O(k log n) bits
//
// This binary uses google-benchmark for wall-clock micro-costs and prints a
// bit-cost table (the paper's measure) afterwards.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.h"
#include "core/building_blocks.h"
#include "core/degree_approx.h"
#include "graph/triangles.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "runner.h"
#include "util/flags.h"
#include "util/rng.h"

using namespace tft;

namespace {

struct Fixture {
  Graph g;
  std::vector<PlayerInput> players;
  SharedRandomness sr{31337};
};

Fixture make_fixture(Vertex star_size, std::size_t k) {
  Rng rng(star_size * 31 + k);
  Fixture f;
  f.g = gen::star(star_size);
  f.players = partition_duplicated(f.g, k, 2.0, rng);
  return f;
}

void BM_ApproxDegree(benchmark::State& state) {
  const auto f = make_fixture(static_cast<Vertex>(state.range(0)),
                              static_cast<std::size_t>(state.range(1)));
  std::uint64_t tag = 0;
  for (auto _ : state) {
    Transcript t(f.players.size(), f.g.n());
    t.set_record_events(false);
    const auto r = approx_degree(f.players, t, f.sr, SharedTag{0xBB, tag++, 0}, 0);
    benchmark::DoNotOptimize(r.estimate);
    state.counters["bits"] = static_cast<double>(t.total_bits());
  }
}
BENCHMARK(BM_ApproxDegree)
    ->ArgsProduct({{1 << 6, 1 << 10, 1 << 14}, {2, 8}})
    ->Unit(benchmark::kMicrosecond);

void BM_ApproxDegreeNoDup(benchmark::State& state) {
  Rng rng(7);
  const Graph g = gen::star(static_cast<Vertex>(state.range(0)));
  const auto players = partition_random(g, 8, rng);
  for (auto _ : state) {
    Transcript t(players.size(), g.n());
    t.set_record_events(false);
    const auto r = approx_degree_no_duplication(players, t, 0, 1.25);
    benchmark::DoNotOptimize(r.estimate);
    state.counters["bits"] = static_cast<double>(t.total_bits());
  }
}
BENCHMARK(BM_ApproxDegreeNoDup)->Arg(1 << 6)->Arg(1 << 14)->Unit(benchmark::kMicrosecond);

void BM_RandomIncidentEdge(benchmark::State& state) {
  const auto f = make_fixture(1 << 12, static_cast<std::size_t>(state.range(0)));
  std::uint64_t tag = 0;
  for (auto _ : state) {
    Transcript t(f.players.size(), f.g.n());
    t.set_record_events(false);
    const auto e = random_incident_edge(f.players, t, f.sr, SharedTag{0xCE, tag++, 0}, 0);
    benchmark::DoNotOptimize(e);
    state.counters["bits"] = static_cast<double>(t.total_bits());
  }
}
BENCHMARK(BM_RandomIncidentEdge)->Arg(2)->Arg(8)->Arg(32)->Unit(benchmark::kMicrosecond);

void BM_RandomEdge(benchmark::State& state) {
  Rng rng(9);
  const Graph g = gen::gnp(4096, 0.01, rng);
  const auto players = partition_duplicated(g, static_cast<std::size_t>(state.range(0)), 2.0, rng);
  const SharedRandomness sr(11);
  std::uint64_t tag = 0;
  for (auto _ : state) {
    Transcript t(players.size(), g.n());
    t.set_record_events(false);
    const auto e = random_edge(players, t, sr, SharedTag{0xEE, tag++, 0});
    benchmark::DoNotOptimize(e);
    state.counters["bits"] = static_cast<double>(t.total_bits());
  }
}
BENCHMARK(BM_RandomEdge)->Arg(2)->Arg(8)->Unit(benchmark::kMicrosecond);

void BM_GreedyPackingBaseline(benchmark::State& state) {
  Rng rng(13);
  const Graph g = gen::gnp(static_cast<Vertex>(state.range(0)), 0.02, rng);
  for (auto _ : state) {
    Rng inner(state.iterations());
    benchmark::DoNotOptimize(greedy_triangle_packing(g, inner).size());
  }
}
BENCHMARK(BM_GreedyPackingBaseline)->Arg(1024)->Arg(4096)->Unit(benchmark::kMillisecond);

void print_bit_cost_table(bench::JsonRows& json) {
  bench::header("E-BB bench_building_blocks (bit costs)",
                "degree approx: O(k loglog d + k polylog k); random edge: O(k log n)");
  std::printf("\n-- approx_degree bit cost vs true degree (k = 8, duplication 2x) --\n");
  for (const Vertex deg : {64u, 1024u, 16384u, 262144u}) {
    const auto f = make_fixture(deg + 1, 8);
    Transcript t(8, f.g.n());
    t.set_record_events(false);
    const auto r = approx_degree(f.players, t, f.sr, SharedTag{0xF0, deg, 0}, 0);
    bench::row({{"deg", static_cast<double>(deg)},
                {"bits", static_cast<double>(t.total_bits())},
                {"estimate", r.estimate},
                {"guesses", static_cast<double>(r.guesses)}});
    json.row("degree_cost", {{"deg", static_cast<std::uint64_t>(deg)},
                             {"bits", t.total_bits()},
                             {"estimate", r.estimate}});
  }
  std::printf("\n-- approx_degree bit cost vs k (degree 4096) --\n");
  for (const std::size_t k : {2u, 4u, 8u, 16u, 32u}) {
    const auto f = make_fixture(4097, k);
    Transcript t(k, f.g.n());
    t.set_record_events(false);
    (void)approx_degree(f.players, t, f.sr, SharedTag{0xF1, k, 0}, 0);
    bench::row({{"k", static_cast<double>(k)}, {"bits", static_cast<double>(t.total_bits())}});
    json.row("k_cost", {{"k", static_cast<std::uint64_t>(k)}, {"bits", t.total_bits()}});
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);  // strips --benchmark_* flags first
  const Flags flags(argc, argv);
  bench::configure_threads(flags);
  bench::JsonRows json(flags, "building_blocks");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_bit_cost_table(json);
  return bench::finish(flags);
}

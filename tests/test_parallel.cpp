#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "graph/triangles.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace tft {
namespace {

/// Runs fn under a pool of `threads` workers, restoring the previous
/// default afterwards so tests don't leak pool configuration.
template <typename Fn>
auto with_threads(int threads, Fn&& fn) {
  const int prev = default_threads();
  set_default_threads(threads);
  auto result = fn();
  set_default_threads(prev);
  return result;
}

TEST(Parallel, ForCoversEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 8}) {
    auto counts = with_threads(threads, [] {
      std::vector<std::atomic<int>> hit(1000);
      parallel_for(hit.size(), [&](std::size_t i) { hit[i].fetch_add(1); });
      std::vector<int> out;
      for (const auto& h : hit) out.push_back(h.load());
      return out;
    });
    for (const int c : counts) EXPECT_EQ(c, 1) << "threads=" << threads;
  }
}

TEST(Parallel, ReduceMatchesSerialSum) {
  const std::size_t n = 100000;
  std::uint64_t expect = 0;
  for (std::size_t i = 0; i < n; ++i) expect += i * i;
  for (const int threads : {1, 2, 8}) {
    const auto got = with_threads(threads, [&] {
      return parallel_reduce(
          n, std::uint64_t{0},
          [](std::size_t b, std::size_t e) {
            std::uint64_t s = 0;
            for (std::size_t i = b; i < e; ++i) s += static_cast<std::uint64_t>(i) * i;
            return s;
          },
          [](std::uint64_t a, std::uint64_t b) { return a + b; });
    });
    EXPECT_EQ(got, expect) << "threads=" << threads;
  }
}

TEST(Parallel, ConcurrentOutsideCallersShareTheGlobalPool) {
  // Two threads outside the pool drive regions on the one global pool at
  // once (as concurrent service sessions do); each region must run its own
  // job to completion, so every result equals the serial sum.
  const std::size_t n = 1000;
  std::uint64_t expect = 0;
  for (std::size_t i = 0; i < n; ++i) expect += i * i;
  const int wrong = with_threads(4, [&] {
    std::atomic<int> bad{0};
    const auto caller = [&] {
      for (int r = 0; r < 2000; ++r) {
        const std::uint64_t got = parallel_reduce(
            n, std::uint64_t{0},
            [](std::size_t b, std::size_t e) {
              std::uint64_t s = 0;
              for (std::size_t i = b; i < e; ++i) s += static_cast<std::uint64_t>(i) * i;
              return s;
            },
            [](std::uint64_t a, std::uint64_t b) { return a + b; });
        if (got != expect) bad.fetch_add(1);
      }
    };
    std::thread a(caller);
    std::thread b(caller);
    a.join();
    b.join();
    return bad.load();
  });
  EXPECT_EQ(wrong, 0);
}

TEST(Parallel, FloatReduceIsBitIdenticalAcrossThreadCounts) {
  // The determinism contract: chunking and fold order depend only on
  // (n, grain), so even non-associative float accumulation agrees bitwise.
  const std::size_t n = 37777;
  const auto run = [&](int threads) {
    return with_threads(threads, [&] {
      return parallel_reduce(
          n, 0.0,
          [](std::size_t b, std::size_t e) {
            double s = 0.0;
            for (std::size_t i = b; i < e; ++i) s += std::sin(static_cast<double>(i)) / 3.0;
            return s;
          },
          [](double a, double b) { return a + b; });
    });
  };
  const double at1 = run(1);
  EXPECT_EQ(at1, run(2));
  EXPECT_EQ(at1, run(8));
}

TEST(Parallel, DerivedRngStreamsAreThreadCountInvariant) {
  // Per-trial rngs are a pure function of (seed, trial), so the draws a
  // trial sees cannot depend on scheduling.
  const std::uint64_t seed = 0xFEED;
  std::vector<std::uint64_t> serial(64);
  for (std::size_t t = 0; t < serial.size(); ++t) {
    Rng rng = derive_rng(seed, t);
    serial[t] = rng() ^ rng();
  }
  for (const int threads : {2, 8}) {
    const auto par = with_threads(threads, [&] {
      std::vector<std::uint64_t> out(64);
      parallel_for(
          out.size(),
          [&](std::size_t t) {
            Rng rng = derive_rng(seed, t);
            out[t] = rng() ^ rng();
          },
          /*grain=*/1);
      return out;
    });
    EXPECT_EQ(par, serial) << "threads=" << threads;
  }
}

TEST(Parallel, DistinctTrialsGetDistinctStreams) {
  Rng a = derive_rng(1, 0);
  Rng b = derive_rng(1, 1);
  Rng c = derive_rng(2, 0);
  const std::uint64_t xa = a(), xb = b(), xc = c();
  EXPECT_NE(xa, xb);
  EXPECT_NE(xa, xc);
  EXPECT_NE(xb, xc);
}

TEST(Parallel, NestedParallelCallsDegradeToSerial) {
  const auto got = with_threads(8, [] {
    return parallel_reduce(
        16, std::uint64_t{0},
        [](std::size_t ob, std::size_t oe) {
          std::uint64_t s = 0;
          for (std::size_t i = ob; i < oe; ++i) {
            // Inner call from a worker must not deadlock; it runs serially.
            s += parallel_reduce(
                8, std::uint64_t{0},
                [i](std::size_t b, std::size_t e) {
                  std::uint64_t inner = 0;
                  for (std::size_t j = b; j < e; ++j) inner += i + j;
                  return inner;
                },
                [](std::uint64_t a, std::uint64_t b) { return a + b; });
          }
          return s;
        },
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
  });
  std::uint64_t expect = 0;
  for (std::size_t i = 0; i < 16; ++i)
    for (std::size_t j = 0; j < 8; ++j) expect += i + j;
  EXPECT_EQ(got, expect);
}

TEST(Parallel, CountTrianglesMatchesAtEveryThreadCount) {
  Rng rng(5);
  const Graph random = gen::gnp(600, 0.05, rng);
  const Graph planted = gen::planted_triangles(900, 120, rng);
  const Graph hub = gen::hub_matching(500, 3, rng);
  const Graph dense = gen::gnp(120, 0.9, rng);  // adversarially dense rows
  for (const Graph* g : {&random, &planted, &hub, &dense}) {
    const auto serial = with_threads(1, [&] { return count_triangles(*g); });
    for (const int threads : {2, 8}) {
      EXPECT_EQ(with_threads(threads, [&] { return count_triangles(*g); }), serial)
          << "threads=" << threads;
    }
  }
}

TEST(Parallel, PackingIsThreadCountInvariant) {
  // greedy_triangle_packing is serial by design, but it runs on top of the
  // shared pool configuration; pin down that configuration cannot leak in.
  Rng g_rng(11);
  const Graph g = gen::planted_triangles(600, 150, g_rng);
  const auto at = [&](int threads) {
    return with_threads(threads, [&] {
      Rng rng(3);
      return greedy_triangle_packing(g, rng);
    });
  };
  const auto serial = at(1);
  for (const int threads : {2, 8}) {
    const auto par = at(threads);
    ASSERT_EQ(par.size(), serial.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(par[i].a, serial[i].a);
      EXPECT_EQ(par[i].b, serial[i].b);
      EXPECT_EQ(par[i].c, serial[i].c);
    }
  }
}

TEST(Parallel, ZeroAndTinySizes) {
  for (const int threads : {1, 8}) {
    with_threads(threads, [] {
      parallel_for(0, [](std::size_t) { FAIL() << "fn called for n=0"; });
      std::atomic<int> hits{0};
      parallel_for(1, [&](std::size_t) { hits.fetch_add(1); });
      EXPECT_EQ(hits.load(), 1);
      EXPECT_EQ(parallel_reduce(
                    0, 42, [](std::size_t, std::size_t) { return 0; },
                    [](int a, int b) { return a + b; }),
                42);
      return 0;
    });
  }
}

}  // namespace
}  // namespace tft

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/bits.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stats.h"

namespace tft {
namespace {

TEST(Bits, BitWidth) {
  EXPECT_EQ(bit_width_of(0), 1u);
  EXPECT_EQ(bit_width_of(1), 1u);
  EXPECT_EQ(bit_width_of(2), 2u);
  EXPECT_EQ(bit_width_of(3), 2u);
  EXPECT_EQ(bit_width_of(4), 3u);
  EXPECT_EQ(bit_width_of(255), 8u);
  EXPECT_EQ(bit_width_of(256), 9u);
}

TEST(Bits, VertexAndEdgeBits) {
  EXPECT_EQ(vertex_bits(2), 1u);
  EXPECT_EQ(vertex_bits(1024), 10u);
  EXPECT_EQ(vertex_bits(1025), 11u);
  EXPECT_EQ(edge_bits(1024), 20u);
}

TEST(Bits, CountBits) {
  EXPECT_EQ(count_bits(0), 2u);
  EXPECT_EQ(count_bits(1), 2u);
  EXPECT_EQ(count_bits(7), 4u);
}

TEST(Bits, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(1024), 10u);
  EXPECT_EQ(ceil_log2(1025), 11u);
}

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, BelowIsInRangeAndRoughlyUniform) {
  Rng rng(7);
  std::vector<int> counts(10, 0);
  constexpr int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) {
    const auto v = rng.below(10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, kTrials / 10, 500);  // ~5 sigma
  }
}

TEST(Rng, BelowOne) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(3);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.25) ? 1 : 0;
  EXPECT_NEAR(hits, 2500, 250);
}

TEST(MixHash, DependsOnAllInputs) {
  EXPECT_NE(mix_hash(1, 2, 3), mix_hash(1, 2, 4));
  EXPECT_NE(mix_hash(1, 2, 3), mix_hash(1, 3, 3));
  EXPECT_NE(mix_hash(1, 2, 3), mix_hash(2, 2, 3));
  EXPECT_EQ(mix_hash(5, 6, 7), mix_hash(5, 6, 7));
}

TEST(Summary, MeanVarianceMinMax) {
  Summary s;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_GT(s.ci95(), 0.0);
}

TEST(Summary, EmptyIsSafe) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(LinearFit, ExactLine) {
  const std::vector<double> xs{1, 2, 3, 4};
  const std::vector<double> ys{3, 5, 7, 9};  // y = 1 + 2x
  const auto fit = linear_fit(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(LogLogFit, RecoversPowerLawExponent) {
  std::vector<double> xs, ys;
  for (double x = 64; x <= 65536; x *= 2) {
    xs.push_back(x);
    ys.push_back(3.7 * std::pow(x, 0.25));
  }
  const auto fit = loglog_fit(xs, ys);
  EXPECT_NEAR(fit.slope, 0.25, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(LogLogFit, NoisyExponentWithinTolerance) {
  Rng rng(11);
  std::vector<double> xs, ys;
  for (double x = 256; x <= 262144; x *= 2) {
    xs.push_back(x);
    ys.push_back(std::pow(x, 0.5) * (0.9 + 0.2 * rng.uniform()));
  }
  const auto fit = loglog_fit(xs, ys);
  EXPECT_NEAR(fit.slope, 0.5, 0.05);
}

TEST(SuccessRate, WilsonBounds) {
  SuccessRate r;
  r.successes = 90;
  r.trials = 100;
  EXPECT_NEAR(r.rate(), 0.9, 1e-12);
  EXPECT_LT(r.wilson_low(), 0.9);
  EXPECT_GT(r.wilson_high(), 0.9);
  EXPECT_GT(r.wilson_low(), 0.80);
  EXPECT_LT(r.wilson_high(), 0.97);
}

TEST(SuccessRate, EmptyIsSafe) {
  SuccessRate r;
  EXPECT_EQ(r.rate(), 0.0);
  EXPECT_EQ(r.wilson_low(), 0.0);
  EXPECT_EQ(r.wilson_high(), 1.0);
}

TEST(Flags, ParsesKeyValuePairs) {
  const char* argv[] = {"prog", "--n=128", "--gamma=0.25", "--name=hello", "--verbose"};
  Flags flags(5, const_cast<char**>(argv));
  EXPECT_EQ(flags.get_int("n", 0), 128);
  EXPECT_DOUBLE_EQ(flags.get_double("gamma", 0.0), 0.25);
  EXPECT_EQ(flags.get_string("name", ""), "hello");
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_EQ(flags.get_int("missing", 7), 7);
  EXPECT_FALSE(flags.has("missing"));
  EXPECT_TRUE(flags.unread().empty());

  // A value must parse completely, or the getter throws naming the key.
  const char* bad[] = {"prog",        "--n=2e3",      "--x=12abc",  "--gamma=0.25x",
                       "--chunked=on", "--ok=false",  "--big=99999999999999999999",
                       "--kernal=scalar", "--seen"};
  Flags strict(9, const_cast<char**>(bad));
  const auto throws_naming = [](auto&& get, const std::string& key) {
    try {
      get();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what()).find("--" + key + "=") != std::string::npos;
    }
    return false;
  };
  EXPECT_TRUE(throws_naming([&] { (void)strict.get_int("n", 0); }, "n"));
  EXPECT_TRUE(throws_naming([&] { (void)strict.get_int("x", 0); }, "x"));
  EXPECT_TRUE(throws_naming([&] { (void)strict.get_int("big", 0); }, "big"));
  EXPECT_TRUE(throws_naming([&] { (void)strict.get_double("gamma", 0.0); }, "gamma"));
  EXPECT_TRUE(throws_naming([&] { (void)strict.get_bool("chunked", false); }, "chunked"));
  EXPECT_DOUBLE_EQ(strict.get_double("n", 0.0), 2000.0);  // a float may use an exponent
  EXPECT_FALSE(strict.get_bool("ok", true));
  EXPECT_TRUE(strict.has("seen"));

  // Keys no getter or `has` read are reported, in key order.
  EXPECT_EQ(strict.unread(), std::vector<std::string>{"kernal"});
}

}  // namespace
}  // namespace tft

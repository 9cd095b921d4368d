#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "comm/cost.h"
#include "comm/model.h"
#include "comm/shared_randomness.h"
#include "comm/transcript.h"

namespace tft {
namespace {

TEST(CostMeter, Accumulates) {
  CostMeter m;
  m.add_flag();
  m.add_vertex(1024);
  m.add_edge(1024);
  m.add_edges(1024, 3);
  m.add_count(7);
  EXPECT_EQ(m.bits(), 1u + 10 + 20 + 60 + 4);
  m.reset();
  EXPECT_EQ(m.bits(), 0u);
}

TEST(Transcript, PerPlayerAndDirectionTallies) {
  Transcript t(3, 1024);
  t.charge(0, Direction::kPlayerToCoordinator, 10, 1);
  t.charge(1, Direction::kPlayerToCoordinator, 20, 1);
  t.charge(0, Direction::kCoordinatorToPlayer, 5, 2);
  EXPECT_EQ(t.total_bits(), 35u);
  EXPECT_EQ(t.upstream_bits(), 30u);
  EXPECT_EQ(t.downstream_bits(), 5u);
  EXPECT_EQ(t.player_bits(0), 15u);
  EXPECT_EQ(t.player_bits(2), 0u);
  EXPECT_EQ(t.upstream_messages(0), 1u);
  EXPECT_EQ(t.downstream_messages(0), 1u);
  EXPECT_EQ(t.phase_bits(1), 30u);
  EXPECT_EQ(t.phase_bits(2), 5u);
  EXPECT_EQ(t.events().size(), 3u);
}

TEST(Transcript, BroadcastChargesEveryPlayer) {
  Transcript t(4, 16);
  t.charge_broadcast(7, 3);
  EXPECT_EQ(t.total_bits(), 28u);
  for (std::size_t j = 0; j < 4; ++j) EXPECT_EQ(t.downstream_bits(j), 7u);
}

TEST(Transcript, ConvenienceChargesUseUniverse) {
  Transcript t(1, 1024);
  t.charge_vertex(0, Direction::kPlayerToCoordinator);
  EXPECT_EQ(t.total_bits(), 10u);
  t.charge_edges(0, Direction::kPlayerToCoordinator, 2);
  EXPECT_EQ(t.total_bits(), 50u);
}

TEST(Transcript, OutOfRangePlayerThrows) {
  Transcript t(2, 16);
  EXPECT_THROW(t.charge(2, Direction::kPlayerToCoordinator, 1), std::out_of_range);
}

TEST(Transcript, BroadcastEmitsOneEventPerPlayerInOrder) {
  Transcript t(3, 16);
  t.charge_broadcast(5, 2);
  ASSERT_EQ(t.events().size(), 3u);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(t.events()[j].player, j);
    EXPECT_EQ(t.events()[j].direction, Direction::kCoordinatorToPlayer);
    EXPECT_EQ(t.events()[j].bits, 5u);
    EXPECT_EQ(t.events()[j].phase, 2u);
    EXPECT_EQ(t.downstream_messages(j), 1u);
  }
  EXPECT_EQ(t.phase_bits(2), 15u);
}

TEST(Transcript, PhaseBitsTrackEveryTagIndependently) {
  Transcript t(2, 16);
  t.charge(0, Direction::kPlayerToCoordinator, 3, 0);
  t.charge(1, Direction::kPlayerToCoordinator, 4, 5);
  t.charge_broadcast(2, 5);
  EXPECT_EQ(t.phase_bits(0), 3u);
  EXPECT_EQ(t.phase_bits(5), 8u);   // 4 up + 2*2 broadcast
  EXPECT_EQ(t.phase_bits(1), 0u);   // untouched phase
  EXPECT_EQ(t.phase_bits(99), 0u);  // never-charged phase is 0, not UB
  EXPECT_EQ(t.num_phases(), 6u);
}

TEST(Transcript, DisablingEventRecordingKeepsTallies) {
  Transcript t(2, 16);
  t.set_record_events(false);
  EXPECT_FALSE(t.record_events());
  t.charge(0, Direction::kPlayerToCoordinator, 10, 1);
  t.charge_broadcast(3, 2);
  EXPECT_TRUE(t.events().empty());
  EXPECT_EQ(t.total_bits(), 16u);
  EXPECT_EQ(t.upstream_messages(0), 1u);
  EXPECT_EQ(t.phase_bits(1), 10u);
  EXPECT_EQ(t.phase_bits(2), 6u);
}

TEST(Transcript, MergeOfNonRecordingPartialsPreservesPhaseTotals) {
  // Parallel engines build partial transcripts with recording off and fold
  // them into one; every tally and per-phase total must survive the merge.
  Transcript a(2, 16);
  a.set_record_events(false);
  a.charge(0, Direction::kPlayerToCoordinator, 10, 1);
  a.charge(1, Direction::kCoordinatorToPlayer, 4, 3);

  Transcript b(2, 16);
  b.set_record_events(false);
  b.charge(0, Direction::kPlayerToCoordinator, 7, 1);
  b.charge(1, Direction::kPlayerToCoordinator, 2, 4);

  Transcript total(2, 16);
  total.merge(a);
  total.merge(b);
  EXPECT_EQ(total.total_bits(), 23u);
  EXPECT_EQ(total.upstream_bits(0), 17u);
  EXPECT_EQ(total.upstream_messages(0), 2u);
  EXPECT_EQ(total.downstream_bits(1), 4u);
  EXPECT_EQ(total.phase_bits(1), 17u);
  EXPECT_EQ(total.phase_bits(3), 4u);
  EXPECT_EQ(total.phase_bits(4), 2u);
  EXPECT_EQ(total.num_phases(), 5u);
  EXPECT_TRUE(total.events().empty());  // partials recorded nothing
}

TEST(Transcript, MergeAppendsRecordedEvents) {
  Transcript a(2, 16);
  a.charge(0, Direction::kPlayerToCoordinator, 1, 0);
  Transcript b(2, 16);
  b.charge(1, Direction::kPlayerToCoordinator, 2, 1);
  a.merge(b);
  ASSERT_EQ(a.events().size(), 2u);
  EXPECT_EQ(a.events()[1].player, 1u);
  EXPECT_EQ(a.events()[1].bits, 2u);
}

TEST(Transcript, MergeRejectsMismatchedShapes) {
  Transcript a(2, 16);
  const Transcript other_k(3, 16);
  const Transcript other_n(2, 32);
  EXPECT_THROW(a.merge(other_k), std::invalid_argument);
  EXPECT_THROW(a.merge(other_n), std::invalid_argument);
}

TEST(SharedRandomness, DeterministicAcrossInstances) {
  const SharedRandomness a(99);
  const SharedRandomness b(99);
  const SharedTag tag{1, 2, 3};
  for (std::uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(a.value(tag, i), b.value(tag, i));
    EXPECT_EQ(a.bernoulli(tag, i, 0.3), b.bernoulli(tag, i, 0.3));
  }
}

TEST(SharedRandomness, DifferentTagsDiffer) {
  const SharedRandomness sr(7);
  int same = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    if (sr.value(SharedTag{1, 0, 0}, i) == sr.value(SharedTag{2, 0, 0}, i)) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(SharedRandomness, PermutationIsTotalOrder) {
  const SharedRandomness sr(13);
  const SharedTag tag{5, 0, 0};
  // Antisymmetry + totality on a sample of pairs.
  for (std::uint64_t u = 0; u < 20; ++u) {
    for (std::uint64_t v = 0; v < 20; ++v) {
      if (u == v) continue;
      EXPECT_NE(sr.precedes(tag, u, v), sr.precedes(tag, v, u));
    }
  }
}

TEST(SharedRandomness, PermutationMinIsUniform) {
  // The argmin of the priority over a fixed set should be uniform across
  // tags: the basis of Algorithm 1's unbiasedness.
  const SharedRandomness sr(21);
  std::vector<int> wins(8, 0);
  for (std::uint64_t trial = 0; trial < 8000; ++trial) {
    const SharedTag tag{trial, 1, 0};
    std::uint64_t best = 0;
    for (std::uint64_t v = 1; v < 8; ++v) {
      if (sr.precedes(tag, v, best)) best = v;
    }
    ++wins[best];
  }
  for (const int w : wins) EXPECT_NEAR(w, 1000, 150);
}

TEST(SharedRandomness, BernoulliRate) {
  const SharedRandomness sr(31);
  const SharedTag tag{9, 0, 0};
  int hits = 0;
  for (std::uint64_t v = 0; v < 20000; ++v) hits += sr.bernoulli(tag, v, 0.1) ? 1 : 0;
  EXPECT_NEAR(hits, 2000, 200);
  EXPECT_FALSE(sr.bernoulli(tag, 0, 0.0));
  EXPECT_TRUE(sr.bernoulli(tag, 0, 1.0));
}

TEST(SharedRandomness, UniformVertexInRange) {
  const SharedRandomness sr(41);
  std::vector<int> counts(5, 0);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    const auto v = sr.uniform_vertex(SharedTag{3, 0, 0}, i, 5);
    ASSERT_LT(v, 5u);
    ++counts[v];
  }
  for (const int c : counts) EXPECT_NEAR(c, 2000, 220);
}

TEST(SharedRandomness, SampleVerticesMatchesBernoulli) {
  const SharedRandomness sr(51);
  const SharedTag tag{77, 0, 0};
  const auto sample = sr.sample_vertices(tag, 1000, 0.2);
  EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
  for (const auto v : sample) EXPECT_TRUE(sr.bernoulli(tag, v, 0.2));
  EXPECT_NEAR(static_cast<double>(sample.size()), 200.0, 60.0);
  EXPECT_TRUE(sr.sample_vertices(tag, 1000, std::numeric_limits<double>::quiet_NaN()).empty());
}

// ---- shared coins against the reference formula ----------------------------

/// mix_hash as first written, round by round, so the hoisted stream is
/// checked against the formula rather than against itself.
std::uint64_t reference_mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t s = fmix64(a + 0x9e3779b97f4a7c15ULL);
  s = fmix64(s ^ (b + 0x9e3779b97f4a7c15ULL));
  return fmix64(s ^ (c + 0x94d049bb133111ebULL));
}

std::uint64_t reference_value(std::uint64_t seed, SharedTag tag, std::uint64_t index) {
  return reference_mix(reference_mix(seed, tag.a, tag.b), tag.c, index);
}

/// The real-valued coin: also false for p <= 0 and NaN, true for p >= 1.
bool reference_coin(std::uint64_t h, double p) {
  return static_cast<double>(h >> 11) * 0x1.0p-53 < p;
}

/// fmix64 is a bijection: undo its xor-shifts and odd multiplications.
std::uint64_t undo_xorshift(std::uint64_t z, int shift) {
  std::uint64_t x = z;
  for (int i = 0; i <= 64 / shift; ++i) x = z ^ (x >> shift);
  return x;
}

std::uint64_t inverse_mod_2_64(std::uint64_t odd) {
  std::uint64_t x = odd;  // correct to 3 bits; each Newton step doubles that
  for (int i = 0; i < 5; ++i) x *= 2 - odd * x;
  return x;
}

std::uint64_t inverse_fmix64(std::uint64_t z) {
  z = undo_xorshift(z, 31);
  z *= inverse_mod_2_64(0x94d049bb133111ebULL);
  z = undo_xorshift(z, 27);
  z *= inverse_mod_2_64(0xbf58476d1ce4e5b9ULL);
  return undo_xorshift(z, 30);
}

/// The index whose reference value under (seed, tag) is exactly h, so a
/// test can put a coin's 53 bits anywhere it likes.
std::uint64_t index_with_value(std::uint64_t seed, SharedTag tag, std::uint64_t h) {
  const std::uint64_t outer = reference_mix(seed, tag.a, tag.b);
  const std::uint64_t prefix =
      fmix64(fmix64(outer + 0x9e3779b97f4a7c15ULL) ^ (tag.c + 0x9e3779b97f4a7c15ULL));
  return (inverse_fmix64(h) ^ prefix) - 0x94d049bb133111ebULL;
}

/// Probabilities at the coin's edges: signed zero, NaN, the smallest
/// denormal, one step either side of 0 and 1, exact multiples of 2^-53, and
/// values whose scaled form is not an integer.
std::vector<double> edge_probabilities() {
  return {0.0,
          -0.0,
          std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::denorm_min(),
          0x1.0p-53,
          3 * 0x1.0p-53,
          12345 * 0x1.0p-53,
          0x1.0p-20,
          0.25,
          0.5,
          std::nextafter(0.5, 0.0),
          0.1,
          1.0 / 3.0,
          1.0 - 0x1.0p-53,
          1.0,
          1.5,
          -1.0,
          std::numeric_limits<double>::infinity()};
}

TEST(SharedCoin, MatchesTheReferenceFormula) {
  Rng rng(0xC011);
  std::vector<double> ps = edge_probabilities();
  for (int i = 0; i < 8; ++i) ps.push_back(rng.uniform());
  for (int trial = 0; trial < 64; ++trial) {
    const std::uint64_t seed = rng();
    const SharedTag tag{rng(), rng(), rng()};
    const SharedRandomness sr(seed);
    const SharedStream stream = sr.stream(tag);
    for (int j = 0; j < 32; ++j) {
      const std::uint64_t index = j < 16 ? static_cast<std::uint64_t>(j) : rng();
      const std::uint64_t h = reference_value(seed, tag, index);
      ASSERT_EQ(sr.value(tag, index), h);
      ASSERT_EQ(sr.priority(tag, index), h);
      ASSERT_EQ(stream.value(index), h);
      const std::uint64_t other = rng();
      const std::uint64_t h_other = reference_value(seed, tag, other);
      const bool before = h != h_other ? h < h_other : index < other;
      ASSERT_EQ(sr.precedes(tag, index, other), before);
      for (const double p : ps) {
        ASSERT_EQ(sr.coin(tag, p)(index), reference_coin(h, p)) << "p=" << p;
        ASSERT_EQ(sr.bernoulli(tag, index, p), reference_coin(h, p)) << "p=" << p;
      }
    }
  }
}

/// Random indices almost never land next to the threshold, so build the
/// indices whose 53 coin bits sit exactly on either side of p * 2^53.
TEST(SharedCoin, AgreesWithTheReferenceAtTheThreshold) {
  Rng rng(0x7E5);
  constexpr std::uint64_t kTop = std::uint64_t{1} << 53;
  std::vector<double> ps = edge_probabilities();
  for (int i = 0; i < 32; ++i) ps.push_back(rng.uniform());
  for (int i = 0; i < 32; ++i) ps.push_back(static_cast<double>(rng.below(kTop)) * 0x1.0p-53);
  const std::uint64_t seed = 0xFEED;
  const SharedTag tag{5, 6, 7};
  const SharedRandomness sr(seed);
  for (const double p : ps) {
    std::vector<std::uint64_t> tops{0, 1, kTop - 2, kTop - 1};
    if (p > 0.0 && p < 1.0) {
      const auto floor_scaled = static_cast<std::uint64_t>(std::floor(p * 0x1.0p53));
      for (std::uint64_t d = 0; d < 3; ++d) {
        if (floor_scaled + d >= 1) tops.push_back(floor_scaled + d - 1);
      }
    }
    const SharedCoin coin = sr.coin(tag, p);
    for (const std::uint64_t top : tops) {
      if (top >= kTop) continue;
      const std::uint64_t h = (top << 11) | rng.below(1 << 11);
      const std::uint64_t index = index_with_value(seed, tag, h);
      ASSERT_EQ(sr.value(tag, index), h) << "index construction";
      EXPECT_EQ(coin(index), reference_coin(h, p)) << "p=" << p << " top=" << top;
    }
  }
}

TEST(CommModel, EveryTagHasAName) {
  // Exhaustive: a new enumerator must get a string (the "?" fallthrough is
  // an assertion failure in debug builds, not a reachable return).
  EXPECT_STREQ(to_string(CommModel::kCoordinator), "coordinator");
  EXPECT_STREQ(to_string(CommModel::kSimultaneous), "simultaneous");
  EXPECT_STREQ(to_string(CommModel::kOneWay), "one-way");
  EXPECT_STREQ(to_string(CommModel::kBlackboard), "blackboard");
}

}  // namespace
}  // namespace tft

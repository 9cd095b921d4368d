// The sharded servicer's determinism contract: every session's accounting
// is a pure function of its charge stream, so the shard count — and the
// shard a session lands on — must never move a single counter. The suite
// pins the 1-shard fleet's counters to literals, replays the same fleet at
// num_shards 2 / 4 and demands bit-exact per-session WireStats
// (virtual_time_us excluded: the logical clock's final value depends on how
// many sessions share its jumps), pins sessions with shard_affinity without
// perturbing a byte, checks that neither one shard nor empty shards wedge
// the quiescence hub, and reruns the crash-chaos grammar at 4 shards
// against the 1-shard clean baseline.
//
// Every virtual-clock servicer advances time through the hub, one shard
// included, so these tests also run under TSan in CI (the NetShard.* cell):
// the hub barrier and its bounded waits are exactly the code TSan should
// chew on.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <optional>
#include <thread>
#include <vector>

#include "chaos.h"
#include "net/error.h"
#include "net/fault.h"
#include "net/servicer.h"
#include "net/transport.h"

namespace tft::net {
namespace {

SharedServicer::Options shard_options(std::size_t num_shards) {
  SharedServicer::Options opts;
  opts.virtual_clock = true;
  opts.num_shards = num_shards;
  return opts;
}

/// A lossy-but-survivable plan: enough drops and corruption to force
/// retransmissions, whose fates are keyed on (session, link, seq, attempt)
/// and must therefore replay identically at any shard count.
FaultPlan lossy_plan() {
  FaultPlan plan;
  plan.seed = 41;
  plan.drop = 0.15;
  plan.bit_flip = 0.10;
  return plan;
}

/// Drive one session through three phases with salts folded into the bit
/// widths, so every session's expected totals are distinct.
WireStats drive(SharedServicer& servicer, std::size_t sidx, std::uint64_t salt) {
  for (std::uint64_t phase = 0; phase < 3; ++phase) {
    for (std::size_t player = 0; player < 3; ++player) {
      servicer.session_charge(sidx, player, /*upstream=*/true, 48 + salt + phase, phase);
      servicer.session_charge(sidx, player, /*upstream=*/false, 16 + salt, phase);
    }
  }
  servicer.session_flush(sidx);
  const WireStats w = servicer.close_session(sidx);
  servicer.rethrow_session_error(sidx);
  return w;
}

/// Run a fleet of `kSessions` concurrently driven sessions and return their
/// per-session stats in session order. `affinity` 0 = hash placement.
std::vector<WireStats> run_fleet(std::size_t num_shards, std::uint32_t affinity,
                                 bool faulty = true) {
  constexpr std::size_t kSessions = 8;
  InProcTransport transport;
  SharedServicer servicer(shard_options(num_shards));
  servicer.start();

  std::vector<std::size_t> sidx(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    SharedServicer::SessionOptions so;
    so.num_players = 3;
    so.session_id = static_cast<std::uint32_t>(s + 1);
    so.shard_affinity = affinity;
    if (faulty) so.faults = lossy_plan();
    sidx[s] = servicer.open_session(transport, so);
  }

  std::vector<WireStats> stats(kSessions);
  std::vector<std::thread> drivers;
  drivers.reserve(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    drivers.emplace_back([&, s] { stats[s] = drive(servicer, sidx[s], 5 * s); });
  }
  for (auto& t : drivers) t.join();
  servicer.finish();
  servicer.rethrow_error();
  return stats;
}

/// Every WireStats field EXCEPT virtual_time_us — the one counter that is
/// deliberately outside the cross-shard determinism contract (the hub's
/// merged clock and a solo shard's clock may disagree; see test_net_arq).
void expect_stats_identical(const WireStats& a, const WireStats& b) {
  EXPECT_EQ(a.up_bits, b.up_bits);
  EXPECT_EQ(a.down_bits, b.down_bits);
  EXPECT_EQ(a.up_msgs, b.up_msgs);
  EXPECT_EQ(a.down_msgs, b.down_msgs);
  EXPECT_EQ(a.phase_bits, b.phase_bits);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.duplicates, b.duplicates);
  EXPECT_EQ(a.corrupt_frames, b.corrupt_frames);
  EXPECT_EQ(a.acks, b.acks);
  EXPECT_EQ(a.frames_delivered, b.frames_delivered);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.player_down_frames, b.player_down_frames);
  EXPECT_EQ(a.resume_frames, b.resume_frames);
  EXPECT_EQ(a.replayed_charges, b.replayed_charges);
}

/// The fault-dependent counters of run_fleet(1, 0), per session, as the
/// 1-shard servicer produced them under its own quiescence rule, before
/// every virtual-clock servicer advanced time through the hub.
struct FleetCounters {
  std::uint64_t wire_bytes;
  std::uint64_t retransmissions;
  std::uint64_t duplicates;
  std::uint64_t corrupt_frames;
  std::uint64_t acks;
  std::uint64_t frames_delivered;
};
constexpr FleetCounters kPinnedOneShardFleet[] = {
    {371, 2, 0, 2, 18, 18},  {451, 13, 0, 6, 18, 18}, {405, 5, 0, 2, 18, 18},
    {457, 7, 0, 4, 18, 18},  {455, 7, 0, 3, 18, 18},  {466, 9, 0, 3, 18, 18},
    {451, 5, 0, 2, 18, 18},  {454, 4, 0, 1, 18, 18},
};

/// Every field but virtual_time_us against the pinned fleet. The bit and
/// message tallies are a pure function of drive()'s charges (salt 5s, one
/// message per player, direction and phase); the rest are the literals.
void expect_pinned_fleet(const std::vector<WireStats>& fleet) {
  ASSERT_EQ(fleet.size(), std::size(kPinnedOneShardFleet));
  for (std::size_t s = 0; s < fleet.size(); ++s) {
    SCOPED_TRACE("session " + std::to_string(s + 1));
    const WireStats& w = fleet[s];
    const FleetCounters& want = kPinnedOneShardFleet[s];
    const std::uint64_t salt = 5 * s;
    const std::uint64_t up = 48 + salt;
    const std::uint64_t down = 16 + salt;
    EXPECT_EQ(w.up_bits, std::vector<std::uint64_t>(3, 3 * up + 3));  // phases add 0 + 1 + 2
    EXPECT_EQ(w.down_bits, std::vector<std::uint64_t>(3, 3 * down));
    EXPECT_EQ(w.up_msgs, std::vector<std::uint64_t>(3, 3));
    EXPECT_EQ(w.down_msgs, std::vector<std::uint64_t>(3, 3));
    EXPECT_EQ(w.phase_bits, (std::vector<std::uint64_t>{3 * (up + down), 3 * (up + 1 + down),
                                                        3 * (up + 2 + down)}));
    EXPECT_EQ(w.wire_bytes, want.wire_bytes);
    EXPECT_EQ(w.retransmissions, want.retransmissions);
    EXPECT_EQ(w.duplicates, want.duplicates);
    EXPECT_EQ(w.corrupt_frames, want.corrupt_frames);
    EXPECT_EQ(w.acks, want.acks);
    EXPECT_EQ(w.frames_delivered, want.frames_delivered);
    EXPECT_EQ(w.crashes, 0u);
    EXPECT_EQ(w.player_down_frames, 0u);
    EXPECT_EQ(w.resume_frames, 0u);
    EXPECT_EQ(w.replayed_charges, 0u);
  }
}

TEST(NetShard, StatsBitIdenticalAcrossShardCounts) {
  const std::vector<WireStats> one = run_fleet(1, /*affinity=*/0);
  {
    SCOPED_TRACE("num_shards 1 against the pinned fleet");
    expect_pinned_fleet(one);
  }
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("num_shards " + std::to_string(shards));
    const std::vector<WireStats> many = run_fleet(shards, /*affinity=*/0);
    ASSERT_EQ(many.size(), one.size());
    for (std::size_t s = 0; s < one.size(); ++s) {
      SCOPED_TRACE("session " + std::to_string(s + 1));
      expect_stats_identical(many[s], one[s]);
    }
  }
  // The plan actually bit: a clean fleet must differ somewhere, or the
  // cross-shard comparison above proved nothing about fault fates.
  std::uint64_t retransmissions = 0;
  for (const WireStats& w : one) retransmissions += w.retransmissions;
  EXPECT_GT(retransmissions, 0u) << "lossy_plan too tame to exercise fault determinism";
}

TEST(NetShard, AffinityPinsPlacementWithoutPerturbingAByte) {
  const std::vector<WireStats> hashed = run_fleet(4, /*affinity=*/0);
  // Pin the whole fleet onto shard 2 of 4: placement changes, bytes don't.
  const std::vector<WireStats> pinned = run_fleet(4, /*affinity=*/3);
  ASSERT_EQ(pinned.size(), hashed.size());
  for (std::size_t s = 0; s < hashed.size(); ++s) {
    SCOPED_TRACE("session " + std::to_string(s + 1));
    expect_stats_identical(pinned[s], hashed[s]);
  }
}

/// Shards with no sessions must publish idle laps into the quiescence hub,
/// or one busy shard could never advance the virtual clock. One session on
/// a 4-shard servicer leaves three shards permanently empty; at 1 shard the
/// hub has a single slot, which must advance on its own. A lossy plan
/// forces timeout-driven retransmissions, which only fire if the clock
/// keeps advancing past retry deadlines.
TEST(NetShard, EmptyShardsDoNotWedgeTheVirtualClock) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("num_shards " + std::to_string(shards));
    InProcTransport transport;
    SharedServicer servicer(shard_options(shards));
    servicer.start();
    SharedServicer::SessionOptions so;
    so.num_players = 3;
    so.session_id = 7;
    so.faults = lossy_plan();
    const std::size_t sidx = servicer.open_session(transport, so);
    const WireStats w = drive(servicer, sidx, 2);
    servicer.finish();
    servicer.rethrow_error();
    EXPECT_GT(w.payload_bits(), 0u);
    EXPECT_GT(w.retransmissions, 0u) << "the clock never reached a retry deadline";
  }
}

/// Sessions whose links black-hole every frame still fail typed — and only
/// them — whether their corpse shares the one shard with healthy neighbors
/// or sits on a shard of its own.
TEST(NetShard, FailureContainmentHoldsAcrossShards) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("num_shards " + std::to_string(shards));
    InProcTransport transport;
    SharedServicer servicer(shard_options(shards));
    servicer.start();

    SharedServicer::SessionOptions faulty;
    faulty.num_players = 3;
    faulty.session_id = 1;
    FaultPlan black_hole;
    black_hole.seed = 7;
    black_hole.drop = 1.0;
    faulty.faults = black_hole;
    const std::size_t bad = servicer.open_session(transport, faulty);

    std::vector<std::size_t> good(3);
    for (std::size_t s = 0; s < good.size(); ++s) {
      SharedServicer::SessionOptions clean;
      clean.num_players = 3;
      clean.session_id = static_cast<std::uint32_t>(s + 2);
      good[s] = servicer.open_session(transport, clean);
    }

    std::optional<NetErrorKind> bad_kind;
    std::vector<WireStats> good_w(good.size());
    std::vector<std::thread> drivers;
    drivers.emplace_back([&] {
      try {
        (void)drive(servicer, bad, 0);
      } catch (const NetError& e) {
        bad_kind = e.kind();
      }
      (void)servicer.close_session(bad);
    });
    for (std::size_t s = 0; s < good.size(); ++s) {
      drivers.emplace_back([&, s] { good_w[s] = drive(servicer, good[s], 3 + s); });
    }
    for (auto& t : drivers) t.join();
    servicer.finish();
    servicer.rethrow_error();

    ASSERT_TRUE(bad_kind.has_value()) << "a 100% lossy session must fail typed";
    EXPECT_EQ(*bad_kind, NetErrorKind::kTimeout);
    for (const WireStats& w : good_w) EXPECT_GT(w.payload_bits(), 0u);
  }
}

/// The crash-chaos grammar at 4 shards: kill a player at the boundary, the
/// middle and the last charge of its busiest phase, and demand the
/// recovered 4-shard run is indistinguishable from the 1-shard clean run.
TEST(NetShard, CrashReplayAtFourShardsMatchesOneShardCleanRun) {
  chaos::Scenario clean_s;
  clean_s.k = 3;
  clean_s.model = CommModel::kCoordinator;
  const chaos::Baseline clean = chaos::clean_run(clean_s);

  chaos::Scenario sharded = clean_s;
  sharded.num_shards = 4;

  // Player 1's busiest phase, three interesting offsets.
  const auto& per = clean.counts.at(1);
  std::uint64_t busiest = 0;
  for (std::uint64_t ph = 0; ph < per.size(); ++ph) {
    if (per[ph] > per[busiest]) busiest = ph;
  }
  ASSERT_GT(per[busiest], 0u);
  for (const std::uint64_t off : chaos::interesting_offsets(per[busiest])) {
    const CrashEvent e{1, busiest, off};
    const auto d = chaos::run_with_crash(sharded, e, clean);
    EXPECT_FALSE(d.has_value()) << *d;
  }
}

/// Session handles are shard-encoded, but slot reuse must still hold per
/// shard: a pinned fleet opened and closed repeatedly stays at its peak
/// link footprint.
TEST(NetShard, LinkSlotsAreReusedPerShard) {
  InProcTransport transport;
  SharedServicer servicer(shard_options(2));
  servicer.start();
  for (std::uint32_t round = 0; round < 4; ++round) {
    for (std::uint32_t s = 0; s < 2; ++s) {
      SharedServicer::SessionOptions so;
      so.num_players = 3;
      so.session_id = 100 + s;
      const std::size_t sidx = servicer.open_session(transport, so);
      (void)drive(servicer, sidx, s);
    }
    // One session per shard (ids 100, 101 hash apart at 2 shards), 6 links
    // each: the table must not grow after the first round.
    EXPECT_EQ(servicer.num_links(), 12u);
  }
  servicer.finish();
}

}  // namespace
}  // namespace tft::net

// The SharedServicer session table: many concurrent sessions over ONE
// transport and ONE servicer thread, each with its own links, accounting,
// fault fates and failure domain. Covers the service-runtime invariants the
// coordinator builds on: per-session exactness under concurrency, byte
// parity with a solo run, failure containment (no head-of-line blocking
// across sessions), and link-slot reclamation at close.

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "net/error.h"
#include "net/runtime.h"
#include "net/servicer.h"
#include "net/transport.h"
#include "util/bits.h"

namespace tft::net {
namespace {

SharedServicer::Options vclock_options() {
  SharedServicer::Options opts;
  opts.virtual_clock = true;
  return opts;
}

/// Drive one session through a fixed two-phase charge pattern whose totals
/// are a pure function of `salt`, then close it.
WireStats drive_session(SharedServicer& servicer, std::size_t sidx, std::uint64_t salt) {
  for (std::size_t player = 0; player < 2; ++player) {
    servicer.session_charge(sidx, player, /*upstream=*/true, 64 + salt, /*phase=*/0);
    servicer.session_charge(sidx, player, /*upstream=*/false, 32 + salt, /*phase=*/0);
  }
  servicer.session_charge(sidx, 0, /*upstream=*/true, 7 + salt, /*phase=*/1);
  servicer.session_flush(sidx);
  const WireStats w = servicer.close_session(sidx);
  servicer.rethrow_session_error(sidx);
  return w;
}

std::uint64_t expected_payload_bits(std::uint64_t salt) {
  return 2 * (64 + salt) + 2 * (32 + salt) + (7 + salt);
}

TEST(NetMultiSession, ConcurrentSessionsStayIndependentlyExact) {
  InProcTransport transport;
  SharedServicer servicer(vclock_options());
  servicer.start();

  constexpr std::size_t kSessions = 3;
  std::vector<std::size_t> sidx(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    SharedServicer::SessionOptions so;
    so.num_players = 2;
    so.session_id = static_cast<std::uint32_t>(s + 1);
    sidx[s] = servicer.open_session(transport, so);
  }

  std::vector<WireStats> stats(kSessions);
  std::vector<std::thread> drivers;
  drivers.reserve(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    drivers.emplace_back([&, s] { stats[s] = drive_session(servicer, sidx[s], 10 * s); });
  }
  for (auto& t : drivers) t.join();
  servicer.finish();
  servicer.rethrow_error();

  for (std::size_t s = 0; s < kSessions; ++s) {
    SCOPED_TRACE(s);
    EXPECT_EQ(stats[s].payload_bits(), expected_payload_bits(10 * s));
    EXPECT_EQ(stats[s].messages(), 5u);
    EXPECT_EQ(stats[s].retransmissions, 0u);
    EXPECT_EQ(stats[s].corrupt_frames, 0u);
  }
}

TEST(NetMultiSession, MultiplexedSessionMatchesItsSoloRunByteForByte) {
  const auto run_solo = [](std::uint32_t id) {
    InProcTransport transport;
    SharedServicer servicer(vclock_options());
    servicer.start();
    SharedServicer::SessionOptions so;
    so.num_players = 2;
    so.session_id = id;
    const std::size_t sidx = servicer.open_session(transport, so);
    const WireStats w = drive_session(servicer, sidx, /*salt=*/4);
    servicer.finish();
    return w;
  };
  const WireStats solo = run_solo(5);

  // The same session multiplexed next to a busy neighbor: its wire is keyed
  // by (session, link, seq), so the neighbor must not perturb a byte.
  InProcTransport transport;
  SharedServicer servicer(vclock_options());
  servicer.start();
  SharedServicer::SessionOptions so;
  so.num_players = 2;
  so.session_id = 5;
  const std::size_t five = servicer.open_session(transport, so);
  SharedServicer::SessionOptions other;
  other.num_players = 2;
  other.session_id = 9;
  const std::size_t nine = servicer.open_session(transport, other);

  WireStats five_w;
  WireStats nine_w;
  std::thread a([&] { five_w = drive_session(servicer, five, /*salt=*/4); });
  std::thread b([&] { nine_w = drive_session(servicer, nine, /*salt=*/21); });
  a.join();
  b.join();
  servicer.finish();
  servicer.rethrow_error();

  EXPECT_EQ(five_w.wire_bytes, solo.wire_bytes);
  EXPECT_EQ(five_w.payload_bits(), solo.payload_bits());
  EXPECT_EQ(five_w.up_bits, solo.up_bits);
  EXPECT_EQ(five_w.down_bits, solo.down_bits);
  EXPECT_EQ(five_w.phase_bits, solo.phase_bits);
  EXPECT_EQ(nine_w.payload_bits(), expected_payload_bits(21));
}

/// Failure containment — the no-head-of-line-blocking contract: a session
/// whose links black-hole every frame exhausts its retry budget and fails
/// with a typed error, while a clean session sharing the servicer completes
/// with exact accounting, never waiting behind the corpse.
TEST(NetMultiSession, RelayForwardsWithinItsOwnSession) {
  // A relay session with a non-zero wire id beside a charging neighbor: the
  // servicer forwards each relay frame onto the recipient's down link of
  // the same session, and the neighbor's accounting is untouched.
  InProcTransport transport;
  SharedServicer servicer(vclock_options());
  servicer.start();
  SharedServicer::SessionOptions relay;
  relay.num_players = 3;
  relay.session_id = 3;
  const std::size_t three = servicer.open_session(transport, relay);
  SharedServicer::SessionOptions other;
  other.num_players = 2;
  other.session_id = 4;
  const std::size_t four = servicer.open_session(transport, other);

  WireStats relay_w;
  WireStats other_w;
  std::thread a([&] {
    servicer.session_relay(three, /*player=*/0, /*recipient=*/1, 16);
    servicer.session_relay(three, /*player=*/1, /*recipient=*/2, 8);
    servicer.session_relay(three, /*player=*/2, /*recipient=*/0, 32);
    relay_w = servicer.close_session(three);
    servicer.rethrow_session_error(three);
  });
  std::thread b([&] { other_w = drive_session(servicer, four, /*salt=*/2); });
  a.join();
  b.join();
  servicer.finish();
  servicer.rethrow_error();

  const std::uint64_t id = vertex_bits(3);  // the recipient header on every relay frame
  EXPECT_EQ(relay_w.up_bits, (std::vector<std::uint64_t>{16 + id, 8 + id, 32 + id}));
  EXPECT_EQ(relay_w.down_bits, (std::vector<std::uint64_t>{32, 16, 8}));
  EXPECT_EQ(relay_w.corrupt_frames, 0u);
  EXPECT_EQ(other_w.payload_bits(), expected_payload_bits(2));
}

TEST(NetMultiSession, FinishDrainsEverySessionStillOpen) {
  // finish() closes the sessions its caller left open. Under the virtual
  // clock a lost frame is retransmitted only once every live driver is
  // blocked, so finish() must stop counting the drivers of sessions it has
  // yet to close, or the first drain would wait forever.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(shards);
    InProcTransport transport;
    SharedServicer::Options opts = vclock_options();
    opts.num_shards = shards;
    opts.arq.coalesce = false;  // one frame per charge: the drops bite
    opts.faults.seed = 5;
    opts.faults.drop = 0.3;
    SharedServicer servicer(opts);
    servicer.start();
    std::vector<std::size_t> sidx;
    for (std::uint32_t id = 1; id <= 2; ++id) {
      SharedServicer::SessionOptions so;
      so.num_players = 2;
      so.session_id = id;
      sidx.push_back(servicer.open_session(transport, so));
    }
    for (const std::size_t s : sidx) {
      for (int i = 0; i < 10; ++i) {
        servicer.session_charge(s, /*player=*/i % 2, /*upstream=*/true, 40, /*phase=*/0);
      }
    }
    servicer.finish();
    servicer.rethrow_error();
    std::uint64_t retransmissions = 0;
    for (const std::size_t s : sidx) {
      const WireStats w = servicer.close_session(s);  // already closed: its folded result
      servicer.rethrow_session_error(s);
      EXPECT_EQ(w.payload_bits(), 400u);
      retransmissions += w.retransmissions;
    }
    EXPECT_GT(retransmissions, 0u) << "the plan must actually drop frames";
  }
}

TEST(NetMultiSession, TimeoutIsContainedToTheFaultySession) {
  InProcTransport transport;
  SharedServicer servicer(vclock_options());
  servicer.start();

  SharedServicer::SessionOptions faulty;
  faulty.num_players = 2;
  faulty.session_id = 1;
  FaultPlan black_hole;
  black_hole.seed = 7;
  black_hole.drop = 1.0;
  faulty.faults = black_hole;
  const std::size_t bad = servicer.open_session(transport, faulty);

  SharedServicer::SessionOptions clean;
  clean.num_players = 2;
  clean.session_id = 2;
  const std::size_t good = servicer.open_session(transport, clean);

  std::optional<NetErrorKind> bad_kind;
  WireStats good_w;
  std::thread a([&] {
    try {
      (void)drive_session(servicer, bad, 0);
    } catch (const NetError& e) {
      bad_kind = e.kind();
    }
    (void)servicer.close_session(bad);  // idempotent; releases the corpse's slots
  });
  std::thread b([&] { good_w = drive_session(servicer, good, /*salt=*/3); });
  a.join();
  b.join();
  servicer.finish();
  servicer.rethrow_error();  // the contained failure never went global

  ASSERT_TRUE(bad_kind.has_value()) << "a 100% lossy session must fail typed";
  EXPECT_EQ(*bad_kind, NetErrorKind::kTimeout);
  EXPECT_EQ(good_w.payload_bits(), expected_payload_bits(3));
  EXPECT_EQ(good_w.messages(), 5u);
}

/// close_session reclaims the session's link slots and the next same-width
/// session reuses them: a servicer that serves forever stays at its peak
/// link-table footprint instead of growing by 2k slots per session.
TEST(NetMultiSession, ClosedSessionsLinkSlotsAreReused) {
  InProcTransport transport;
  SharedServicer servicer(vclock_options());
  servicer.start();

  for (std::uint32_t i = 1; i <= 6; ++i) {
    SharedServicer::SessionOptions so;
    so.num_players = 2;
    so.session_id = i;
    const std::size_t sidx = servicer.open_session(transport, so);
    const WireStats w = drive_session(servicer, sidx, i);
    EXPECT_EQ(w.payload_bits(), expected_payload_bits(i));
    EXPECT_EQ(servicer.num_links(), 4u) << "slots must be reused, not appended";
  }

  // Two live sessions need two blocks; closing both leaves the peak.
  SharedServicer::SessionOptions so;
  so.num_players = 2;
  so.session_id = 10;
  const std::size_t s1 = servicer.open_session(transport, so);
  so.session_id = 11;
  const std::size_t s2 = servicer.open_session(transport, so);
  EXPECT_EQ(servicer.num_links(), 8u);
  (void)drive_session(servicer, s1, 1);
  (void)drive_session(servicer, s2, 2);
  so.session_id = 12;
  const std::size_t s3 = servicer.open_session(transport, so);
  EXPECT_EQ(servicer.num_links(), 8u);
  (void)drive_session(servicer, s3, 3);
  servicer.finish();
}

TEST(NetMultiSession, DuplicateOpenSessionIdIsTypedAndFreedAtClose) {
  InProcTransport transport;
  SharedServicer servicer(vclock_options());
  servicer.start();

  SharedServicer::SessionOptions so;
  so.num_players = 2;
  so.session_id = 5;
  const std::size_t sidx = servicer.open_session(transport, so);
  try {
    (void)servicer.open_session(transport, so);
    FAIL() << "a second open of a live session id must throw";
  } catch (const NetError& e) {
    EXPECT_EQ(e.kind(), NetErrorKind::kSetup);
  }
  (void)drive_session(servicer, sidx, 1);
  // The id is free again once the session closed.
  const std::size_t again = servicer.open_session(transport, so);
  const WireStats w = drive_session(servicer, again, 2);
  EXPECT_EQ(w.payload_bits(), expected_payload_bits(2));
  servicer.finish();
}

}  // namespace
}  // namespace tft::net

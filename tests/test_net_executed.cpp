#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <set>
#include <vector>

#include "comm/conformance.h"
#include "comm/message_passing.h"
#include "core/exact_baseline.h"
#include "core/sim_low.h"
#include "core/sim_oblivious.h"
#include "core/unrestricted.h"
#include "graph/chunked.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "net/error.h"
#include "net/executed.h"
#include "net/runtime.h"
#include "streaming/reduction.h"
#include "util/bits.h"
#include "util/rng.h"

namespace tft::net {
namespace {

std::vector<TransportKind> live_transports() {
  std::vector<TransportKind> kinds = {TransportKind::kInProc};
  if (LoopbackSocketTransport::available()) kinds.push_back(TransportKind::kSocket);
  return kinds;
}

std::vector<PlayerInput> small_instance(std::size_t k, std::uint64_t seed) {
  Rng rng(seed);
  const Graph g = gen::planted_triangles(60, 6, rng);
  return partition_random(g, k, rng);
}

/// Sum of total_bits over every run the body performed.
std::uint64_t charged_bits(const ExecutedReport& report) {
  std::uint64_t bits = 0;
  for (const auto& run : report.runs) bits += run.transcript.total_bits();
  return bits;
}

std::uint64_t charged_messages(const ExecutedReport& report) {
  std::uint64_t msgs = 0;
  for (const auto& run : report.runs) {
    for (std::size_t j = 0; j < run.transcript.num_players(); ++j) {
      msgs += run.transcript.upstream_messages(j) + run.transcript.downstream_messages(j);
    }
  }
  return msgs;
}

TEST(NetExecuted, SimKindDegradesToPlainCallWithCapture) {
  const auto players = small_instance(4, 11);
  NetConfig cfg;
  cfg.transport = TransportKind::kSim;
  const auto [result, report] =
      run_executed(4, cfg, [&] { return exact_find_triangle(players); });
  EXPECT_FALSE(report.executed);
  EXPECT_EQ(report.wire.payload_bits(), 0u);
  ASSERT_EQ(report.runs.size(), 1u);
  EXPECT_TRUE(result.triangle.has_value());
}

/// The acceptance criterion: each of the four communication models runs a
/// real protocol end-to-end on every live transport, and the bits that
/// arrived on the wire equal the charged Transcript totals exactly.
/// (run_executed itself throws AccountingError / ConformanceError on any
/// discrepancy; the test re-derives both checks from the report.)
TEST(NetExecuted, AllFourModelsCrossEveryTransport) {
  const auto players = small_instance(4, 19);
  UnrestrictedOptions coord;
  coord.seed = 5;
  coord.known_average_degree = 4.0;
  UnrestrictedOptions board = coord;
  board.blackboard = true;

  for (const TransportKind kind : live_transports()) {
    SCOPED_TRACE(to_string(kind));
    NetConfig cfg;
    cfg.transport = kind;
    const auto [verdicts, report] = run_executed(4, cfg, [&] {
      std::vector<bool> found;
      found.push_back(exact_find_triangle(players).triangle.has_value());
      found.push_back(find_triangle_unrestricted(players, coord).triangle.has_value());
      found.push_back(find_triangle_unrestricted(players, board).triangle.has_value());
      found.push_back(one_way_via_streaming(players, 1 << 14, 7).triangle.has_value());
      return found;
    });

    EXPECT_TRUE(report.executed);
    std::set<CommModel> models;
    for (const auto& run : report.runs) models.insert(run.model);
    EXPECT_EQ(models.size(), 4u) << "expected one run per communication model";
    EXPECT_TRUE(models.count(CommModel::kSimultaneous));
    EXPECT_TRUE(models.count(CommModel::kCoordinator));
    EXPECT_TRUE(models.count(CommModel::kBlackboard));
    EXPECT_TRUE(models.count(CommModel::kOneWay));

    // Wire == charged, bit for bit and message for message.
    EXPECT_EQ(report.wire.payload_bits(), charged_bits(report));
    EXPECT_EQ(report.wire.messages(), charged_messages(report));
    EXPECT_EQ(report.wire.corrupt_frames, 0u);

    // The referee passes on each transport-captured transcript.
    for (const auto& run : report.runs) {
      EXPECT_TRUE(check_conformance(run.model, run.transcript).ok());
    }

    // Executed verdicts equal the simulated ones: the transport changed
    // nothing about the protocol's computation.
    EXPECT_EQ(verdicts[0], exact_find_triangle(players).triangle.has_value());
    EXPECT_EQ(verdicts[1], find_triangle_unrestricted(players, coord).triangle.has_value());
    EXPECT_EQ(verdicts[2], find_triangle_unrestricted(players, board).triangle.has_value());
    EXPECT_EQ(verdicts[3], one_way_via_streaming(players, 1 << 14, 7).triangle.has_value());
  }
}

TEST(NetExecuted, SimultaneousObliviousSketchExecutes) {
  const auto players = small_instance(3, 23);
  NetConfig cfg;
  const auto [result, report] = run_executed(3, cfg, [&] {
    return sim_oblivious_find_triangle(players, SimObliviousOptions{});
  });
  EXPECT_TRUE(report.executed);
  ASSERT_EQ(report.runs.size(), 1u);
  EXPECT_EQ(report.runs[0].model, CommModel::kSimultaneous);
  EXPECT_EQ(report.wire.payload_bits(), report.runs[0].transcript.total_bits());
  EXPECT_EQ(result.total_bits, report.wire.payload_bits());
}

TEST(NetExecuted, RepeatRunsAreBitIdenticalUnderAFixedSeed) {
  const auto players = small_instance(4, 31);
  UnrestrictedOptions opts;
  opts.seed = 9;
  opts.known_average_degree = 4.0;

  auto once = [&] {
    NetConfig cfg;
    return run_executed(4, cfg,
                        [&] { return find_triangle_unrestricted(players, opts); });
  };
  const auto [r1, w1] = once();
  const auto [r2, w2] = once();
  EXPECT_EQ(r1.triangle.has_value(), r2.triangle.has_value());
  EXPECT_EQ(r1.total_bits, r2.total_bits);
  EXPECT_EQ(w1.wire.payload_bits(), w2.wire.payload_bits());
  EXPECT_EQ(w1.wire.messages(), w2.wire.messages());
  EXPECT_EQ(w1.wire.up_bits, w2.wire.up_bits);
  EXPECT_EQ(w1.wire.down_bits, w2.wire.down_bits);
  EXPECT_EQ(w1.wire.phase_bits, w2.wire.phase_bits);
}

/// The tentpole's correctness bar: swapping the ARQ discipline (legacy
/// stop-and-wait vs pipelined windows, with and without coalescing, across
/// window sizes) changes nothing the protocol can observe — verdict, charged
/// transcript and delivered per-player/per-phase totals are bit-identical.
/// Only the wire framing may differ (coalescing packs several charges per
/// frame).
TEST(NetExecuted, ArqPolicyVariantsAreBitIdenticalEndToEnd) {
  const auto players = small_instance(4, 31);
  UnrestrictedOptions opts;
  opts.seed = 9;
  opts.known_average_degree = 4.0;
  auto with = [&](const ArqPolicy& arq) {
    NetConfig cfg;
    cfg.arq = arq;
    return run_executed(4, cfg,
                        [&] { return find_triangle_unrestricted(players, opts); });
  };

  ArqPolicy solo = ArqPolicy::windowed(4);
  solo.coalesce = false;
  const auto [r_ref, w_ref] = with(ArqPolicy::stop_and_wait());
  for (const ArqPolicy& arq : {ArqPolicy::windowed(), ArqPolicy::windowed(2), solo}) {
    SCOPED_TRACE(arq.window);
    const auto [r, w] = with(arq);
    EXPECT_EQ(r.triangle, r_ref.triangle);
    EXPECT_EQ(r.total_bits, r_ref.total_bits);
    EXPECT_EQ(w.wire.up_bits, w_ref.wire.up_bits);
    EXPECT_EQ(w.wire.down_bits, w_ref.wire.down_bits);
    EXPECT_EQ(w.wire.up_msgs, w_ref.wire.up_msgs);
    EXPECT_EQ(w.wire.down_msgs, w_ref.wire.down_msgs);
    EXPECT_EQ(w.wire.phase_bits, w_ref.wire.phase_bits);
    EXPECT_EQ(w.wire.corrupt_frames, 0u);
  }

  // Coalescing is real: the windowed default ships fewer frames than the
  // one-frame-per-message reference for the same charged messages.
  const auto [r_win, w_win] = with(ArqPolicy::windowed());
  EXPECT_EQ(w_win.wire.messages(), w_ref.wire.messages());
  EXPECT_LT(w_win.wire.frames_delivered, w_ref.wire.frames_delivered);
}

TEST(NetExecuted, AccountingMismatchIsAHardError) {
  // A charge the wire never saw: doctored charged totals vs honest wire.
  NetConfig cfg;
  NetSession session(3, cfg);
  {
    const ChannelSinkScope scope(&session);
    Transcript t(3, 64);
    Channel ch(t);
    ch.charge(1, Direction::kPlayerToCoordinator, 100, 0);
    const WireStats wire = session.finish();

    Transcript lying(3, 64);
    lying.charge(1, Direction::kPlayerToCoordinator, 101, 0);  // one extra bit
    EXPECT_THROW(verify_accounting(lying, wire), AccountingError);
    EXPECT_THROW(verify_accounting(Transcript(3, 64), wire), AccountingError);
    verify_accounting(t, wire);  // the honest transcript passes
  }
}

TEST(NetExecuted, ChargedTotalsRejectMismatchedPlayerCounts) {
  ChargedTotals charged(3);
  EXPECT_THROW(charged.add(Transcript(4, 64)), AccountingError);
  charged.add(Transcript(3, 64));
}

TEST(NetExecuted, SessionRejectsOutOfRangePlayersAndLateCharges) {
  NetConfig cfg;
  NetSession session(2, cfg);
  EXPECT_THROW(session.on_charge(2, Direction::kPlayerToCoordinator, 1, 0), NetError);
  (void)session.finish();
  EXPECT_THROW(session.on_charge(0, Direction::kPlayerToCoordinator, 1, 0), NetError);
}

TEST(NetExecuted, RelayedFramesMatchTheSimulatorExactly) {
  // Uniform b-bit messages: the measured overhead must *equal* the
  // Section 2 bound 2 + vertex_bits(k)/b, because every frame carries the
  // payload twice (up + forwarded) plus one fixed-width recipient header.
  const std::size_t k = 5;
  const std::uint64_t b = 16;
  Rng rng(77);
  std::vector<MpMessage> messages;
  for (int i = 0; i < 40; ++i) {
    const auto from = static_cast<std::size_t>(rng.below(k));
    std::size_t to = from;
    while (to == from) to = static_cast<std::size_t>(rng.below(k));
    messages.push_back({from, to, b});
  }

  for (const TransportKind kind : live_transports()) {
    SCOPED_TRACE(to_string(kind));
    NetConfig cfg;
    cfg.transport = kind;
    const RelayReport r = relay_messages(k, 64, messages, cfg);
    EXPECT_EQ(r.mp_bits, 40 * b);
    EXPECT_EQ(r.measured_bits, r.simulated_bits)
        << "bytes on the wire must back the simulator's arithmetic";
    EXPECT_EQ(r.measured_bits, 40 * (2 * b + vertex_bits(k)));
    EXPECT_DOUBLE_EQ(r.measured_overhead, r.bound);
    EXPECT_EQ(r.wire.messages(), 2u * 40u);  // one up + one forwarded per message
    EXPECT_EQ(r.wire.corrupt_frames, 0u);
  }
}

TEST(NetExecuted, MixedSizeRelayStaysWithinTheBound) {
  const std::size_t k = 4;
  std::vector<MpMessage> messages = {
      {0, 1, 8}, {1, 2, 64}, {2, 3, 8}, {3, 0, 1024}, {1, 0, 8}, {2, 0, 129},
  };
  NetConfig cfg;
  const RelayReport r = relay_messages(k, 32, messages, cfg);
  EXPECT_EQ(r.measured_bits, r.simulated_bits);
  EXPECT_GT(r.measured_overhead, 2.0);  // forwarding alone doubles the payload
  EXPECT_LE(r.measured_overhead, r.bound);
  EXPECT_DOUBLE_EQ(r.bound, MessagePassingSimulator::overhead_bound(8, k));
}

TEST(NetExecuted, RelayUnderTotalLossIsATypedTimeout) {
  // Nothing reaches the wire, so the relay session fails after its retry
  // budget; the failure must surface as the session's typed error, never as
  // a hang or a silently short report.
  const std::vector<MpMessage> messages = {{0, 1, 16}, {1, 2, 16}, {2, 0, 16}};
  NetConfig cfg;
  cfg.virtual_clock = true;
  cfg.faults.seed = 31;
  cfg.faults.drop = 1.0;
  cfg.retry.max_retries = 3;
  const auto start = std::chrono::steady_clock::now();
  try {
    (void)relay_messages(3, 32, messages, cfg);
    FAIL() << "a fully lossy link cannot relay a message";
  } catch (const NetError& e) {
    EXPECT_EQ(e.kind(), NetErrorKind::kTimeout);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10))
      << "retries must be bounded, never a hang";
}

// run_executed_chunked: each player's input comes from its own chunk slice
// only (no monolithic graph is ever materialized for the split), and the
// executed run's verdict matches a direct build_players() call byte for byte.
TEST(NetExecuted, ChunkedPlayersRunAndAccount) {
  const auto spec = ChunkedSpec::bm_reduction(600, /*zero_case=*/true);
  const std::uint64_t seed = 23;
  const std::size_t k = 8;

  SimLowOptions o;
  o.seed = 91;
  o.average_degree = 2.0;
  const auto protocol = [&](std::span<const PlayerInput> players) {
    return sim_low_find_triangle(players, o);
  };

  NetConfig cfg;
  cfg.transport = TransportKind::kInProc;
  const auto [result, report] = run_executed_chunked(spec, seed, k, cfg, protocol);

  const ChunkedView view(spec, seed, k);
  const std::vector<PlayerInput> direct = view.build_players();
  ASSERT_EQ(direct.size(), k);
  const SimResult want = protocol(std::span<const PlayerInput>(direct));

  EXPECT_TRUE(report.executed);
  ASSERT_EQ(report.runs.size(), 1u);
  EXPECT_EQ(report.runs[0].transcript.num_players(), k);
  EXPECT_EQ(charged_bits(report), want.total_bits);
  EXPECT_EQ(result.triangle.has_value(), want.triangle.has_value());
  EXPECT_EQ(result.total_bits, want.total_bits);
  EXPECT_EQ(result.per_player_bits, want.per_player_bits);
  EXPECT_EQ(result.edges_received, want.edges_received);
  // BM zero-case promise: the referee really does find a triangle.
  EXPECT_TRUE(result.triangle.has_value());
}

TEST(NetExecuted, ParseTransportNamesRoundTrip) {
  for (const TransportKind kind :
       {TransportKind::kSim, TransportKind::kInProc, TransportKind::kSocket}) {
    const auto parsed = parse_transport(to_string(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parse_transport("carrier-pigeon").has_value());
}

}  // namespace
}  // namespace tft::net

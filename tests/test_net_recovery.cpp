#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "chaos.h"
#include "net/checkpoint.h"
#include "net/error.h"
#include "net/executed.h"
#include "net/fault.h"
#include "net/frame.h"
#include "net/recovery.h"
#include "net/runtime.h"
#include "util/rng.h"

namespace tft::net {
namespace {

/// A deliberately non-trivial checkpoint exercising every field, including
/// values a gamma code cannot carry directly (the all-ones seed).
PlayerCheckpoint sample_checkpoint() {
  PlayerCheckpoint ck;
  ck.player = 3;
  ck.seed = ~std::uint64_t{0};
  ck.phase = 7;
  ck.up.next_seq = 41;
  ck.up.next_expected = 41;
  ck.up.frames = 38;
  ck.up.messages = 120;
  ck.up.payload_bits = 9'001;
  ck.up.phase_bits = {0, 512, 4'096, 0, 4'393};
  ck.down.next_seq = 9;
  ck.down.next_expected = 9;
  ck.down.frames = 9;
  ck.down.messages = 9;
  ck.down.payload_bits = 333;
  ck.down.phase_bits = {333};
  return ck;
}

TEST(NetRecovery, CheckpointRoundTrip) {
  const PlayerCheckpoint ck = sample_checkpoint();
  const std::vector<std::uint8_t> bytes = encode_checkpoint(ck);
  EXPECT_FALSE(bytes.empty());
  EXPECT_LT(bytes.size(), 64u) << "lightweight means tens of bytes";
  const PlayerCheckpoint back = decode_checkpoint(bytes);
  EXPECT_TRUE(back == ck);
}

/// The canonical-encoding property: decoding any valid byte string and
/// re-encoding reproduces it exactly. Exercised over randomized checkpoints
/// (seeded — the sweep is reproducible).
TEST(NetRecovery, CheckpointEncodingIsCanonical) {
  Rng rng(2026);
  for (int trial = 0; trial < 200; ++trial) {
    PlayerCheckpoint ck;
    ck.player = static_cast<std::uint32_t>(rng.below(64));
    ck.seed = rng();
    ck.phase = rng.below(1000);
    for (LinkCheckpoint* lane : {&ck.up, &ck.down}) {
      lane->next_seq = static_cast<std::uint32_t>(rng.below(1u << 20));
      lane->next_expected = static_cast<std::uint32_t>(rng.below(1u << 20));
      lane->frames = rng.below(1u << 18);
      lane->messages = rng.below(1u << 18);
      lane->payload_bits = rng.below(1u << 24);
      lane->phase_bits.resize(rng.below(6));
      for (auto& b : lane->phase_bits) b = rng.below(1u << 22);
    }
    const auto bytes = encode_checkpoint(ck);
    EXPECT_TRUE(decode_checkpoint(bytes) == ck);
    EXPECT_EQ(encode_checkpoint(decode_checkpoint(bytes)), bytes);
  }
}

TEST(NetRecovery, CheckpointRejectsCorruption) {
  const std::vector<std::uint8_t> bytes = encode_checkpoint(sample_checkpoint());
  // Every strict prefix is truncated mid-field (the encoder never emits a
  // byte of pure padding), so every one must be rejected.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + len);
    EXPECT_THROW(
        {
          try {
            (void)decode_checkpoint(cut);
          } catch (const NetError& e) {
            EXPECT_EQ(e.kind(), NetErrorKind::kCorrupt);
            throw;
          }
        },
        NetError)
        << "prefix of length " << len << " decoded";
  }
  // Trailing bytes are non-canonical slack, not tolerated garbage.
  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(0x00);
  EXPECT_THROW((void)decode_checkpoint(padded), NetError);
  // A wrong version tag must fail loudly, not decode as the wrong layout.
  std::vector<std::uint8_t> wrong_version = bytes;
  wrong_version.front() ^= 0x80;  // the leading gamma bit of the version field
  EXPECT_THROW((void)decode_checkpoint(wrong_version), NetError);
}

TEST(NetRecovery, PlayerDownFrameRoundTripsThroughTheWire) {
  const Frame f = make_player_down_frame(/*src=*/5, /*dst=*/2, /*ctrl_seq=*/17,
                                         /*player=*/2, /*phase=*/9);
  EXPECT_EQ(f.header.type, FrameType::kPlayerDown);
  const std::vector<std::uint8_t> wire = serialize_frame(f);
  FrameParser parser;
  parser.feed(wire);
  Frame out;
  ASSERT_TRUE(parser.next(out));
  EXPECT_EQ(out.header.src, 5u);
  EXPECT_EQ(out.header.dst, 2u);
  EXPECT_EQ(out.header.seq, 17u);
  const PlayerDownNotice notice = decode_player_down(out);
  EXPECT_EQ(notice.player, 2u);
  EXPECT_EQ(notice.phase, 9u);
}

TEST(NetRecovery, ResumeFrameCarriesTheCheckpointVerbatim) {
  const PlayerCheckpoint ck = sample_checkpoint();
  const std::vector<std::uint8_t> bytes = encode_checkpoint(ck);
  const Frame f = make_resume_frame(/*src=*/3, /*dst=*/4, /*ctrl_seq=*/0, bytes);
  EXPECT_EQ(f.header.type, FrameType::kResume);
  EXPECT_EQ(f.header.payload_bits, 8u * bytes.size());
  EXPECT_EQ(f.payload, bytes);
  const std::vector<std::uint8_t> wire = serialize_frame(f);
  FrameParser parser;
  parser.feed(wire);
  Frame out;
  ASSERT_TRUE(parser.next(out));
  EXPECT_TRUE(decode_resume(out) == ck);
}

TEST(NetRecovery, ResumeRejectsTruncatedCheckpointPayload) {
  const std::vector<std::uint8_t> bytes = encode_checkpoint(sample_checkpoint());
  Frame f = make_resume_frame(3, 4, 0, bytes);
  f.payload.pop_back();  // payload_bits now disagrees with the byte count
  EXPECT_THROW(
      {
        try {
          (void)decode_resume(f);
        } catch (const NetError& e) {
          EXPECT_EQ(e.kind(), NetErrorKind::kCorrupt);
          throw;
        }
      },
      NetError);
}

/// The checkpoint a live session stores is refreshed at every phase barrier
/// and reflects exactly the delivered-at-barrier tallies; the stored blob is
/// canonical bytes.
TEST(NetRecovery, SessionCheckpointsTrackPhaseBarriers) {
  NetConfig cfg;
  cfg.transport = TransportKind::kInProc;
  cfg.virtual_clock = true;
  cfg.session_seed = 0xfeedbeef;
  NetSession session(2, cfg);

  // Start-of-run checkpoint: all-zero barriers at phase 0.
  PlayerCheckpoint ck0 = session.checkpoint(0);
  EXPECT_EQ(ck0.phase, 0u);
  EXPECT_EQ(ck0.seed, 0xfeedbeefu);
  EXPECT_TRUE(ck0.up == LinkCheckpoint{});

  session.on_charge(0, Direction::kPlayerToCoordinator, 16, 0);
  session.on_charge(0, Direction::kPlayerToCoordinator, 16, 0);
  session.on_charge(0, Direction::kPlayerToCoordinator, 16, 0);
  session.on_charge(1, Direction::kCoordinatorToPlayer, 40, 0);
  // First charge of phase 1 == the barrier; checkpoints refresh behind it.
  session.on_charge(0, Direction::kPlayerToCoordinator, 8, 1);

  const PlayerCheckpoint ck = session.checkpoint(0);
  EXPECT_EQ(ck.player, 0u);
  EXPECT_EQ(ck.phase, 1u);
  EXPECT_EQ(ck.up.messages, 3u);
  EXPECT_EQ(ck.up.payload_bits, 48u);
  ASSERT_EQ(ck.up.phase_bits.size(), 1u);
  EXPECT_EQ(ck.up.phase_bits[0], 48u);
  EXPECT_GE(ck.up.next_seq, 1u);
  EXPECT_EQ(ck.up.next_seq, ck.up.next_expected)
      << "at a barrier both lane halves agree — nothing is in flight";

  const PlayerCheckpoint other = session.checkpoint(1);
  EXPECT_EQ(other.down.messages, 1u);
  EXPECT_EQ(other.down.payload_bits, 40u);

  // The stored form is the canonical encoding of the decoded view.
  EXPECT_EQ(encode_checkpoint(ck), session.checkpoint_bytes(0));

  (void)session.finish();
}

/// Headline property, stated directly (the chaos suite sweeps it): a run
/// that loses a player mid-phase and recovers from the barrier checkpoint is
/// indistinguishable from the clean run in verdict and delivered totals, and
/// run_executed's accounting + conformance referees pass unchanged.
TEST(NetRecovery, RecoveredRunMatchesCleanRun) {
  chaos::Scenario s;
  s.k = 4;
  s.model = CommModel::kCoordinator;
  const chaos::Baseline clean = chaos::clean_run(s);

  // Crash player 1 at its first charged phase, mid-window.
  const auto& per = clean.counts.at(1);
  std::optional<CrashEvent> point;
  for (std::uint64_t ph = 0; ph < per.size() && !point; ++ph) {
    if (per[ph] > 0) point = CrashEvent{1, ph, per[ph] / 2};
  }
  ASSERT_TRUE(point.has_value()) << "player 1 never charges?";
  const auto divergence = chaos::run_with_crash(s, *point, clean);
  EXPECT_FALSE(divergence.has_value()) << *divergence;
}

TEST(NetRecovery, RecoveryReplaysTheChargeLogAndAnnouncesItself) {
  chaos::Scenario s;
  const auto players = chaos::instance(s);
  const chaos::Baseline clean = chaos::clean_run(s);

  // A mid-window point with a non-empty log: offset >= 1 somewhere.
  std::optional<CrashEvent> point;
  for (std::uint32_t pl = 0; pl < clean.counts.size() && !point; ++pl) {
    const auto& per = clean.counts[pl];
    for (std::uint64_t ph = 0; ph < per.size() && !point; ++ph) {
      if (per[ph] >= 2) point = CrashEvent{pl, ph, per[ph] - 1};
    }
  }
  ASSERT_TRUE(point.has_value());

  NetConfig cfg = chaos::make_config(s);
  cfg.faults.crash_schedule = {*point};
  const auto [verdict, report] =
      run_executed(s.k, cfg, [&] { return chaos::run_body(s, players); });
  EXPECT_EQ(verdict, clean.verdict);
  EXPECT_EQ(report.wire.crashes, 1u);
  EXPECT_GE(report.wire.player_down_frames, 1u) << "the death was never announced";
  EXPECT_GE(report.wire.resume_frames, 1u) << "the respawn was never announced";
  EXPECT_GE(report.wire.replayed_charges, 1u)
      << "a mid-window crash must replay the since-barrier log";
}

/// A *declared* death without resurrection fails fast with the typed
/// kPlayerDown: the sender stops retransmitting to the corpse instead of
/// burning its retry budget into a plain kTimeout. Deterministic under the
/// virtual clock.
TEST(NetRecovery, UnresumedDeathFailsFastAsPlayerDown) {
  chaos::Scenario s;
  const auto players = chaos::instance(s);

  // Find a crash point whose triggering charge is DOWNSTREAM: the frame to
  // the fresh corpse is in flight immediately, so there is something to
  // retransmit into the void.
  struct DirProbe final : ChannelSink {
    std::vector<std::vector<std::vector<Direction>>> dirs;
    explicit DirProbe(std::size_t k) : dirs(k) {}
    void on_charge(std::size_t player, Direction dir, std::uint64_t, std::uint64_t phase) override {
      auto& per = dirs[player];
      if (per.size() <= phase) per.resize(static_cast<std::size_t>(phase) + 1);
      per[static_cast<std::size_t>(phase)].push_back(dir);
    }
  };
  DirProbe probe(s.k);
  {
    const ChannelSinkScope scope(&probe);
    (void)chaos::run_body(s, players);
  }
  std::optional<CrashEvent> point;
  for (std::uint32_t pl = 0; pl < probe.dirs.size() && !point; ++pl) {
    for (std::uint64_t ph = 0; ph < probe.dirs[pl].size() && !point; ++ph) {
      const auto& cell = probe.dirs[pl][ph];
      for (std::size_t off = 0; off < cell.size(); ++off) {
        if (cell[off] == Direction::kCoordinatorToPlayer) {
          point = CrashEvent{pl, ph, off};
          break;
        }
      }
    }
  }
  ASSERT_TRUE(point.has_value()) << "the coordinator never speaks downstream?";

  NetConfig cfg = chaos::make_config(s);
  cfg.faults.crash_schedule = {*point};
  cfg.faults.crash_resurrect = false;  // the dead stay dead
  // A retry budget (5 + 10 + 20 ms) that runs out well before down_timeout
  // (200 ms): a sender that kept retransmitting to the corpse would surface
  // kTimeout first.
  cfg.retry.base_timeout = std::chrono::milliseconds(5);
  cfg.retry.max_retries = 2;
  try {
    (void)run_executed(s.k, cfg, [&] { return chaos::run_body(s, players); });
    FAIL() << "an unresumed death must surface a typed NetError";
  } catch (const NetError& e) {
    EXPECT_EQ(e.kind(), NetErrorKind::kPlayerDown);
  }
}

/// A crashed-and-recovered run is a pure function of its configuration under
/// the virtual clock: every wire statistic reproduces, including the ones
/// recovery inflates (retransmits, wire bytes, logical time).
TEST(NetRecovery, CrashedRunsAreDeterministicUnderTheVirtualClock) {
  chaos::Scenario s;
  const auto players = chaos::instance(s);
  const chaos::Baseline clean = chaos::clean_run(s);
  std::optional<CrashEvent> point;
  for (std::uint32_t pl = 0; pl < clean.counts.size() && !point; ++pl) {
    const auto& per = clean.counts[pl];
    for (std::uint64_t ph = 0; ph < per.size() && !point; ++ph) {
      if (per[ph] >= 2) point = CrashEvent{pl, ph, per[ph] / 2};
    }
  }
  ASSERT_TRUE(point.has_value());

  const auto once = [&] {
    NetConfig cfg = chaos::make_config(s);
    cfg.faults.crash_schedule = {*point};
    auto [verdict, report] =
        run_executed(s.k, cfg, [&] { return chaos::run_body(s, players); });
    (void)verdict;
    return report.wire;
  };
  const WireStats a = once();
  const WireStats b = once();
  EXPECT_EQ(a.summary(), b.summary());
  EXPECT_EQ(a.up_bits, b.up_bits);
  EXPECT_EQ(a.down_bits, b.down_bits);
  EXPECT_EQ(a.phase_bits, b.phase_bits);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.replayed_charges, b.replayed_charges);
  EXPECT_EQ(a.virtual_time_us, b.virtual_time_us);
}

/// Golden checkpoint bytes: the serialized form is load-bearing (a respawn
/// decodes stored bytes), so its exact layout is pinned like the golden
/// transcripts — a diff means the on-disk format changed and needs a version
/// bump, not a silent re-interpretation.
TEST(NetRecovery, GoldenCheckpointBytes) {
  const std::vector<std::uint8_t> bytes = encode_checkpoint(sample_checkpoint());
  std::ostringstream hex;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    hex << (i ? (i % 16 == 0 ? "\n" : " ") : "")
        << std::hex << std::setw(2) << std::setfill('0') << unsigned{bytes[i]};
  }
  hex << "\n";
  const std::string got = hex.str();
  const std::string path = std::string(TFT_GOLDEN_DIR) + "/checkpoint_v1.txt";
  if (std::getenv("TFT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << got;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " — run with TFT_UPDATE_GOLDEN=1 to create it";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str())
      << "checkpoint wire format drifted (TFT_UPDATE_GOLDEN=1 regenerates "
         "after a deliberate, versioned change)";
}

}  // namespace
}  // namespace tft::net

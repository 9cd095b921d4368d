#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "comm/channel.h"
#include "net/arq.h"
#include "net/error.h"
#include "net/reliable.h"
#include "net/runtime.h"
#include "net/servicer.h"
#include "net/transport.h"

/// The sliding-window ARQ layer: sequence arithmetic and window state
/// machines at the unit level (no threads), the batch/ack codecs, the
/// timeout saturation guard, and the load-bearing equivalences — the
/// ArqPolicy::stop_and_wait() engine writes byte-for-byte what the legacy
/// ReliableSender/LinkServicer pair wrote, and the windowed engine under a
/// virtual clock reproduces its fault arithmetic exactly.

namespace tft::net {
namespace {

using namespace std::chrono_literals;

// ---- sequence arithmetic ----------------------------------------------------

TEST(NetArq, SeqDistWrapsOnTheCircle) {
  EXPECT_EQ(seq_dist(0, 0, 8), 0u);
  EXPECT_EQ(seq_dist(0, 5, 8), 5u);
  EXPECT_EQ(seq_dist(5, 0, 8), 3u);
  EXPECT_EQ(seq_dist(7, 1, 8), 2u);  // forward across the wrap
  EXPECT_EQ(seq_dist(1, 7, 8), 6u);  // the long way round
  EXPECT_EQ(seq_dist(3, 3, 1u << 30), 0u);
}

TEST(NetArq, PolicyValidateRejectsUnusableCombos) {
  ArqPolicy p;
  p.window = 0;
  EXPECT_THROW(p.validate(), NetError);
  p = ArqPolicy::windowed(5);
  p.seq_modulus = 9;  // 2*5 > 9: old duplicates would alias new frames
  EXPECT_THROW(p.validate(), NetError);
  p = ArqPolicy::windowed();
  p.pending_cap = 0;
  EXPECT_THROW(p.validate(), NetError);
  p = ArqPolicy::windowed();
  p.max_batch_msgs = 0;
  EXPECT_THROW(p.validate(), NetError);
  ArqPolicy::windowed().validate();
  ArqPolicy::stop_and_wait().validate();
}

// ---- window state machines --------------------------------------------------

Frame data_frame(std::uint32_t seq, std::uint64_t bits = 8) {
  Frame f;
  f.header.type = FrameType::kData;
  f.header.src = 0;
  f.header.dst = 1;
  f.header.seq = seq;
  f.header.payload_bits = bits;
  f.payload = make_filler_payload(f.header);
  return f;
}

ArqPolicy tiny_policy() {
  ArqPolicy p = ArqPolicy::windowed(3);
  p.seq_modulus = 8;
  return p;
}

TEST(NetArq, SenderWindowSurvivesReorderedStaleAndDuplicateAcks) {
  ArqSenderWindow w(tiny_policy());
  for (std::uint32_t s : {0u, 1u, 2u}) w.admit(data_frame(s));
  EXPECT_FALSE(w.has_space());
  EXPECT_EQ(w.in_flight(), 3u);

  // "No news" ack (nothing accepted yet): cumulative = modulus - 1.
  EXPECT_EQ(w.on_ack({7, {}}), 0u);
  EXPECT_EQ(w.in_flight(), 3u);

  // Cumulative through 0 retires one; the window slides.
  EXPECT_EQ(w.on_ack({0, {}}), 1u);
  EXPECT_EQ(w.base(), 1u);

  // The "no news" ack arrives late (reordered): stale, ignored.
  EXPECT_EQ(w.on_ack({7, {}}), 0u);
  EXPECT_EQ(w.in_flight(), 2u);

  // Duplicate SACKs for seq 2 are idempotent and keep it off the due list.
  EXPECT_EQ(w.on_ack({0, {2}}), 0u);
  EXPECT_EQ(w.on_ack({0, {2}}), 0u);
  std::vector<ArqSenderWindow::Entry*> due;
  w.due(/*now_us=*/0, due);
  EXPECT_TRUE(due.empty());  // nothing transmitted yet (attempts == 0)

  // Cumulative through 2 retires the rest, including the SACKed entry.
  EXPECT_EQ(w.on_ack({2, {}}), 2u);
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.base(), 3u);
}

TEST(NetArq, SenderWindowRetiresAcrossTheWrap) {
  ArqSenderWindow w(tiny_policy());
  // Pretend a long session: admit seqs 6, 7, 0 (wrapping the modulus 8).
  for (std::uint32_t s : {6u, 7u, 0u}) w.admit(data_frame(s));
  EXPECT_EQ(w.base(), 6u);
  EXPECT_EQ(w.on_ack({7, {}}), 2u);  // retires 6 and 7
  EXPECT_EQ(w.base(), 0u);
  EXPECT_EQ(w.on_ack({0, {}}), 1u);
  EXPECT_TRUE(w.empty());
}

TEST(NetArq, ReceiverWindowBuffersReordersAndDetectsOverrun) {
  ArqReceiverWindow r(tiny_policy());
  // Out-of-order within the window: buffered, SACKed.
  EXPECT_EQ(r.on_frame(data_frame(1)), ArqReceiverWindow::Verdict::kBuffered);
  EXPECT_EQ(r.on_frame(data_frame(1)), ArqReceiverWindow::Verdict::kDuplicate);
  AckInfo ack = r.ack();
  EXPECT_EQ(ack.cumulative, 7u);  // nothing in order yet
  ASSERT_EQ(ack.sacks.size(), 1u);
  EXPECT_EQ(ack.sacks[0], 1u);

  // seq 3 = next_expected + window: the sender broke its own window.
  EXPECT_EQ(r.on_frame(data_frame(3)), ArqReceiverWindow::Verdict::kOverrun);

  // The hole fills: 0 arrives, releasing the buffered 1 in order.
  EXPECT_EQ(r.on_frame(data_frame(0)), ArqReceiverWindow::Verdict::kInOrder);
  const auto run = r.take_deliverable();
  ASSERT_EQ(run.size(), 2u);
  EXPECT_EQ(run[0].header.seq, 0u);
  EXPECT_EQ(run[1].header.seq, 1u);
  EXPECT_EQ(r.next_expected(), 2u);
  EXPECT_EQ(r.ack().cumulative, 1u);

  // An old duplicate from behind (already delivered): discard but re-ack.
  EXPECT_EQ(r.on_frame(data_frame(0)), ArqReceiverWindow::Verdict::kDuplicate);
}

TEST(NetArq, ReceiverWindowDeliversInOrderAcrossTheWrap) {
  ArqReceiverWindow r(tiny_policy());
  std::uint32_t delivered = 0;
  for (std::uint32_t i = 0; i < 20; ++i) {
    EXPECT_EQ(r.on_frame(data_frame(i % 8)), ArqReceiverWindow::Verdict::kInOrder);
    delivered += static_cast<std::uint32_t>(r.take_deliverable().size());
  }
  EXPECT_EQ(delivered, 20u);
  EXPECT_EQ(r.next_expected(), 20u % 8);
}

// ---- codecs -----------------------------------------------------------------

TEST(NetArq, BatchCodecRoundTripsAndRejectsTampering) {
  const std::vector<ChargeRec> charges = {{0, 1}, {0, 64}, {2, 7}, {2, 128}};
  const Frame f = make_batch_frame(/*src=*/3, /*dst=*/9, /*seq=*/5, charges);
  EXPECT_EQ(f.header.type, FrameType::kBatch);

  std::vector<ChargeRec> out;
  ASSERT_TRUE(decode_batch_frame(f, out));
  ASSERT_EQ(out.size(), charges.size());
  for (std::size_t i = 0; i < charges.size(); ++i) {
    EXPECT_EQ(out[i].phase, charges[i].phase);
    EXPECT_EQ(out[i].bits, charges[i].bits);
  }

  // A tampered payload bit inside the encoded region is either rejected
  // (count/bits/filler are all self-verifying) or decodes to visibly
  // different records (a flipped gamma(phase) value bit — the CRC's job on
  // the wire, and verify_accounting's per-phase totals behind it). It can
  // never decode back to the original charges.
  for (std::size_t byte = 0; byte < f.header.payload_bits / 8; ++byte) {
    Frame bad = f;
    bad.payload[byte] ^= 0x10;
    if (!decode_batch_frame(bad, out)) continue;
    bool differs = out.size() != charges.size();
    for (std::size_t i = 0; !differs && i < charges.size(); ++i) {
      differs = out[i].phase != charges[i].phase || out[i].bits != charges[i].bits;
    }
    EXPECT_TRUE(differs) << "tampered byte " << byte << " decoded to the original records";
  }

  // Truncation is caught by the bounds-checked reader.
  Frame truncated = f;
  truncated.header.payload_bits /= 2;
  EXPECT_FALSE(decode_batch_frame(truncated, out));

  // Wrong type refuses outright.
  EXPECT_FALSE(decode_batch_frame(data_frame(0), out));
}

TEST(NetArq, AckCodecRoundTripsSelectiveAcks) {
  AckInfo info;
  info.cumulative = 4;
  info.sacks = {6, 7};
  const Frame ack = make_ack_frame(/*src=*/1, /*dst=*/0, info, /*seq_modulus=*/8);
  const AckInfo back = decode_ack_frame(ack, 8);
  EXPECT_EQ(back.cumulative, 4u);
  EXPECT_EQ(back.sacks, info.sacks);

  // SACKs across the wrap: cumulative 6, holes at 0 and 1.
  const Frame wrap = make_ack_frame(1, 0, {6, {0, 1}}, 8);
  const AckInfo wback = decode_ack_frame(wrap, 8);
  EXPECT_EQ(wback.cumulative, 6u);
  EXPECT_EQ(wback.sacks, (std::vector<std::uint32_t>{0, 1}));

  // A garbage SACK payload is a typed corruption, not a crash.
  Frame bad = ack;
  bad.header.payload_bits = 3;  // truncated mid-gamma
  EXPECT_THROW((void)decode_ack_frame(bad, 8), NetError);
}

TEST(NetArq, SackFreeAckIsByteIdenticalToTheLegacyAck) {
  // The legacy stop-and-wait servicer acked with a bare kAck header. The
  // windowed codec must keep that encoding when no SACKs exist, or the
  // stop_and_wait() byte-identity guarantee breaks.
  Frame legacy;
  legacy.header.type = FrameType::kAck;
  legacy.header.src = 1;
  legacy.header.dst = 0;
  legacy.header.seq = 41;
  const Frame windowed = make_ack_frame(1, 0, {41, {}}, 1u << 30);
  EXPECT_EQ(serialize_frame(legacy), serialize_frame(windowed));
}

// ---- retry policy -----------------------------------------------------------

TEST(NetArq, TimeoutForSaturatesWithoutOverflow) {
  RetryPolicy p;
  p.base_timeout = 50ms;
  p.max_timeout = 1000ms;
  p.backoff = 2.0;
  EXPECT_EQ(p.timeout_for(0), 50ms);
  EXPECT_EQ(p.timeout_for(1), 100ms);
  EXPECT_EQ(p.timeout_for(2), 200ms);
  EXPECT_EQ(p.timeout_for(5), 1000ms);  // capped
  // The overflow guard: a huge attempt count returns the cap immediately
  // instead of looping 2^32 times or overflowing the accumulator.
  EXPECT_EQ(p.timeout_for(4'000'000'000u), 1000ms);

  RetryPolicy flat = p;
  flat.backoff = 1.0;
  EXPECT_EQ(flat.timeout_for(4'000'000'000u), 50ms);

  RetryPolicy shrinking = p;
  shrinking.backoff = 0.5;
  EXPECT_EQ(shrinking.timeout_for(1), 25ms);
  EXPECT_LE(shrinking.timeout_for(4'000'000'000u), 1us * 50'000);
}

// ---- engine equivalences ----------------------------------------------------

/// Every byte written through one pipe, in write order. Owned by the
/// transport that minted the pipe, so it outlives the servicer's links.
struct Recording {
  mutable std::mutex mu;
  std::vector<std::uint8_t> bytes;

  [[nodiscard]] std::vector<std::uint8_t> snapshot() const {
    const std::lock_guard lock(mu);
    return bytes;
  }
};

/// A Pipe that records every byte actually written through it (both the
/// blocking legacy path and the servicer's write_some path) while
/// delegating to a ByteRing — the probe for byte-for-byte A/B comparisons.
class RecordingPipe final : public Pipe {
 public:
  RecordingPipe(std::size_t capacity, Recording& out) : inner_(capacity), out_(out) {}

  void write(std::span<const std::uint8_t> bytes, Clock::time_point deadline) override {
    record(bytes);
    inner_.write(bytes, deadline);
  }
  int read_some(std::span<std::uint8_t> buf, Clock::time_point deadline) override {
    return inner_.read_some(buf, deadline);
  }
  std::size_t write_some(std::span<const std::uint8_t> bytes) override {
    const std::size_t n = inner_.write_some(bytes);
    record(bytes.first(n));
    return n;
  }
  void close() override { inner_.close(); }

 private:
  void record(std::span<const std::uint8_t> bytes) {
    const std::lock_guard lock(out_.mu);
    out_.bytes.insert(out_.bytes.end(), bytes.begin(), bytes.end());
  }

  ByteRing inner_;
  Recording& out_;
};

/// In-proc transport whose every link records both directions; link j (in
/// minting order) records into links[j].
class RecordingTransport final : public Transport {
 public:
  struct Recorded {
    Recording data;
    Recording ack;
  };

  [[nodiscard]] Link make_link() override {
    Recorded& r = links.emplace_back();
    Link link;
    link.data = std::make_unique<RecordingPipe>(std::size_t{1} << 16, r.data);
    link.ack = std::make_unique<RecordingPipe>(std::size_t{1} << 16, r.ack);
    return link;
  }
  [[nodiscard]] const char* name() const noexcept override { return "recording"; }

  std::deque<Recorded> links;  ///< deque: minting never moves a Recording
};

struct ByteStreams {
  std::vector<std::uint8_t> data;
  std::vector<std::uint8_t> ack;
  std::uint64_t wire_bytes = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t duplicates = 0;  ///< injected duplicate writes + receiver dedup discards
};

/// The same charge sequence every A/B run ships: mixed sizes and phases.
std::vector<ChargeRec> ab_charges() {
  std::vector<ChargeRec> charges;
  for (std::uint64_t i = 0; i < 12; ++i) {
    charges.push_back({i / 5, 1 + (i * 37) % 200});
  }
  return charges;
}

ByteStreams run_legacy_engine(const RetryPolicy& retry, const FaultPlan& faults) {
  RecordingTransport transport;
  Link link = transport.make_link();
  LinkServicer servicer(link, /*src=*/0, /*dst=*/1);
  std::thread th([&] { servicer.run(); });
  ReliableSender sender(link, /*link_id=*/0, retry, faults);
  for (const ChargeRec& c : ab_charges()) {
    Frame f;
    f.header.type = FrameType::kData;
    f.header.src = 0;
    f.header.dst = 1;
    f.header.seq = sender.next_seq();
    f.header.phase = c.phase;
    f.header.payload_bits = c.bits;
    f.payload = make_filler_payload(f.header);
    sender.send(std::move(f));
  }
  link.close();
  th.join();
  EXPECT_FALSE(servicer.error().has_value());
  return {transport.links[0].data.snapshot(), transport.links[0].ack.snapshot(),
          sender.stats().wire_bytes, sender.stats().retransmissions,
          sender.stats().duplicates_sent + servicer.stats().duplicates};
}

/// One single-player session with wire id 0: its up link (minted first) is
/// link id 0 from player 0 to the coordinator (id 1) — the legacy link's
/// addressing and fault keying — and its down link stays silent.
ByteStreams run_shared_servicer(const RetryPolicy& retry, const FaultPlan& faults) {
  RecordingTransport transport;
  SharedServicer::Options opts;
  opts.arq = ArqPolicy::stop_and_wait();
  opts.retry = retry;
  opts.faults = faults;
  SharedServicer svc(opts);
  SharedServicer::SessionOptions so;
  so.num_players = 1;
  const std::size_t session = svc.open_session(transport, so);
  svc.start();
  for (const ChargeRec& c : ab_charges()) {
    svc.session_charge(session, /*player=*/0, /*upstream=*/true, c.bits, c.phase);
  }
  const WireStats w = svc.close_session(session);
  svc.finish();
  svc.rethrow_error();
  svc.rethrow_session_error(session);
  EXPECT_TRUE(transport.links[1].data.snapshot().empty()) << "the down link carries nothing";
  return {transport.links[0].data.snapshot(), transport.links[0].ack.snapshot(), w.wire_bytes,
          w.retransmissions, w.duplicates};
}

TEST(NetArq, StopAndWaitPolicyWritesTheLegacyByteStream) {
  const RetryPolicy retry;  // defaults; no fault ever fires, no retransmit
  const ByteStreams legacy = run_legacy_engine(retry, FaultPlan{});
  const ByteStreams shared = run_shared_servicer(retry, FaultPlan{});
  EXPECT_EQ(legacy.data, shared.data) << "data byte streams must be identical";
  EXPECT_EQ(legacy.ack, shared.ack) << "ack byte streams must be identical";
  EXPECT_EQ(legacy.wire_bytes, shared.wire_bytes);
  EXPECT_EQ(legacy.retransmissions, 0u);
  EXPECT_EQ(shared.retransmissions, 0u);
}

TEST(NetArq, StopAndWaitPolicyMatchesLegacyBytesUnderFaults) {
  // Same fault seed, same link id => same per-attempt fates in both
  // engines; the wire streams (flipped copies, injected duplicates,
  // retransmissions after dropped attempts) must come out byte-identical.
  RetryPolicy retry;
  retry.base_timeout = 100ms;  // generous: no spurious retransmits on a loaded box
  retry.max_timeout = 400ms;
  FaultPlan faults;
  faults.seed = 71;
  faults.drop = 0.25;
  faults.duplicate = 0.25;
  faults.bit_flip = 0.25;
  const ByteStreams legacy = run_legacy_engine(retry, faults);
  const ByteStreams shared = run_shared_servicer(retry, faults);
  EXPECT_EQ(legacy.data, shared.data);
  EXPECT_EQ(legacy.ack, shared.ack);
  EXPECT_EQ(legacy.retransmissions, shared.retransmissions);
  EXPECT_EQ(legacy.duplicates, shared.duplicates);
  EXPECT_EQ(legacy.wire_bytes, shared.wire_bytes);
  EXPECT_GT(shared.retransmissions, 0u) << "the plan must actually bite";
}

// ---- virtual clock ----------------------------------------------------------

WireStats run_session(const NetConfig& cfg, std::size_t k, std::size_t charges) {
  NetSession session(k, cfg);
  Transcript t(k, 4096);
  {
    const ChannelSinkScope scope(&session);
    Channel ch(t);
    for (std::size_t i = 0; i < charges; ++i) {
      const std::size_t player = i % k;
      const Direction dir = (i / k) % 2 == 0 ? Direction::kPlayerToCoordinator
                                             : Direction::kCoordinatorToPlayer;
      ch.charge(player, dir, 16 + (i % 7), 0);
    }
  }
  const WireStats w = session.finish();
  verify_accounting(t, w);
  return w;
}

TEST(NetArq, VirtualClockMakesRetransmissionCountsReproducible) {
  NetConfig cfg;
  cfg.virtual_clock = true;
  cfg.arq = ArqPolicy::windowed(8);
  cfg.arq.coalesce = false;  // one frame per charge: the fault stream is hit hard
  cfg.faults.seed = 7;
  cfg.faults.drop = 0.2;
  cfg.faults.bit_flip = 0.1;
  cfg.faults.duplicate = 0.1;
  const WireStats w1 = run_session(cfg, 3, 60);
  const WireStats w2 = run_session(cfg, 3, 60);
  EXPECT_GT(w1.retransmissions, 0u);
  EXPECT_EQ(w1.retransmissions, w2.retransmissions);
  EXPECT_EQ(w1.duplicates, w2.duplicates);
  EXPECT_EQ(w1.corrupt_frames, w2.corrupt_frames);
  EXPECT_EQ(w1.acks, w2.acks);
  // virtual_time_us is deliberately NOT compared: whether the driver seals a
  // frame before or after a quiescence jump is a benign race that shifts the
  // transmit-time vnow (and so every later deadline) without changing any
  // attempt's fate. The counters are the determinism contract.
  EXPECT_GT(w1.virtual_time_us, 0u) << "faults must cost logical time";
}

TEST(NetArq, WindowedEngineMatchesStopAndWaitFaultArithmeticUnderVclock) {
  // With coalescing off both policies seal the same frames with the same
  // sequence numbers, and attempt fates are pure per (link, seq, attempt);
  // under the virtual clock a frame retransmits iff no earlier attempt
  // delivered — independent of how many frames were in flight. So every
  // fault counter must agree exactly across window sizes.
  NetConfig sw;
  sw.virtual_clock = true;
  sw.arq = ArqPolicy::stop_and_wait();
  sw.faults.seed = 15;
  sw.faults.drop = 0.25;
  sw.faults.bit_flip = 0.1;
  sw.faults.duplicate = 0.15;
  NetConfig win = sw;
  win.arq = ArqPolicy::windowed(16);
  win.arq.coalesce = false;

  const WireStats a = run_session(sw, 2, 40);
  const WireStats b = run_session(win, 2, 40);
  EXPECT_GT(a.retransmissions, 0u);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.duplicates, b.duplicates);
  EXPECT_EQ(a.corrupt_frames, b.corrupt_frames);
  EXPECT_EQ(a.acks, b.acks);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes) << "same attempts, same frames, same bytes";
  EXPECT_EQ(a.up_bits, b.up_bits);
  EXPECT_EQ(a.down_bits, b.down_bits);
}

TEST(NetArq, DropsAtEveryWindowPositionAreRecovered) {
  // Deterministically drop the first attempt of every one of the first 16
  // sequence numbers: every window slot from base to edge loses its frame
  // once and must recover by retransmission, at every in-window offset.
  NetConfig cfg;
  cfg.virtual_clock = true;
  cfg.arq = ArqPolicy::windowed(8);
  cfg.arq.coalesce = false;
  cfg.faults.drop_first_attempt_mask = ~std::uint64_t{0} >> 48;  // seqs 0..15
  const std::size_t charges = 16;
  NetSession session(1, cfg);
  Transcript t(1, 4096);
  {
    const ChannelSinkScope scope(&session);
    Channel ch(t);
    for (std::size_t i = 0; i < charges; ++i) {
      ch.charge(0, Direction::kPlayerToCoordinator, 32, 0);
    }
  }
  const WireStats w = session.finish();
  verify_accounting(t, w);
  EXPECT_EQ(w.retransmissions, charges) << "each seq 0..15 loses exactly its first attempt";
  EXPECT_EQ(w.messages(), charges);
  const WireStats again = run_session(cfg, 1, charges);
  EXPECT_EQ(again.retransmissions, charges);
}

TEST(NetArq, TinyModulusWrapsUnderLoadWithFaults) {
  // seq_modulus 8 with window 3: fifty frames wrap the circle six times
  // while drops punch holes at every offset; accounting still closes.
  NetConfig cfg;
  cfg.virtual_clock = true;
  cfg.arq = ArqPolicy::windowed(3);
  cfg.arq.seq_modulus = 8;
  cfg.arq.coalesce = false;
  cfg.faults.seed = 33;
  cfg.faults.drop = 0.2;
  const WireStats w1 = run_session(cfg, 2, 50);
  const WireStats w2 = run_session(cfg, 2, 50);
  EXPECT_GT(w1.retransmissions, 0u);
  EXPECT_EQ(w1.retransmissions, w2.retransmissions);
}

TEST(NetArq, VirtualClockRejectsSocketTransport) {
  NetConfig cfg;
  cfg.transport = TransportKind::kSocket;
  cfg.virtual_clock = true;
  try {
    NetSession session(2, cfg);
    FAIL() << "virtual clock over kernel sockets must be a setup error";
  } catch (const NetError& e) {
    EXPECT_EQ(e.kind(), NetErrorKind::kSetup);
  }
}

// ---- coalescing -------------------------------------------------------------

TEST(NetArq, CoalescedSessionPreservesAccountingAndMessageCounts) {
  NetConfig cfg;  // windowed default: coalescing on
  const std::size_t k = 3;
  NetSession session(k, cfg);
  Transcript t(k, 4096);
  {
    const ChannelSinkScope scope(&session);
    Channel ch(t);
    for (std::size_t i = 0; i < 200; ++i) {
      ch.charge(i % k, Direction::kPlayerToCoordinator, 8 + i % 16, /*phase=*/i / 100);
    }
  }
  const WireStats w = session.finish();
  verify_accounting(t, w);  // per player, per direction, per message, per phase
  EXPECT_EQ(w.messages(), 200u);
  EXPECT_LT(w.frames_delivered, w.messages()) << "coalescing must actually batch";
}

TEST(NetArq, PhaseChangeFlushesBeforeTheNextCharge) {
  // Charges in phase 0 then phase 1: the phase barrier drains the pipeline,
  // so no frame can mix phases and phase tallies stay exact per phase.
  NetConfig cfg;
  NetSession session(2, cfg);
  Transcript t(2, 4096);
  {
    const ChannelSinkScope scope(&session);
    Channel ch(t);
    for (int round = 0; round < 4; ++round) {
      for (int i = 0; i < 10; ++i) {
        ch.charge(0, Direction::kPlayerToCoordinator, 32,
                  static_cast<std::uint64_t>(round));
      }
    }
  }
  const WireStats w = session.finish();
  verify_accounting(t, w);
  ASSERT_EQ(w.phase_bits.size(), 4u);
  for (const std::uint64_t bits : w.phase_bits) EXPECT_EQ(bits, 320u);
}

}  // namespace
}  // namespace tft::net

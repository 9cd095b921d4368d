#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "net/frame.h"

/// \file arq.h
/// Sliding-window ARQ: the policy knobs (window and retry), the per-link
/// sender/receiver tallies, sequence-number arithmetic, the cumulative +
/// selective acknowledgement codec, the coalesced-batch frame codec, and
/// the pure per-link sender/receiver window state machines the shared
/// servicer (net/servicer.h) drives.
///
/// Everything here is single-threaded and I/O-free — the state machines
/// consume frames and emit verdicts, which makes the wraparound / ack-
/// reordering / duplicate-SACK edge cases unit-testable without threads,
/// pipes or clocks (test_net_arq.cpp).
///
/// Sequence numbers live on the circle [0, seq_modulus) and are compared
/// with serial arithmetic: `seq_dist(from, to)` is the forward distance.
/// A receiver classifies an arriving seq s against next_expected e by
/// d = seq_dist(e, s):
///   d == 0            in order: accept, advance, drain buffered successors
///   0 <  d < window   ahead but legal: buffer (duplicate if already there)
///   window <= d < M/2 protocol error: the sender overran its own window
///   d >= M/2          behind: an old duplicate — discard but re-ack
/// `validate()` enforces 2*window <= seq_modulus so the bands cannot
/// overlap.
///
/// ## Shard-locality audit (sharded servicer)
///
/// Nothing in this file is shared across servicer shards. The audit, kept
/// current whenever state is added here:
///   - ArqPolicy: immutable configuration, copied into each window at
///     construction — read-only after validate().
///   - ArqSenderWindow / ArqReceiverWindow: owned by exactly one
///     SharedServicer::LinkState; a link belongs to exactly one session and
///     a session is pinned to one shard for life, so every window is only
///     ever touched under its shard's mutex by its shard's poller (or by a
///     driving thread holding that same mutex).
///   - ChargeRec open batches and charge logs: not shared at all. They live
///     in the session's driver-owned lanes (SessionState::lanes), which
///     only the session's one driving thread touches, without the mutex;
///     a batch becomes a frame, and gets its sequence number, only under
///     the mutex.
///   - Entry/Frame deques and the SACK map: per-window containers, no
///     statics, no globals, no allocator state beyond the default heap.
///   - Free functions (seq_dist, codec helpers): pure; scratch buffers are
///     caller-provided (the shard's own).
/// Consequently the state machines need no atomics and no per-frame locks
/// regardless of num_shards — the shard boundary is the synchronization
/// domain, which is what keeps per-session byte streams bit-exact at any
/// shard count.

namespace tft::net {

struct RetryPolicy {
  std::chrono::microseconds base_timeout{50'000};
  double backoff = 2.0;
  std::uint32_t max_retries = 8;  ///< total attempts = max_retries + 1
  std::chrono::microseconds max_timeout{1'000'000};

  /// Crash-fault handling (net/recovery.h): a peer *declared* down is not a
  /// lossy link, so the sender stops retransmitting to it immediately — no
  /// exponential-backoff budget is burned — and if the peer has not resumed
  /// within `down_timeout` the session fails with a typed
  /// NetError(kPlayerDown) after ONE bounded wait.
  std::chrono::microseconds down_timeout{200'000};

  [[nodiscard]] std::chrono::microseconds timeout_for(std::uint32_t attempt) const noexcept;
};

struct SenderStats {
  std::uint64_t wire_bytes = 0;        ///< bytes written incl. retransmits/dups
  std::uint64_t retransmissions = 0;   ///< extra attempts beyond the first
  std::uint64_t duplicates_sent = 0;   ///< injected duplicate writes
  std::uint64_t acks_received = 0;
};

struct ReceiverStats {
  std::uint64_t frames = 0;        ///< unique data/relay/batch frames accepted
  std::uint64_t messages = 0;      ///< charged messages delivered (>= frames with coalescing)
  std::uint64_t payload_bits = 0;  ///< sum of accepted frames' charged bits
  std::uint64_t duplicates = 0;    ///< retransmits discarded by seq dedup
  std::uint64_t corrupt = 0;       ///< CRC/codec/filler failures discarded
  std::uint64_t player_down_frames = 0;  ///< out-of-band kPlayerDown notices seen
  std::uint64_t resume_frames = 0;       ///< out-of-band kResume notices seen
  std::vector<std::uint64_t> phase_bits;  ///< per-phase accepted bits
};

struct ArqPolicy {
  std::uint32_t window = 32;        ///< max unacked frames in flight per link
  std::uint32_t seq_modulus = std::uint32_t{1} << 16;  ///< seq wraps mod this
  bool coalesce = true;             ///< pack several charges into one frame
  std::uint32_t max_batch_msgs = 64;           ///< charges per coalesced frame
  std::uint64_t max_batch_bits = std::uint64_t{1} << 20;  ///< payload cap per batch
  bool block_per_frame = false;     ///< enqueue waits for the ack (stop-and-wait)
  std::uint32_t pending_cap = 64;   ///< sealed frames queued past the window

  /// The pipelined default: window W, coalescing on.
  [[nodiscard]] static ArqPolicy windowed(std::uint32_t w = 32) noexcept {
    ArqPolicy p;
    p.window = w;
    return p;
  }

  /// Stop-and-wait: one frame in flight, no coalescing, enqueue blocks for
  /// the ack. The huge modulus means seq never wraps. Its wire is frozen:
  /// NetArq.StopAndWait* pin its data and ack byte streams as inlined hex,
  /// recorded from the one-thread-per-link engine this policy replaced.
  [[nodiscard]] static ArqPolicy stop_and_wait() noexcept {
    ArqPolicy p;
    p.window = 1;
    p.seq_modulus = std::uint32_t{1} << 30;
    p.coalesce = false;
    p.block_per_frame = true;
    p.pending_cap = 1;
    return p;
  }

  /// Throws NetError(kSetup) on an unusable combination (zero window,
  /// wraparound bands overlapping, empty batches).
  void validate() const;
};

/// Forward distance from `from` to `to` on the circle [0, modulus).
[[nodiscard]] constexpr std::uint32_t seq_dist(std::uint32_t from, std::uint32_t to,
                                               std::uint32_t modulus) noexcept {
  return (to >= from ? to - from : modulus - from + to) % modulus;
}

/// One acknowledgement as it travels the wire: `cumulative` is the highest
/// in-order sequence accepted so far (next_expected - 1 mod M; M - 1 before
/// anything arrived at next_expected == 0 — the sender's serial arithmetic
/// reads that as "no news"), `sacks` the out-of-order frames buffered above
/// it. A SACK-free ack is a bare kAck header, the stop-and-wait ack.
struct AckInfo {
  std::uint32_t cumulative = 0;
  std::vector<std::uint32_t> sacks;  ///< ascending seq_dist from cumulative+1
};

/// Ack frame codec. Payload, present only when sacks exist: gamma(count),
/// then per sack the gamma-coded distance from cumulative+1.
[[nodiscard]] Frame make_ack_frame(std::uint32_t src, std::uint32_t dst, const AckInfo& info,
                                   std::uint32_t seq_modulus);
/// Throws NetError(kCorrupt) on a malformed SACK payload.
[[nodiscard]] AckInfo decode_ack_frame(const Frame& f, std::uint32_t seq_modulus);

/// One coalesced charge inside a kBatch frame.
struct ChargeRec {
  std::uint64_t phase = 0;
  std::uint64_t bits = 0;
};

/// Batch frame codec. Payload: gamma(count), then per charge gamma(phase)
/// gamma(bits) followed by `bits` of deterministic filler keyed by
/// ((src<<32)|dst, (seq<<32)|index, bits) — session-folded when the frame
/// belongs to a multiplexed session — the per-message analogue of the kData
/// filler, so receivers still verify every charged bit behind the CRC.
/// `payload_bits` is the exact encoded bit length.
[[nodiscard]] Frame make_batch_frame(std::uint32_t src, std::uint32_t dst, std::uint32_t seq,
                                     const std::vector<ChargeRec>& charges,
                                     std::uint32_t session = 0);
/// Decode + verify the filler inline. Returns false (corrupt) on any
/// malformed count/record/filler mismatch; never throws.
[[nodiscard]] bool decode_batch_frame(const Frame& f, std::vector<ChargeRec>& out);
/// The records of a batch decode_batch_frame has already verified: the
/// same walk, stepping over each record's filler instead of comparing it.
[[nodiscard]] bool batch_frame_records(const Frame& f, std::vector<ChargeRec>& out);

/// Sender half of one link's window: sealed frames are admitted up to
/// `window` in flight, acknowledged cumulatively and selectively, and
/// reported back for retransmission when their (caller-managed) deadlines
/// expire. Time lives outside: entries carry an opaque deadline in
/// microseconds (real or virtual) the servicer assigns.
class ArqSenderWindow {
 public:
  struct Entry {
    std::uint32_t seq = 0;
    Frame frame;
    std::uint32_t attempts = 0;      ///< transmissions so far (>= 1 once sent)
    std::uint64_t deadline_us = 0;   ///< retransmit when now >= deadline
    bool acked = false;              ///< SACKed: delivered, awaiting cumulative
  };

  explicit ArqSenderWindow(const ArqPolicy& policy) noexcept
      : window_(policy.window), modulus_(policy.seq_modulus) {}

  [[nodiscard]] bool has_space() const noexcept { return entries_.size() < window_; }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] std::size_t in_flight() const noexcept { return entries_.size(); }

  /// Admit a sealed frame (its header.seq already assigned in order).
  /// Caller must check has_space() first.
  Entry& admit(Frame f);

  /// Apply one acknowledgement. Returns the number of entries retired
  /// (cumulative advance); stale and duplicate acks return 0 harmlessly.
  std::size_t on_ack(const AckInfo& info);

  /// Entries whose deadline has passed and that are not SACKed — the
  /// retransmission set at `now_us`.
  void due(std::uint64_t now_us, std::vector<Entry*>& out);

  /// Earliest deadline among unacked entries; false when none in flight.
  [[nodiscard]] bool next_deadline(std::uint64_t& out) const noexcept;

  [[nodiscard]] std::uint32_t base() const noexcept { return base_; }

  /// Crash recovery (net/recovery.h): forget every in-flight entry and
  /// rebase the window at `base` — the checkpointed next_seq. The servicer
  /// replays the charge log afterwards, regenerating the same frames with
  /// the same sequence numbers, so the rewound window is indistinguishable
  /// from one that never advanced past the barrier.
  void reset(std::uint32_t base) noexcept {
    entries_.clear();
    base_ = base;
  }

 private:
  std::uint32_t window_;
  std::uint32_t modulus_;
  std::uint32_t base_ = 0;  ///< seq of the oldest in-flight entry
  std::deque<Entry> entries_;
};

/// Receiver half: classifies arrivals, buffers out-of-order frames, hands
/// back the in-order run to deliver, and describes the ack to send.
class ArqReceiverWindow {
 public:
  enum class Verdict {
    kInOrder,    ///< accept now; call take_deliverable() for the full run
    kBuffered,   ///< out of order, stashed; ack with a SACK
    kDuplicate,  ///< already delivered or already buffered; re-ack
    kOverrun,    ///< sender violated its window: protocol error
  };

  explicit ArqReceiverWindow(const ArqPolicy& policy) noexcept
      : window_(policy.window), modulus_(policy.seq_modulus) {}

  [[nodiscard]] Verdict on_frame(Frame f);

  /// Drain the in-order run (the just-accepted frame plus any buffered
  /// successors it released), in sequence order.
  [[nodiscard]] std::vector<Frame> take_deliverable();

  /// The acknowledgement describing the current state (send after every
  /// intact arrival, whatever the verdict).
  [[nodiscard]] AckInfo ack() const;

  [[nodiscard]] std::uint32_t next_expected() const noexcept { return next_expected_; }

  /// Crash recovery: drop buffered/undelivered frames and rewind to the
  /// checkpointed next_expected. Everything the rewound sender replays from
  /// that point is classified in order again, exactly as on first delivery.
  void reset(std::uint32_t next_expected) noexcept {
    buffered_.clear();
    deliverable_.clear();
    next_expected_ = next_expected;
  }

 private:
  std::uint32_t window_;
  std::uint32_t modulus_;
  std::uint32_t next_expected_ = 0;
  std::map<std::uint32_t, Frame> buffered_;  ///< keyed by absolute seq
  std::vector<Frame> deliverable_;
};

}  // namespace tft::net

#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "comm/channel.h"
#include "net/arq.h"
#include "net/checkpoint.h"
#include "net/error.h"
#include "net/fault.h"
#include "net/recovery.h"
#include "net/session.h"
#include "net/transport.h"

/// \file servicer.h
/// The shared event-driven servicer: N poller threads (Options::num_shards,
/// default 1) drain every link of every live session — admitting sealed
/// frames into each link's ARQ window, writing wire bytes (never blocking:
/// partial writes park in per-link out-buffers), parsing arrivals,
/// acknowledging, forwarding relayed messages, and retransmitting on
/// timeout. It replaces the 2k LinkServicer threads of the stop-and-wait
/// engine, and — since the session table landed — also the
/// one-servicer-per-NetSession topology: many concurrent sessions multiplex
/// over one servicer and one shared transport. The session is the only unit
/// of work: every link belongs to exactly one session.
///
/// ## Shards
///
/// Each shard is a self-contained copy of the original single-threaded
/// engine: its own mutex, condvars, link table, session table, free-slot
/// list, virtual clock and scratch buffers. A session is pinned to exactly
/// one shard at open_session (session_id % num_shards, or the explicit
/// SessionOptions::shard_affinity hint), and all 2k of its links live
/// there — so per-session determinism, phase-barrier flushing and
/// crash/replay logic are untouched by sharding: within a shard the code
/// IS the single-threaded servicer. `num_shards = 1` takes exactly the
/// legacy code paths (no charge ring, no hub, no spin) and is byte-identical
/// to the pre-shard servicer — the permanent A/B reference.
///
/// With num_shards > 1 the driving threads gain a lock-free fast path:
/// eligible charges (same phase, no crash schedule, queue below the
/// backpressure cap) are pushed onto the shard's bounded MPSC ring
/// (net/mpsc.h) and sealed by the poller in FIFO order — which, one driver
/// per session, equals the driver's program order, preserving the
/// "frame stream is a pure function of the charge stream" anchor. Anything
/// else (phase barriers, crash-tolerant sessions with a crash schedule,
/// backpressure, flush, close) takes the classic locked slow path, which
/// first waits for the session's in-flight ring entries to be consumed so
/// per-link charge order is never reordered across the two paths. Idle
/// pollers spin briefly on the ring before parking on their condvar; a
/// parked flag with a seq_cst fence makes the producer-side wakeup
/// race-free.
///
/// ## Virtual-clock mode (Options::virtual_clock, in-proc only)
///
/// No real timer ever fires. Logical time advances only at *quiescence* —
/// the sweep moved nothing and every live session's driving thread is
/// blocked — jumping straight to the earliest retransmit deadline. At
/// quiescence every delivered ack has been processed, so a frame is
/// retransmitted iff no attempt so far delivered; attempt fates are pure
/// functions of (session, link, seq, attempt); hence retransmission counts
/// are exactly reproducible run to run — what lets bench_net's fault grid
/// live in the committed baseline. With multiple shards, quiescence is
/// global: a VClockHub (net/vclock_hub.h) advances the one logical clock
/// only when every shard has published local quiescence (drivers blocked,
/// ring drained, sweep idle), to the minimum actionable deadline across
/// shards — so per-session fault counts stay bit-identical at any shard
/// count (only WireStats::virtual_time_us, which was never part of the
/// cross-config contract, may differ).
///
/// ## Sessions
///
/// A *session* (net/session.h) is a value-type row in its shard's table:
/// open_session registers 2k links for k players (up then down, the same
/// intra-session link-id numbering as a solo run); session_charge seals a
/// charge (with the per-session phase barrier and crash controller folded
/// in), session_relay seals a Section 2 relay frame that the servicer
/// forwards to the recipient's down link, session_flush is the phase
/// barrier, and close_session drains, folds that session's WireStats and
/// retires its links. Failures with link context (timeout, overrun,
/// player-down, a bad relay recipient) are *contained*: they fail only the
/// owning session — its links go inactive, its driver's waits throw the
/// session's typed error — while every other session keeps draining. Only
/// an exception that escapes a poller with no link to blame aborts the
/// servicer globally (rethrow_error).
///
/// Session handles returned by open_session encode the shard: handle =
/// local_index * num_shards + shard. At num_shards = 1 the handle equals
/// the table index.

namespace tft::net {

class VClockHub;

class SharedServicer {
 public:
  struct Options {
    ArqPolicy arq;
    RetryPolicy retry;
    FaultPlan faults;
    bool virtual_clock = false;
    /// Kernel-buffered transport: the servicer cannot assume "nothing
    /// readable unless I wrote it", so quiescent waits recheck on a timer.
    bool timed_recheck = false;
    /// Unused: crash tolerance is per session (SessionOptions::
    /// crash_tolerance), and nothing reads this field. It stays so that
    /// callers that still assign it (perfbench/src/workloads.cpp) compile.
    bool crash_tolerance = false;
    /// Independent poller shards. 1 (the default) is the single-threaded
    /// servicer, byte for byte; N > 1 scales the service plane across N
    /// cores while keeping every session's transcript and accounting
    /// bit-exact (sessions never span shards). Values < 1 are clamped.
    std::size_t num_shards = 1;
  };

  explicit SharedServicer(const Options& opts);
  ~SharedServicer();  ///< stops and joins without draining (abandon)

  SharedServicer(const SharedServicer&) = delete;
  SharedServicer& operator=(const SharedServicer&) = delete;

  void start();

  // ---- session table ------------------------------------------------------

  struct SessionOptions {
    std::size_t num_players = 0;
    /// Wire session id: 0 for the single-session runtime (v1 frames),
    /// >= 1 for multiplexed service sessions. Must be unique among the
    /// servicer's *open* sessions.
    std::uint32_t session_id = 0;
    std::uint64_t seed = 0;        ///< carried inside player checkpoints
    bool crash_tolerance = false;  ///< charge logs + barrier checkpoints
    /// Per-session fault plan; nullopt inherits Options::faults. Decisions
    /// key on (session, link, seq), so two sessions sharing a plan still
    /// draw independent fates.
    std::optional<FaultPlan> faults;
    /// Shard placement hint: 0 (default) routes by session_id % num_shards;
    /// s >= 1 pins the session to shard (s - 1) % num_shards. Placement
    /// never changes the session's bytes or accounting — only which poller
    /// core serves it.
    std::uint32_t shard_affinity = 0;
  };

  /// Register a session: mints 2k links from `transport` (outside the lock
  /// — socket transports may block) and appends a session row to the
  /// routed shard's table. Allowed before or after start(). Returns the
  /// session handle (shard-encoded; equal to the table index at
  /// num_shards = 1).
  std::size_t open_session(Transport& transport, const SessionOptions& so);

  /// Runs the session's phase barrier when `phase` changes, evaluates its
  /// crash schedule, seals the charge onto the addressed link and applies
  /// backpressure. Throws the session's typed error if it failed. With
  /// num_shards > 1, eligible charges take the shard's lock-free ring
  /// instead of the mutex.
  void session_charge(std::size_t session, std::size_t player, bool upstream,
                      std::uint64_t bits, std::uint64_t phase);

  /// The Section 2 relay: seal one kRelay frame (fixed-width recipient id +
  /// `bits` of message filler) on `player`'s up link, with session_charge's
  /// backpressure. The servicer forwards each accepted relay frame as a
  /// solo kData frame of `bits` onto `recipient`'s down link in the same
  /// session. Relay frames never coalesce, so the measured overhead stays
  /// per message, and are not charge-logged, so crash recovery does not
  /// replay them.
  void session_relay(std::size_t session, std::size_t player, std::size_t recipient,
                     std::uint64_t bits);

  /// Phase barrier: seal + drain only this session's links; under crash
  /// tolerance, snapshot its barrier checkpoints.
  void session_flush(std::size_t session);

  /// Drain (best effort), fold and return this session's WireStats, retire
  /// its links and free its driver slot. Idempotent; never throws a session
  /// error — a failed session folds whatever crossed the wire, and the
  /// caller surfaces the failure via rethrow_session_error.
  WireStats close_session(std::size_t session);

  /// Throws the session's recorded NetError, if any.
  void rethrow_session_error(std::size_t session) const;

  /// The player's latest barrier checkpoint bytes (crash tolerance only).
  [[nodiscard]] const std::vector<std::uint8_t>& session_checkpoint_bytes(
      std::size_t session, std::size_t player) const;

  /// close_session every session still open (no driver may act after
  /// this call), then stop and join every shard. Never throws: session
  /// failures stay with their sessions (rethrow_session_error), poller
  /// failures with rethrow_error. Idempotent.
  void finish() noexcept;

  /// Throws the first shard's recorded NetError, if any (shards checked in
  /// index order).
  void rethrow_error() const;

  /// Link-table slots across all shards, reclaimed ones included.
  [[nodiscard]] std::size_t num_links() const noexcept;

 private:
  struct LinkState;
  struct SessionRt;
  struct Shard;
  struct ChargeCmd;

  [[nodiscard]] std::size_t shard_for(std::uint32_t session_id,
                                      std::uint32_t affinity) const noexcept;

  void run(Shard& sh) noexcept;
  std::size_t drain_charges(Shard& sh);
  void wake_shard(Shard& sh);
  void park_and_wait(Shard& sh, std::unique_lock<std::mutex>& lock,
                     std::chrono::microseconds dur);
  bool sweep(Shard& sh, std::uint64_t now_us);
  void transmit(LinkState& link, ArqSenderWindow::Entry& entry, std::uint64_t now_us);
  bool retransmit_due(Shard& sh, std::uint64_t now_us);
  bool advance_virtual_clock(Shard& sh);
  [[nodiscard]] bool earliest_deadline(const Shard& sh, std::uint64_t& out) const noexcept;
  void check_down(Shard& sh, std::uint64_t now_us);
  void wait_for_space(Shard& sh, std::unique_lock<std::mutex>& lock, LinkState& link);
  SessionRt& enter_session_locked(Shard& sh, std::unique_lock<std::mutex>& lock,
                                  std::size_t local, std::size_t player);
  void drain_session_ring_locked(Shard& sh, std::unique_lock<std::mutex>& lock, SessionRt& rt);
  void session_barrier_locked(Shard& sh, std::unique_lock<std::mutex>& lock, SessionState& ss);
  void refresh_session_checkpoints_locked(Shard& sh, SessionState& ss);
  void maybe_crash_locked(Shard& sh, SessionRt& rt, std::size_t player, std::uint64_t phase);
  /// Kill `player` between two charges: its up link stops sending, its down
  /// link stops receiving and fences its ack epoch, and a kPlayerDown frame
  /// goes out on the down link.
  void crash_player_locked(Shard& sh, std::size_t up_index, std::size_t down_index,
                           std::uint32_t player, std::uint64_t phase);
  /// Resurrect a crashed player from its barrier checkpoint: rewind both
  /// lanes, send kResume on the up link and replay the charge logs. Throws
  /// NetError(kProtocol) when the replay would alias sequence numbers.
  void recover_player_locked(Shard& sh, std::size_t up_index, std::size_t down_index,
                             const PlayerCheckpoint& ck,
                             std::span<const std::uint8_t> checkpoint_bytes, SessionState& ss);
  static void release_driver_locked(Shard& sh, SessionState& ss) noexcept;
  /// Fail the link's session: its links retire and its driver's waits throw.
  void fail_session_locked(Shard& sh, const LinkState& link, NetErrorKind kind,
                           std::string what) noexcept;
  void throw_if_session_failed_locked(const SessionState& ss) const;
  [[nodiscard]] bool session_drained_locked(const Shard& sh,
                                            const SessionState& ss) const noexcept;
  void handle_data_frame(Shard& sh, LinkState& link, Frame f);
  void handle_control_frame(LinkState& link, const Frame& f);
  void accept_frame(Shard& sh, LinkState& link, const Frame& f);
  void seal_open_batch(LinkState& link);
  void seal_data_frame(LinkState& link, std::uint64_t phase, std::uint64_t bits);
  void seal_charge(LinkState& link, std::uint64_t phase, std::uint64_t bits);
  static void note_depth(LinkState& link) noexcept;
  void append_control_frame(LinkState& link, const Frame& f);
  void restore_sender(LinkState& link, const LinkCheckpoint& ck);
  void restore_receiver(LinkState& link, const LinkCheckpoint& ck);
  [[nodiscard]] bool suppressed_sender(const LinkState& link) const noexcept;
  [[nodiscard]] bool all_drained(const Shard& sh) const noexcept;
  [[nodiscard]] bool anything_unacked(const Shard& sh) const noexcept;
  void record_error(Shard& sh, NetErrorKind kind, std::string what) noexcept;
  void throw_if_error_locked(const Shard& sh) const;
  [[nodiscard]] std::uint64_t now_us(const Shard& sh) const noexcept;

  Options opts_;
  std::size_t num_shards_ = 1;
  /// True iff num_shards_ > 1: gates the MPSC fast path, the poller spin
  /// and the hub, so a single-shard servicer takes exactly the legacy code
  /// paths.
  bool multi_shard_ = false;
  /// One engine per shard (pointer-stable; the Shard definition lives in
  /// servicer.cpp next to LinkState).
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Cross-shard virtual-clock barrier; only with virtual_clock and
  /// num_shards > 1.
  std::unique_ptr<VClockHub> hub_;
  bool started_ = false;
  bool finished_ = false;
  Clock::time_point epoch_;
};

/// ChannelSink view of one multiplexed session: a service worker installs
/// one (ChannelSinkScope) so its protocol body's charges flow into its own
/// session of the shared servicer. NetSession is the session-0 equivalent
/// with transport ownership and lifecycle folded in.
class SessionSink final : public ChannelSink {
 public:
  SessionSink(SharedServicer* servicer, std::size_t session) noexcept
      : servicer_(servicer), session_(session) {}

  void on_charge(std::size_t player, Direction dir, std::uint64_t bits,
                 std::uint64_t phase) override {
    servicer_->session_charge(session_, player, dir == Direction::kPlayerToCoordinator, bits,
                              phase);
  }
  void on_flush() override { servicer_->session_flush(session_); }

 private:
  SharedServicer* servicer_;
  std::size_t session_;
};

}  // namespace tft::net

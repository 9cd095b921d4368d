#pragma once

#include <cstdint>
#include <optional>
#include <vector>

/// \file fault.h
/// Deterministic seeded fault injection at the channel layer.
///
/// Every decision is a pure function of (plan.seed, session, link_id, seq,
/// attempt): the same plan corrupts the same attempts of the same frames no
/// matter how threads are scheduled or which transport carries the bytes —
/// and, in the multiplexed service runtime, no matter which other sessions
/// share the transport (the session id folds into the seed, identity for
/// session 0, so single-session decisions are bit-identical to pre-session
/// builds). That is
/// the determinism contract the fault tests assert — delivered bit totals
/// and protocol verdicts are reproducible under a fixed seed at any thread
/// count (retransmission *counts* may additionally grow under scheduler
/// pressure; delivered frames never change, because the receiver
/// deduplicates by sequence number).
///
/// ## Crash schedule grammar
///
/// Crashes are a third fault class next to the per-attempt coin flips and
/// the surgical drop mask, keyed on (player, phase, offset):
///
///   crash point := (player, phase, offset)
///   offset      := how many of that player's charges in that phase have
///                  been enqueued when the player dies. offset 0 kills the
///                  player AT the phase barrier (checkpoint fresh, replay
///                  empty); offset o > 0 kills it mid-window, after o
///                  charges of the phase are already in the pipeline.
///
/// Two schedule sources compose (surgical entries win):
///
///   * `crash_schedule` — an explicit list of crash points, the chaos
///     harness's scalpel: place exactly one death at an exact point.
///   * `crash` / `crash_max_offset` — the seeded coin: player p dies in
///     phase f with probability `crash`, at offset
///     mix_hash(seed, player, phase) % (crash_max_offset + 1). Like
///     drop/dup/flip, the whole schedule is a pure function of `seed` —
///     a chaos run is replayable from one integer.
///
/// `crash_resurrect` selects between the recovery path (the dead player
/// respawns from its checkpoint and the charge log is replayed — the
/// default) and a permanent death (the session must surface a typed
/// NetError(kPlayerDown) once RetryPolicy::down_timeout passes). The
/// decision function is `crash_offset` below; the session runtime
/// (net/runtime.h) evaluates it between charges, so a crash never tears a
/// frame in half — exactly the failure model of a process killed between
/// syscalls.

namespace tft::net {

/// One surgical crash point (see the schedule grammar above).
struct CrashEvent {
  std::uint32_t player = 0;
  std::uint64_t phase = 0;
  std::uint64_t offset = 0;
};

struct FaultPlan {
  std::uint64_t seed = 0;
  double drop = 0.0;       ///< P[attempt never reaches the wire]
  double duplicate = 0.0;  ///< P[attempt is written twice back-to-back]
  double bit_flip = 0.0;   ///< P[one body bit is flipped in flight]
  double delay = 0.0;      ///< P[attempt is delayed by delay_us]
  std::uint32_t delay_us = 0;
  /// Bit s set => attempt 0 of sequence number s (s < 64) is dropped on
  /// every link, unconditionally. A surgical knob for tests that want a
  /// loss at an exact window position rather than a seeded coin flip.
  std::uint64_t drop_first_attempt_mask = 0;

  // -- crash schedule (grammar documented above) ----------------------------
  double crash = 0.0;                    ///< P[player p dies in phase f], per (seed,p,f)
  std::uint64_t crash_max_offset = 8;    ///< seeded deaths land at hash % (this+1)
  bool crash_resurrect = true;           ///< false: the dead stay dead (fail-fast tests)
  std::vector<CrashEvent> crash_schedule;  ///< surgical crash points (win over the coin)

  [[nodiscard]] bool any() const noexcept {
    return drop > 0.0 || duplicate > 0.0 || bit_flip > 0.0 || delay > 0.0 ||
           drop_first_attempt_mask != 0;
  }

  [[nodiscard]] bool has_crashes() const noexcept {
    return crash > 0.0 || !crash_schedule.empty();
  }
};

/// The (pure) crash fate of (player, phase) under `plan`: the scheduled
/// offset if the player dies in that phase, nullopt otherwise. Surgical
/// `crash_schedule` entries take precedence; the seeded draw keys on
/// mix_hash(seed, player, phase) exactly like the per-attempt fault
/// classes, so chaos runs replay from the seed alone.
[[nodiscard]] std::optional<std::uint64_t> crash_offset(const FaultPlan& plan,
                                                        std::uint32_t player,
                                                        std::uint64_t phase,
                                                        std::uint32_t session = 0) noexcept;

struct FaultDecision {
  bool drop = false;
  bool duplicate = false;
  bool bit_flip = false;
  bool delay = false;
  /// Which body bit to flip (mod the frame's body size; the length prefix
  /// is never touched so the stream stays parseable).
  std::uint64_t flip_bit = 0;
};

class FaultInjector {
 public:
  FaultInjector(const FaultPlan& plan, std::uint32_t link_id,
                std::uint32_t session = 0) noexcept
      : plan_(plan), link_id_(link_id), session_(session) {}

  /// The (pure, deterministic) fate of one send attempt, keyed on
  /// (session, link, seq, attempt).
  [[nodiscard]] FaultDecision decide(std::uint32_t seq, std::uint32_t attempt) const noexcept;

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] std::uint32_t session() const noexcept { return session_; }

 private:
  FaultPlan plan_;
  std::uint32_t link_id_;
  std::uint32_t session_ = 0;
};

}  // namespace tft::net

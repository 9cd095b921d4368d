#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/arq.h"
#include "net/checkpoint.h"
#include "net/error.h"
#include "net/fault.h"

/// \file session.h
/// Per-session state of the multiplexed transport runtime: everything one
/// testing session owns — its wire id, link range, phase cursor, open
/// batches and charge logs, crash-controller state, error containment and
/// folded results — lives in a plain struct the SharedServicer keeps in a
/// table. No threads, no pipes, no references: a session is data, and "one
/// servicer thread drains all links of all live sessions" falls out of the
/// servicer iterating that table. The driving half of a row (phase cursor,
/// open batches, charge logs, crash counts) belongs to the session's one
/// driving thread, so a charge touches the shard lock only when it seals a
/// frame, crosses a phase barrier or hits a scheduled crash.
///
/// `NetSession` (net/runtime.h) is the single-session view: it opens one
/// session with the reserved wire id 0 and forwards charges to it, so the
/// classic one-protocol-per-transport runs are byte-identical to pre-session
/// builds. The service layer (src/service/) opens many sessions with ids
/// >= 1 over one shared servicer.

namespace tft::net {

/// What actually crossed the wire, per player and direction — the executed
/// counterpart of the Transcript's tallies, plus transport-level truth
/// (header/ack/retransmit bytes) the idealized accounting abstracts away.
struct WireStats {
  std::vector<std::uint64_t> up_bits;    ///< delivered charged bits, player j -> C
  std::vector<std::uint64_t> down_bits;  ///< delivered charged bits, C -> player j
  std::vector<std::uint64_t> up_msgs;
  std::vector<std::uint64_t> down_msgs;
  std::vector<std::uint64_t> phase_bits;
  std::uint64_t wire_bytes = 0;  ///< framed bytes written incl. retransmits
  std::uint64_t retransmissions = 0;
  std::uint64_t duplicates = 0;      ///< frames discarded by seq dedup
  std::uint64_t corrupt_frames = 0;  ///< frames discarded by CRC/codec checks
  std::uint64_t acks = 0;
  std::uint64_t frames_delivered = 0;  ///< unique wire frames accepted (<= messages when coalescing)
  std::uint64_t virtual_time_us = 0;   ///< final logical clock (virtual-clock mode only)
  std::uint64_t crashes = 0;            ///< players killed by the crash schedule
  std::uint64_t player_down_frames = 0; ///< out-of-band kPlayerDown notices delivered
  std::uint64_t resume_frames = 0;      ///< out-of-band kResume notices delivered
  std::uint64_t replayed_charges = 0;   ///< charges re-sealed by recovery replay

  /// Note: messages() counts *charged* messages delivered, so it equals the
  /// Transcript's message count even when several charges share one frame.
  [[nodiscard]] std::uint64_t payload_bits() const noexcept;
  [[nodiscard]] std::uint64_t messages() const noexcept;
  [[nodiscard]] std::string summary() const;
};

/// One directed link's driving-side state: the open batch that charges
/// coalesce into, and (crash tolerance only) the charges since the last
/// barrier. Owned by the session's driving thread, never by the poller.
struct DriverLane {
  std::vector<ChargeRec> open_batch;
  std::uint64_t open_batch_bits = 0;
  /// Recovery's source of truth: the barrier checkpoint plus this log
  /// regenerate the lane's frame stream bit for bit.
  std::vector<ChargeRec> charge_log;
};

/// One live (or closed) session in the servicer's table. Never aliased
/// across sessions, and pointer-stable for the servicer's lifetime, so a
/// driver resolves its row once (SharedServicer::session_row) and charges
/// through it. Links [link_base, link_base + 2k) belong to this session: up
/// links first (player j -> coordinator at link_base + j), then down links
/// (coordinator -> player j at link_base + k + j) — the same intra-session
/// link-id numbering as a solo NetSession, so a session multiplexed among
/// others sees byte-identical frames to the same session run alone.
///
/// The fields fall in three groups by who may touch them.
struct SessionState {
  // Set once by open_session under the shard mutex, read-only after.
  std::uint32_t id = 0;        ///< wire session id (0 reserved for NetSession)
  std::size_t k = 0;           ///< players in this session
  std::size_t shard = 0;       ///< the shard whose table holds this row
  std::size_t link_base = 0;   ///< first index of this session's 2k links
  std::uint64_t seed = 0;      ///< carried inside player checkpoints
  bool crash_tolerance = false;
  FaultPlan faults;            ///< this session's plan (crash schedule + link faults)

  // Driver-owned: only the session's driving thread reads or writes these,
  // without the shard mutex (close_session frees them once no driver acts).
  std::uint64_t last_phase = 0;
  std::vector<DriverLane> lanes;  ///< 2k, in the session's link order
  /// Per (player, phase) charge counts — the crash grammar's offset
  /// coordinate (net/fault.h).
  std::vector<std::vector<std::uint64_t>> charge_counts;

  /// Raised under the shard mutex when the session fails or closes. A
  /// charge reads it without the lock and, if it is up, takes the lock to
  /// throw the session's typed error (kClosed after close).
  std::atomic<bool> halted{false};

  // Guarded by the shard mutex.
  bool closed = false;           ///< close_session ran; `result` is final
  bool driver_released = false;  ///< no longer counted in live_drivers_

  /// Error containment: a failed session records its error here and stops,
  /// without touching the global error that aborts the whole servicer.
  /// Other sessions keep draining.
  std::optional<NetErrorKind> error_kind;
  std::string error_what;

  // Crash-controller state (the per-session half of net/recovery.h).
  std::uint64_t crashes = 0;
  std::uint64_t replayed = 0;  ///< charges re-sealed by recovery replay
  CheckpointStore ckpts{0};

  WireStats result;  ///< folded at close_session

  [[nodiscard]] bool failed() const noexcept { return error_kind.has_value(); }
};

}  // namespace tft::net

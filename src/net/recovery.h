#pragma once

#include <cstdint>
#include <span>

#include "net/checkpoint.h"
#include "net/frame.h"

/// \file recovery.h
/// The crash-recovery control plane: typed kPlayerDown / kResume frames and
/// their codecs.
///
/// Recovery protocol, end to end:
///
///   1. A player dies between two charges (net/fault.h crash schedule). Its
///      last checkpoint was written at the preceding phase barrier; the
///      charges it enqueued since then live in the per-link charge log.
///   2. The coordinator declares the death: a kPlayerDown frame travels the
///      down link, and the ARQ engine stops retransmitting to the corpse.
///      If nobody resumes within RetryPolicy::down_timeout, the session
///      fails with NetError(kPlayerDown).
///   3. The respawned player answers with kResume, whose payload is its
///      serialized PlayerCheckpoint (net/checkpoint.h). Both ends rewind
///      their lane halves to the barrier and the charge log is replayed.
///      Because the frame stream is a pure function of the charge stream,
///      the replayed bytes are bit-for-bit what the dead incarnation sent —
///      the receiver's window deduplicates anything already delivered.
///
/// Both frame types are out of band: they consume no ARQ sequence number
/// (their `seq` is a per-link control ordinal), are never acknowledged or
/// retransmitted, and contribute nothing to the charged-bit accounting —
/// `verify_accounting` holds unchanged on recovered runs. Epoch fencing
/// (the otherwise-unused `phase` header field of ack frames) keeps the dead
/// incarnation's stale acks from retiring rewound window entries.

namespace tft::net {

/// Decoded body of a kPlayerDown announcement.
struct PlayerDownNotice {
  std::uint32_t player = 0;  ///< who was declared dead
  std::uint64_t phase = 0;   ///< the phase the death was detected in
};

/// Build the coordinator -> player death announcement. `ctrl_seq` is the
/// link's control ordinal (independent of the ARQ window).
[[nodiscard]] Frame make_player_down_frame(std::uint32_t src, std::uint32_t dst,
                                           std::uint32_t ctrl_seq, std::uint32_t player,
                                           std::uint64_t phase);

/// Throws NetError(kCorrupt) on a malformed or trailing-garbage payload.
[[nodiscard]] PlayerDownNotice decode_player_down(const Frame& f);

/// Build the player -> coordinator resume announcement; the payload is the
/// encoded checkpoint verbatim (whole bytes, so payload_bits = 8 * size).
[[nodiscard]] Frame make_resume_frame(std::uint32_t src, std::uint32_t dst,
                                      std::uint32_t ctrl_seq,
                                      std::span<const std::uint8_t> checkpoint_bytes);

/// Throws NetError(kCorrupt) if the payload is not a valid checkpoint.
[[nodiscard]] PlayerCheckpoint decode_resume(const Frame& f);

}  // namespace tft::net

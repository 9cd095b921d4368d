#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

/// \file frame.h
/// The wire format of the executed transport: length-prefixed frames whose
/// headers are `comm/wire.h` bit streams (MSB-first, gamma-coded fields)
/// and whose payloads carry exactly the charged number of bits.
///
///   wire frame := [u32 LE body_len] [body] [u32 LE crc32(body)]
///   body       := header bits (BitWriter), padded to a byte boundary,
///                 then ceil(payload_bits / 8) payload bytes
///   header     := magic(16) type(3) src(γ) dst(γ) seq(γ) phase(γ)
///                 payload_bits(γ)                          (session id 0)
///   header v2  := magic2(16) session(γ, >= 1) type(3) src(γ) dst(γ)
///                 seq(γ) phase(γ) payload_bits(γ)          (session id > 0)
///
/// Session id 0 is *reserved* for the single-session runtime: a frame whose
/// session is 0 is encoded with the original magic and the original field
/// layout, so every pre-session golden frame, transcript and baseline byte
/// stream stays valid unchanged. Frames belonging to a multiplexed service
/// session (id >= 1) announce themselves with a distinct magic and carry the
/// gamma-coded id immediately after it; a v2 frame claiming session 0 is
/// corrupt (it must have used the v1 encoding).
///
/// `payload_bits` — not the padded byte count — is what the runtime tallies
/// against the Transcript, so the executed cost equals the charged cost
/// bit for bit. The CRC covers the whole body; receivers discard frames
/// that fail it (the ARQ layer retransmits). The length prefix is the
/// resynchronization anchor: the fault injector never corrupts it, so a
/// flipped body never desynchronizes the byte stream.

namespace tft {
class BitReader;
class BitWriter;
}  // namespace tft

namespace tft::net {

enum class FrameType : std::uint8_t {
  kData = 0,   ///< one charged protocol message (payload = deterministic filler)
  kRelay = 1,  ///< message-passing payload: recipient id + payload filler
  kAck = 2,    ///< cumulative ack of `seq`; payload (optional) = selective acks
  kBatch = 3,  ///< several coalesced charged messages (see net/arq.h codec)
  /// Crash-recovery control plane (net/recovery.h). Both travel out of band:
  /// they consume no ARQ sequence number, are never acknowledged, and are
  /// excluded from the charged-bit accounting — `seq` is a per-link control
  /// ordinal, not a window position.
  kPlayerDown = 4,  ///< coordinator -> player: you were declared dead
  kResume = 5,      ///< player -> coordinator: respawned; payload = checkpoint
};

struct FrameHeader {
  FrameType type = FrameType::kData;
  std::uint32_t src = 0;  ///< sending endpoint (player id, or k for the coordinator)
  std::uint32_t dst = 0;  ///< receiving endpoint
  std::uint32_t seq = 0;  ///< per-link sequence number (stop-and-wait ARQ)
  std::uint64_t phase = 0;
  std::uint64_t payload_bits = 0;
  /// Multiplexed session the frame belongs to. 0 (the single-session
  /// runtime) selects the original v1 encoding; ids >= 1 select the v2
  /// header and key the filler stream, so concurrent sessions sharing a
  /// transport stay individually deterministic.
  std::uint32_t session = 0;
};

struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;  ///< ceil(payload_bits/8) bytes, pad bits zero
};

/// Upper bound on a frame's payload (8 MiB of bits) and on the whole body;
/// anything larger in a length prefix or header is treated as corrupt.
inline constexpr std::uint64_t kMaxPayloadBits = std::uint64_t{1} << 26;
inline constexpr std::size_t kMaxBodyBytes = (kMaxPayloadBits / 8) + 64;

/// IEEE CRC-32 (reflected, poly 0xEDB88320), seedable for incremental use.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                                  std::uint32_t crc = 0) noexcept;

/// Serialize to the on-the-wire byte string (prefix + body + CRC).
[[nodiscard]] std::vector<std::uint8_t> serialize_frame(const Frame& f);

/// Same encoding into a caller-owned buffer (cleared first) so hot paths
/// can reuse one allocation per link instead of allocating per frame.
void serialize_frame_into(const Frame& f, std::vector<std::uint8_t>& out);

/// Bytes `serialize_frame` produces for this frame (without materializing).
[[nodiscard]] std::size_t frame_wire_bytes(const Frame& f);

/// The one filler stream behind every charged bit (kData, kRelay, and each
/// kBatch record): successive splitmix64 draws from `seed`, 64 bits each,
/// the last cut to its top bits, appended MSB-first.
void append_filler(BitWriter& w, std::uint64_t seed, std::uint64_t bits);
/// The one filler check: reads `bits` bits from `r` and compares them with
/// the stream as it goes, without building a copy. False on a mismatch or
/// when fewer than `bits` bits remain.
[[nodiscard]] bool check_filler(BitReader& r, std::uint64_t seed, std::uint64_t bits);

/// Deterministic payload for a charge-driven data frame: a splitmix64
/// stream keyed by (src, dst, seq, payload_bits) — with the session id
/// folded in when nonzero, so two sessions never share a filler stream —
/// truncated to payload_bits with zero pad bits. Receivers compare against
/// the stream — corruption that slipped past the CRC (or a codec bug) is
/// caught here.
[[nodiscard]] std::vector<std::uint8_t> make_filler_payload(const FrameHeader& h);
/// True when the payload is exactly what the sender generates: the byte
/// count of payload_bits, zero pad bits, and the filler stream — after the
/// recipient id for kRelay, over the whole payload otherwise.
[[nodiscard]] bool verify_filler_payload(const Frame& f);

/// Fold a nonzero session id into a keying seed; the identity for session 0,
/// so every single-session stream (filler, faults) is bit-identical to the
/// pre-session encoding. Shared by the filler generators and the fault
/// injector — the "(session, link, seq)" keying contract.
[[nodiscard]] std::uint64_t fold_session(std::uint64_t seed, std::uint32_t session) noexcept;

/// Build / decode a message-passing relay frame: the payload is the
/// recipient id in exactly vertex_bits(k) fixed-width bits — the header
/// the Section 2 simulation charges — followed by `message_bits` of filler.
/// `payload_bits` is therefore message_bits + vertex_bits(k). A non-zero
/// `session` stamps the header and folds into the filler, as for kData.
[[nodiscard]] Frame make_relay_frame(std::uint32_t src, std::uint32_t seq, std::size_t k,
                                     std::size_t recipient, std::uint64_t message_bits,
                                     std::uint32_t session = 0);
[[nodiscard]] std::size_t decode_relay_recipient(const Frame& f, std::size_t k);

/// Incremental parser over an arbitrary chunking of the byte stream.
/// CRC-invalid or structurally invalid bodies are skipped (counted in
/// `corrupt_frames`) using the length prefix to resynchronize.
class FrameParser {
 public:
  void feed(std::span<const std::uint8_t> bytes);
  /// Extract the next complete valid frame; false when none is buffered.
  [[nodiscard]] bool next(Frame& out);
  [[nodiscard]] std::uint64_t corrupt_frames() const noexcept { return corrupt_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
  std::uint64_t corrupt_ = 0;
};

}  // namespace tft::net

#include "net/recovery.h"

#include "comm/wire.h"
#include "net/error.h"

namespace tft::net {

Frame make_player_down_frame(std::uint32_t src, std::uint32_t dst, std::uint32_t ctrl_seq,
                             std::uint32_t player, std::uint64_t phase) {
  Frame f;
  f.header.type = FrameType::kPlayerDown;
  f.header.src = src;
  f.header.dst = dst;
  f.header.seq = ctrl_seq;
  f.header.phase = phase;
  BitWriter w;
  w.put_gamma(player);
  w.put_gamma(phase);
  f.header.payload_bits = w.bit_size();
  f.payload = w.take_bytes();
  return f;
}

PlayerDownNotice decode_player_down(const Frame& f) {
  if (f.header.type != FrameType::kPlayerDown) {
    throw NetError(NetErrorKind::kProtocol, "not a kPlayerDown frame");
  }
  try {
    BitReader r(f.payload, f.header.payload_bits);
    PlayerDownNotice notice;
    const std::uint64_t player = r.get_gamma();
    if (player > UINT32_MAX) {
      throw NetError(NetErrorKind::kCorrupt, "kPlayerDown player id out of range");
    }
    notice.player = static_cast<std::uint32_t>(player);
    notice.phase = r.get_gamma();
    if (!r.exhausted()) {
      throw NetError(NetErrorKind::kCorrupt, "trailing bits in kPlayerDown payload");
    }
    return notice;
  } catch (const WireError&) {
    throw NetError(NetErrorKind::kCorrupt, "truncated kPlayerDown payload");
  }
}

Frame make_resume_frame(std::uint32_t src, std::uint32_t dst, std::uint32_t ctrl_seq,
                        std::span<const std::uint8_t> checkpoint_bytes) {
  Frame f;
  f.header.type = FrameType::kResume;
  f.header.src = src;
  f.header.dst = dst;
  f.header.seq = ctrl_seq;
  f.header.payload_bits = checkpoint_bytes.size() * std::uint64_t{8};
  f.payload.assign(checkpoint_bytes.begin(), checkpoint_bytes.end());
  return f;
}

PlayerCheckpoint decode_resume(const Frame& f) {
  if (f.header.type != FrameType::kResume) {
    throw NetError(NetErrorKind::kProtocol, "not a kResume frame");
  }
  if (f.header.payload_bits != f.payload.size() * std::uint64_t{8}) {
    throw NetError(NetErrorKind::kCorrupt, "kResume payload must be whole bytes");
  }
  return decode_checkpoint(f.payload);
}

}  // namespace tft::net

#include "net/checkpoint.h"

#include "comm/wire.h"
#include "net/error.h"

namespace tft::net {

namespace {

constexpr std::uint64_t kVersion = 1;

void put_lane(BitWriter& w, const LinkCheckpoint& lane) {
  w.put_gamma(lane.next_seq);
  w.put_gamma(lane.next_expected);
  w.put_gamma(lane.frames);
  w.put_gamma(lane.messages);
  w.put_gamma(lane.payload_bits);
  w.put_gamma(lane.phase_bits.size());
  for (const std::uint64_t b : lane.phase_bits) w.put_gamma(b);
}

LinkCheckpoint get_lane(BitReader& r) {
  LinkCheckpoint lane;
  const std::uint64_t next_seq = r.get_gamma();
  const std::uint64_t next_expected = r.get_gamma();
  if (next_seq > UINT32_MAX || next_expected > UINT32_MAX) {
    throw NetError(NetErrorKind::kCorrupt, "checkpoint sequence number out of range");
  }
  lane.next_seq = static_cast<std::uint32_t>(next_seq);
  lane.next_expected = static_cast<std::uint32_t>(next_expected);
  lane.frames = r.get_gamma();
  lane.messages = r.get_gamma();
  lane.payload_bits = r.get_gamma();
  const std::uint64_t phases = r.get_gamma();
  if (phases > r.remaining()) {  // >= 1 bit per recorded phase
    throw NetError(NetErrorKind::kCorrupt, "checkpoint names more phases than fit its bytes");
  }
  lane.phase_bits.reserve(static_cast<std::size_t>(phases));
  for (std::uint64_t i = 0; i < phases; ++i) lane.phase_bits.push_back(r.get_gamma());
  return lane;
}

}  // namespace

std::vector<std::uint8_t> encode_checkpoint(const PlayerCheckpoint& ck) {
  BitWriter w;
  w.put_gamma(kVersion);
  w.put_gamma(ck.player);
  w.put_bits(ck.seed, 64);  // fixed width: gamma cannot carry UINT64_MAX
  w.put_gamma(ck.phase);
  put_lane(w, ck.up);
  put_lane(w, ck.down);
  return w.take_bytes();
}

PlayerCheckpoint decode_checkpoint(std::span<const std::uint8_t> bytes) {
  try {
    BitReader r(bytes, bytes.size() * std::uint64_t{8});
    if (r.get_gamma() != kVersion) {
      throw NetError(NetErrorKind::kCorrupt, "unknown checkpoint version");
    }
    PlayerCheckpoint ck;
    const std::uint64_t player = r.get_gamma();
    if (player > UINT32_MAX) {
      throw NetError(NetErrorKind::kCorrupt, "checkpoint player id out of range");
    }
    ck.player = static_cast<std::uint32_t>(player);
    ck.seed = r.get_bits(64);
    ck.phase = r.get_gamma();
    ck.up = get_lane(r);
    ck.down = get_lane(r);
    // Canonical form: what remains is exactly the sub-byte zero padding —
    // anything else (a whole spare byte, or a set pad bit) is corruption,
    // and rejecting it is what makes encode(decode(bytes)) == bytes total.
    if (r.remaining() >= 8) {
      throw NetError(NetErrorKind::kCorrupt, "trailing bytes after checkpoint");
    }
    while (!r.exhausted()) {
      if (r.get_bit()) {
        throw NetError(NetErrorKind::kCorrupt, "nonzero checkpoint pad bits");
      }
    }
    return ck;
  } catch (const WireError&) {
    throw NetError(NetErrorKind::kCorrupt, "truncated checkpoint");
  }
}

}  // namespace tft::net

#include "net/frame.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "comm/wire.h"
#include "net/error.h"
#include "util/bits.h"
#include "util/rng.h"

namespace tft::net {

namespace {

constexpr std::uint64_t kMagic = 0xF7A7;   // "tft transport" (v1: session 0)
constexpr std::uint64_t kMagic2 = 0xF7B5;  // v2: session id follows the magic
constexpr std::uint32_t kMagicBits = 16;
constexpr std::uint32_t kTypeBits = 3;

/// Slice-by-8 CRC tables: table[0] is the classic byte-at-a-time table,
/// table[k][i] advances a byte through k+1 zero bytes, so eight input bytes
/// fold into the running CRC with eight independent table lookups per
/// iteration instead of eight dependent ones.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xFF] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrcTables = make_crc_tables();

void put_u32_le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xFF));
}

std::uint32_t get_u32_le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

std::size_t payload_bytes(std::uint64_t payload_bits) {
  return static_cast<std::size_t>((payload_bits + 7) / 8);
}

/// The one byte string a payload of `bits` bits may have: ceil(bits / 8)
/// bytes with zero pad bits.
bool canonical_payload(std::span<const std::uint8_t> payload, std::uint64_t bits) {
  if (payload.size() != payload_bytes(bits)) return false;
  const auto pad = static_cast<std::uint32_t>(payload.size() * 8 - bits);
  return pad == 0 || (payload.back() & ((1U << pad) - 1)) == 0;
}

/// Header bits as the serialized body carries them.
BitWriter write_header(const FrameHeader& h) {
  BitWriter w;
  if (h.session == 0) {
    // Reserved id 0: the v1 layout, bit for bit — golden frames and every
    // single-session byte stream are unchanged by the session extension.
    w.put_bits(kMagic, kMagicBits);
  } else {
    w.put_bits(kMagic2, kMagicBits);
    w.put_gamma(h.session);
  }
  w.put_bits(static_cast<std::uint64_t>(h.type), kTypeBits);
  w.put_gamma(h.src);
  w.put_gamma(h.dst);
  w.put_gamma(h.seq);
  w.put_gamma(h.phase);
  w.put_gamma(h.payload_bits);
  return w;
}

/// Decode one body into `out`. Returns false (corrupt) instead of throwing:
/// the parser treats every malformed body as line noise to resynchronize
/// past, not as a caller error.
bool decode_body(std::span<const std::uint8_t> body, Frame& out) {
  try {
    BitReader r(body, body.size() * std::uint64_t{8});
    const std::uint64_t magic = r.get_bits(kMagicBits);
    if (magic == kMagic) {
      out.header.session = 0;
    } else if (magic == kMagic2) {
      const std::uint64_t session = r.get_gamma();
      // A v2 header claiming session 0 is corrupt: id 0 must use the v1
      // magic (canonical encoding — one byte string per frame).
      if (session == 0 || session > UINT32_MAX) return false;
      out.header.session = static_cast<std::uint32_t>(session);
    } else {
      return false;
    }
    const std::uint64_t type = r.get_bits(kTypeBits);
    if (type > static_cast<std::uint64_t>(FrameType::kResume)) return false;
    out.header.type = static_cast<FrameType>(type);
    const std::uint64_t src = r.get_gamma();
    const std::uint64_t dst = r.get_gamma();
    const std::uint64_t seq = r.get_gamma();
    if (src > UINT32_MAX || dst > UINT32_MAX || seq > UINT32_MAX) return false;
    out.header.src = static_cast<std::uint32_t>(src);
    out.header.dst = static_cast<std::uint32_t>(dst);
    out.header.seq = static_cast<std::uint32_t>(seq);
    out.header.phase = r.get_gamma();
    out.header.payload_bits = r.get_gamma();
    if (out.header.payload_bits > kMaxPayloadBits) return false;
    const std::size_t header_bytes = static_cast<std::size_t>((r.position() + 7) / 8);
    const std::size_t want = payload_bytes(out.header.payload_bits);
    if (body.size() != header_bytes + want) return false;
    out.payload.assign(body.begin() + static_cast<std::ptrdiff_t>(header_bytes), body.end());
    // Pad bits beyond payload_bits must be zero (canonical encoding).
    return canonical_payload(out.payload, out.header.payload_bits);
  } catch (const WireError&) {
    return false;
  }
}

/// Filler stream state for a header (pure function of the addressing,
/// session-folded so concurrent sessions never share a stream).
std::uint64_t filler_seed(const FrameHeader& h) {
  return fold_session(mix_hash((std::uint64_t{h.src} << 32) | h.dst, h.seq, h.payload_bits),
                      h.session);
}

}  // namespace

void append_filler(BitWriter& w, std::uint64_t seed, std::uint64_t bits) {
  std::uint64_t state = seed;
  while (bits > 0) {
    const std::uint32_t take = static_cast<std::uint32_t>(std::min<std::uint64_t>(bits, 64));
    w.put_bits(splitmix64(state) >> (64 - take), take);
    bits -= take;
  }
}

bool check_filler(BitReader& r, std::uint64_t seed, std::uint64_t bits) {
  if (r.remaining() < bits) return false;
  std::uint64_t state = seed;
  while (bits > 0) {
    const std::uint32_t take = static_cast<std::uint32_t>(std::min<std::uint64_t>(bits, 64));
    if (r.get_bits(take) != splitmix64(state) >> (64 - take)) return false;
    bits -= take;
  }
  return true;
}

std::uint64_t fold_session(std::uint64_t seed, std::uint32_t session) noexcept {
  // Identity for session 0 — the pre-session keying, bit for bit. The tag
  // keeps the fold out of the hash domains the fault classes already use.
  return session == 0 ? seed : mix_hash(seed, 0x5E55, session);
}

std::uint32_t crc32(std::span<const std::uint8_t> bytes, std::uint32_t crc) noexcept {
  crc = ~crc;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  // Byte loads composed into u32s keep the 8-byte hot loop endian-safe.
  while (n >= 8) {
    const std::uint32_t lo = (static_cast<std::uint32_t>(p[0]) |
                              (static_cast<std::uint32_t>(p[1]) << 8) |
                              (static_cast<std::uint32_t>(p[2]) << 16) |
                              (static_cast<std::uint32_t>(p[3]) << 24)) ^
                             crc;
    const std::uint32_t hi = static_cast<std::uint32_t>(p[4]) |
                             (static_cast<std::uint32_t>(p[5]) << 8) |
                             (static_cast<std::uint32_t>(p[6]) << 16) |
                             (static_cast<std::uint32_t>(p[7]) << 24);
    crc = kCrcTables[7][lo & 0xFF] ^ kCrcTables[6][(lo >> 8) & 0xFF] ^
          kCrcTables[5][(lo >> 16) & 0xFF] ^ kCrcTables[4][lo >> 24] ^
          kCrcTables[3][hi & 0xFF] ^ kCrcTables[2][(hi >> 8) & 0xFF] ^
          kCrcTables[1][(hi >> 16) & 0xFF] ^ kCrcTables[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = kCrcTables[0][(crc ^ *p++) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

void serialize_frame_into(const Frame& f, std::vector<std::uint8_t>& out) {
  if (f.header.payload_bits > kMaxPayloadBits) {
    throw NetError(NetErrorKind::kProtocol, "frame payload exceeds kMaxPayloadBits");
  }
  if (f.payload.size() != payload_bytes(f.header.payload_bits)) {
    throw NetError(NetErrorKind::kProtocol, "frame payload size disagrees with payload_bits");
  }
  const BitWriter header = write_header(f.header);
  const std::size_t body_len = header.bytes().size() + f.payload.size();

  out.clear();
  out.reserve(body_len + 8);
  put_u32_le(out, static_cast<std::uint32_t>(body_len));
  out.insert(out.end(), header.bytes().begin(), header.bytes().end());
  out.insert(out.end(), f.payload.begin(), f.payload.end());
  put_u32_le(out, crc32(std::span<const std::uint8_t>(out.data() + 4, body_len)));
}

std::vector<std::uint8_t> serialize_frame(const Frame& f) {
  std::vector<std::uint8_t> wire;
  serialize_frame_into(f, wire);
  return wire;
}

std::size_t frame_wire_bytes(const Frame& f) {
  const BitWriter header = write_header(f.header);
  return 8 + header.bytes().size() + f.payload.size();
}

std::vector<std::uint8_t> make_filler_payload(const FrameHeader& h) {
  BitWriter w;
  append_filler(w, filler_seed(h), h.payload_bits);
  return w.take_bytes();
}

bool verify_filler_payload(const Frame& f) {
  const FrameHeader& h = f.header;
  if (!canonical_payload(f.payload, h.payload_bits)) return false;
  // A relay's payload leads with the recipient id (relays always go to the
  // coordinator, so dst is k); its filler follows.
  const std::uint64_t lead = h.type == FrameType::kRelay ? vertex_bits(h.dst) : 0;
  if (h.payload_bits < lead) return false;
  BitReader r(f.payload, h.payload_bits);
  r.skip(lead);
  return check_filler(r, filler_seed(h), h.payload_bits - lead);
}

Frame make_relay_frame(std::uint32_t src, std::uint32_t seq, std::size_t k,
                       std::size_t recipient, std::uint64_t message_bits,
                       std::uint32_t session) {
  Frame f;
  f.header.type = FrameType::kRelay;
  f.header.src = src;
  f.header.dst = static_cast<std::uint32_t>(k);  // relays always go to the coordinator
  f.header.seq = seq;
  f.header.payload_bits = message_bits + vertex_bits(static_cast<std::uint64_t>(k));
  f.header.session = session;
  BitWriter w;
  w.put_bits(recipient, vertex_bits(static_cast<std::uint64_t>(k)));
  append_filler(w, filler_seed(f.header), message_bits);
  f.payload = w.take_bytes();
  return f;
}

std::size_t decode_relay_recipient(const Frame& f, std::size_t k) {
  const std::uint32_t width = vertex_bits(static_cast<std::uint64_t>(k));
  if (f.header.type != FrameType::kRelay || f.header.payload_bits < width) {
    throw NetError(NetErrorKind::kProtocol, "not a relay frame");
  }
  BitReader r(f.payload, f.header.payload_bits);
  const std::uint64_t to = r.get_bits(width);
  if (to >= k) {
    throw NetError(NetErrorKind::kCorrupt, "relay recipient outside [0, k)");
  }
  return static_cast<std::size_t>(to);
}

void FrameParser::feed(std::span<const std::uint8_t> bytes) {
  // Compact lazily so long streams do not grow the buffer unboundedly.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

bool FrameParser::next(Frame& out) {
  for (;;) {
    const std::size_t avail = buf_.size() - pos_;
    if (avail < 4) return false;
    const std::uint32_t body_len = get_u32_le(buf_.data() + pos_);
    if (body_len > kMaxBodyBytes) {
      // A corrupt length prefix cannot be resynchronized past (we no longer
      // know where the next frame starts); drop the buffered stream. The
      // fault injector never corrupts prefixes, so reaching here means a
      // genuinely broken peer.
      ++corrupt_;
      buf_.clear();
      pos_ = 0;
      return false;
    }
    if (avail < std::size_t{4} + body_len + 4) return false;
    const std::span<const std::uint8_t> body(buf_.data() + pos_ + 4, body_len);
    const std::uint32_t want_crc = get_u32_le(buf_.data() + pos_ + 4 + body_len);
    pos_ += std::size_t{4} + body_len + 4;
    if (crc32(body) != want_crc || !decode_body(body, out)) {
      ++corrupt_;
      continue;  // resynchronized by the length prefix; try the next frame
    }
    return true;
  }
}

}  // namespace tft::net

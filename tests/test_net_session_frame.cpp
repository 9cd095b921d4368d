// The session extension of the frame header (net/frame.h): session id 0 is
// reserved for the single-session runtime and keeps the v1 layout bit for
// bit, while multiplexed sessions (id >= 1) carry a v2 magic plus the
// gamma-coded id. Both halves of that contract are pinned here: the v1
// bytes against the exact pre-session wire (inlined hex, not regenerable),
// the v2 bytes against a golden file.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "comm/wire.h"
#include "net/arq.h"
#include "net/frame.h"

namespace tft::net {
namespace {

std::string to_hex(std::span<const std::uint8_t> bytes) {
  std::ostringstream hex;
  for (const std::uint8_t b : bytes) {
    hex << std::hex << std::setw(2) << std::setfill('0') << unsigned{b};
  }
  return hex.str();
}

Frame data_frame(std::uint32_t src, std::uint32_t dst, std::uint32_t seq, std::uint64_t phase,
                 std::uint64_t payload_bits, std::uint32_t session = 0) {
  Frame f;
  f.header.type = FrameType::kData;
  f.header.src = src;
  f.header.dst = dst;
  f.header.seq = seq;
  f.header.phase = phase;
  f.header.payload_bits = payload_bits;
  f.header.session = session;
  f.payload = make_filler_payload(f.header);
  return f;
}

TEST(NetSessionFrame, FoldSessionIsTheIdentityAtZero) {
  for (const std::uint64_t seed : {0ull, 1ull, 0x9e3779b97f4a7c15ull}) {
    EXPECT_EQ(fold_session(seed, 0), seed);
    EXPECT_NE(fold_session(seed, 1), seed);
    EXPECT_NE(fold_session(seed, 1), fold_session(seed, 2));
  }
}

/// Session 0 must be byte-identical to the PRE-session wire format. These
/// hex strings were captured from the repository before the session field
/// existed; unlike a golden file they are deliberately inlined so no
/// regeneration flag can silently rewrite them. A mismatch means v1
/// compatibility broke.
TEST(NetSessionFrame, SessionZeroBytesMatchTheFrozenPreSessionWire) {
  EXPECT_EQ(to_hex(serialize_frame(data_frame(2, 5, 41, 3, 37))),
            "0c000000f7a70cc0a88098c2f99cf180c2ff5b4d");
  EXPECT_EQ(to_hex(serialize_frame(data_frame(0, 4, 0, 0, 64))),
            "0d000000f7a712e04189cb1bcb04ad82cb66e51d42");
  EXPECT_EQ(to_hex(serialize_frame(make_batch_frame(1, 0, 7, {{1, 17}, {1, 3}, {1, 64}}))),
            "16000000f7a76a2101f8220962c41102020b879865739a73747086715518");
  AckInfo ack;
  ack.cumulative = 12;
  ack.sacks = {14, 15};
  EXPECT_EQ(to_hex(serialize_frame(make_ack_frame(5, 2, ack, 1u << 16))),
            "08000000f7a7466362806980f0bc8e3c");
  EXPECT_EQ(to_hex(serialize_frame(make_relay_frame(1, 9, 6, 4, 50))),
            "0d000000f7a728e2a0d88c3dc27ebf88d01e990f0e");
}

/// Frames past one 64-bit filler draw, frozen as CRC-32s of the
/// serialize_frame output (their hex would run to 100 KB). Recorded with the
/// bit-at-a-time codec, so they pin the byte-wise one to the same bytes.
TEST(NetSessionFrame, LargeFramesMatchTheFrozenWire) {
  const auto frozen = [](const Frame& f) {
    const std::vector<std::uint8_t> wire = serialize_frame(f);
    std::ostringstream out;
    out << std::hex << std::setw(8) << std::setfill('0') << crc32(wire) << std::dec << " "
        << wire.size();
    return out.str();
  };
  EXPECT_EQ(frozen(data_frame(1, 4, 7, 2, 800'003)), "ea51ca71 100019");
  EXPECT_EQ(frozen(data_frame(1, 4, 7, 2, 800'003, 9)), "48a23b3f 100020");
  std::vector<ChargeRec> charges;
  for (std::uint64_t i = 0; i < 64; ++i) charges.push_back({3, 1 + (37 * i) % 130});
  EXPECT_EQ(frozen(make_batch_frame(2, 4, 3, charges, 0)), "7b6abba6 709");
  EXPECT_EQ(frozen(make_relay_frame(1, 9, 6, 4, 100'003)), "eb6cd022 12518");
}

TEST(NetSessionFrame, V2HeaderRoundTripsTheSessionId) {
  for (const std::uint32_t session : {1u, 2u, 63u, 100'000u}) {
    const Frame f = data_frame(2, 5, 41, 3, 37, session);
    FrameParser parser;
    parser.feed(serialize_frame(f));
    Frame out;
    ASSERT_TRUE(parser.next(out)) << "session " << session;
    EXPECT_EQ(out.header.session, session);
    EXPECT_EQ(out.header.src, f.header.src);
    EXPECT_EQ(out.header.seq, f.header.seq);
    EXPECT_EQ(out.header.payload_bits, f.header.payload_bits);
    EXPECT_EQ(out.payload, f.payload);
    EXPECT_TRUE(verify_filler_payload(out));
    EXPECT_EQ(parser.corrupt_frames(), 0u);
  }
}

TEST(NetSessionFrame, SessionsNeverShareAFillerStream) {
  // Identical addressing, different session: the filler must differ, or two
  // multiplexed sessions could alias each other's verified payload bytes.
  const Frame a = data_frame(2, 5, 41, 3, 512, 1);
  const Frame b = data_frame(2, 5, 41, 3, 512, 2);
  const Frame solo = data_frame(2, 5, 41, 3, 512, 0);
  EXPECT_NE(a.payload, b.payload);
  EXPECT_NE(a.payload, solo.payload);
  EXPECT_TRUE(verify_filler_payload(a));
  EXPECT_TRUE(verify_filler_payload(b));
}

/// Canonical encoding: id 0 has exactly one byte string (the v1 magic). A
/// handcrafted v2 body claiming session 0 is line noise, not an alias.
TEST(NetSessionFrame, V2FrameClaimingSessionZeroIsCorrupt) {
  BitWriter w;
  w.put_bits(0xF7B5, 16);  // the v2 magic
  w.put_gamma(0);          // the reserved session id
  w.put_bits(0, 3);        // kData
  w.put_gamma(2);          // src
  w.put_gamma(5);          // dst
  w.put_gamma(41);         // seq
  w.put_gamma(3);          // phase
  w.put_gamma(0);          // payload_bits
  const std::vector<std::uint8_t>& body = w.bytes();

  std::vector<std::uint8_t> wire;
  const auto len = static_cast<std::uint32_t>(body.size());
  for (int i = 0; i < 4; ++i) wire.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  wire.insert(wire.end(), body.begin(), body.end());
  const std::uint32_t crc = crc32(body);
  for (int i = 0; i < 4; ++i) wire.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));

  FrameParser parser;
  parser.feed(wire);
  Frame out;
  EXPECT_FALSE(parser.next(out));
  EXPECT_EQ(parser.corrupt_frames(), 1u);
}

/// Golden v2 bytes: the multiplexed header layout is load-bearing wire
/// format, pinned like the checkpoint encoding (TFT_UPDATE_GOLDEN=1
/// regenerates after a deliberate, versioned change).
TEST(NetSessionFrame, GoldenSessionFrameBytes) {
  std::vector<std::uint8_t> all;
  const auto append = [&all](const Frame& f) {
    const auto wire = serialize_frame(f);
    all.insert(all.end(), wire.begin(), wire.end());
  };
  append(data_frame(2, 5, 41, 3, 37, /*session=*/1));
  append(data_frame(0, 4, 0, 0, 64, /*session=*/7));
  append(make_batch_frame(1, 0, 7, {{1, 17}, {1, 3}, {1, 64}}, /*session=*/3));
  Frame big = data_frame(3, 1, 9, 2, 13, /*session=*/100'000);
  append(big);

  std::ostringstream hex;
  for (std::size_t i = 0; i < all.size(); ++i) {
    hex << (i ? (i % 16 == 0 ? "\n" : " ") : "")
        << std::hex << std::setw(2) << std::setfill('0') << unsigned{all[i]};
  }
  hex << "\n";
  const std::string got = hex.str();
  const std::string path = std::string(TFT_GOLDEN_DIR) + "/frame_session_v1.txt";
  if (std::getenv("TFT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << got;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " — run with TFT_UPDATE_GOLDEN=1 to create it";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str())
      << "session frame wire format drifted (TFT_UPDATE_GOLDEN=1 regenerates "
         "after a deliberate, versioned change)";
}

}  // namespace
}  // namespace tft::net

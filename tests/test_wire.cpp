#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "comm/wire.h"
#include "graph/generators.h"
#include "util/bits.h"
#include "util/rng.h"

namespace tft {
namespace {

/// The bit-at-a-time codec the byte-wise BitWriter and BitReader replaced,
/// kept as the specification they must match bit for bit.
struct RefWriter {
  std::vector<std::uint8_t> bytes;
  std::uint64_t bits = 0;

  void put_bit(bool b) {
    if (bits / 8 >= bytes.size()) bytes.push_back(0);
    if (b) bytes[bits / 8] |= static_cast<std::uint8_t>(0x80U >> (bits % 8));
    ++bits;
  }
  void put_bits(std::uint64_t value, std::uint32_t width) {
    for (std::uint32_t i = width; i > 0; --i) put_bit(((value >> (i - 1)) & 1) != 0);
  }
  void put_gamma(std::uint64_t value) {
    const std::uint64_t v = value + 1;
    std::uint32_t width = 1;
    for (std::uint64_t x = v; x > 1; x >>= 1) ++width;
    for (std::uint32_t i = 1; i < width; ++i) put_bit(false);
    put_bits(v, width);
  }
};

struct RefReader {
  std::span<const std::uint8_t> bytes;
  std::uint64_t bit_size;
  std::uint64_t pos = 0;

  bool get_bit() {
    if (pos >= bit_size) throw WireError("reference reader: past end");
    const bool b = (bytes[pos / 8] & (0x80U >> (pos % 8))) != 0;
    ++pos;
    return b;
  }
  std::uint64_t get_bits(std::uint32_t width) {
    std::uint64_t v = 0;
    for (std::uint32_t i = 0; i < width; ++i) v = (v << 1) | (get_bit() ? 1 : 0);
    return v;
  }
  std::uint64_t get_gamma() {
    std::uint32_t zeros = 0;
    while (!get_bit()) {
      if (++zeros >= 64) throw WireError("reference reader: corrupt prefix");
    }
    std::uint64_t v = 1;
    for (std::uint32_t i = 0; i < zeros; ++i) v = (v << 1) | (get_bit() ? 1 : 0);
    return v - 1;
  }
};

/// One write: a fixed-width field (with junk above `width` in `value`) or a
/// gamma code.
struct CodecOp {
  bool gamma = false;
  std::uint64_t value = 0;
  std::uint32_t width = 0;

  [[nodiscard]] std::uint64_t expected() const {
    return gamma || width == 64 ? value : value & ((std::uint64_t{1} << width) - 1);
  }
};

/// A random stream: a 0-7 bit start offset, then fixed-width fields of
/// width 0-64 and gamma codes whose value + 1 has 1-64 significant bits,
/// so every value from 0 to 2^64 - 2 is in reach.
std::vector<CodecOp> random_ops(Rng& rng, std::uint32_t count) {
  std::vector<CodecOp> ops;
  ops.push_back({false, rng(), static_cast<std::uint32_t>(rng.below(8))});
  for (std::uint32_t i = 0; i < count; ++i) {
    CodecOp op;
    op.gamma = rng.below(2) == 0;
    if (op.gamma) {
      const auto bits = static_cast<std::uint32_t>(1 + rng.below(64));
      const std::uint64_t top = std::uint64_t{1} << (bits - 1);
      op.value = (top | (rng() & (top - 1))) - 1;
    } else {
      op.width = static_cast<std::uint32_t>(rng.below(65));
      op.value = rng();
    }
    ops.push_back(op);
  }
  return ops;
}

template <typename Writer>
void write_ops(Writer& w, const std::vector<CodecOp>& ops) {
  for (const CodecOp& op : ops) {
    if (op.gamma) {
      w.put_gamma(op.value);
    } else {
      w.put_bits(op.value, op.width);
    }
  }
}

/// Reads the ops back; returns how many decoded before a WireError.
template <typename Reader>
std::size_t read_ops(Reader& r, const std::vector<CodecOp>& ops,
                     std::vector<std::uint64_t>& values) {
  values.clear();
  try {
    for (const CodecOp& op : ops) values.push_back(op.gamma ? r.get_gamma() : r.get_bits(op.width));
  } catch (const WireError&) {
  }
  return values.size();
}

TEST(BitStream, ByteWiseCodecMatchesTheBitByBitReference) {
  Rng rng(0xB17C0DEC);
  std::vector<std::uint64_t> got;
  std::vector<std::uint64_t> want;
  for (int trial = 0; trial < 150; ++trial) {
    const auto ops = random_ops(rng, static_cast<std::uint32_t>(1 + rng.below(10)));
    BitWriter w;
    RefWriter ref;
    write_ops(w, ops);
    write_ops(ref, ops);
    ASSERT_EQ(w.bit_size(), ref.bits) << "trial " << trial;
    ASSERT_EQ(w.bytes(), ref.bytes) << "trial " << trial;

    BitReader r(w.bytes(), w.bit_size());
    ASSERT_EQ(read_ops(r, ops, got), ops.size()) << "trial " << trial;
    EXPECT_TRUE(r.exhausted());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      ASSERT_EQ(got[i], ops[i].expected()) << "trial " << trial << " op " << i;
    }

    // Every truncation point: both readers decode the same prefix of ops
    // and stop with a WireError at the first op that crosses the cut.
    for (std::uint64_t cut = 0; cut < w.bit_size(); ++cut) {
      BitReader rc(w.bytes(), cut);
      RefReader rr{w.bytes(), cut};
      const std::size_t decoded = read_ops(rc, ops, got);
      ASSERT_LT(decoded, ops.size()) << "trial " << trial << " cut " << cut;
      ASSERT_EQ(decoded, read_ops(rr, ops, want)) << "trial " << trial << " cut " << cut;
      ASSERT_EQ(got, want) << "trial " << trial << " cut " << cut;
    }
  }
}

TEST(BitStream, GammaExtremesMatchTheReference) {
  for (const std::uint64_t value :
       {std::uint64_t{0}, std::uint64_t{1}, (std::uint64_t{1} << 32) - 2,
        (std::uint64_t{1} << 32) - 1, (std::uint64_t{1} << 63) - 1, ~std::uint64_t{0} - 1}) {
    for (std::uint32_t offset = 0; offset < 8; ++offset) {
      BitWriter w;
      RefWriter ref;
      w.put_bits(0x55, offset);
      ref.put_bits(0x55, offset);
      w.put_gamma(value);
      ref.put_gamma(value);
      ASSERT_EQ(w.bytes(), ref.bytes) << value << " at offset " << offset;
      BitReader r(w.bytes(), w.bit_size());
      (void)r.get_bits(offset);
      EXPECT_EQ(r.get_gamma(), value);
      EXPECT_TRUE(r.exhausted());
    }
  }
}

/// 2^64 - 1 is the one value whose gamma code (of value + 1) does not fit
/// 64 bits: the writer refuses it before writing a bit.
TEST(BitStream, GammaOfTheLargestValueIsRejected) {
  BitWriter w;
  w.put_bits(0x5, 3);
  EXPECT_THROW(w.put_gamma(~std::uint64_t{0}), std::invalid_argument);
  EXPECT_EQ(w.bit_size(), 3u) << "a refused value writes nothing";
  w.put_gamma(~std::uint64_t{0} - 1);  // the largest encodable value
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_EQ(r.get_bits(3), 0x5u);
  EXPECT_EQ(r.get_gamma(), ~std::uint64_t{0} - 1);
  EXPECT_TRUE(r.exhausted());
}

TEST(BitStream, WidthAbove64IsRejected) {
  BitWriter w;
  EXPECT_THROW(w.put_bits(0, 65), std::invalid_argument);
  EXPECT_EQ(w.bit_size(), 0u);
  const std::vector<std::uint8_t> bytes(16, 0xFF);
  BitReader r(bytes, bytes.size() * 8);
  EXPECT_THROW((void)r.get_bits(65), WireError);
  EXPECT_EQ(r.get_bits(64), ~std::uint64_t{0});
}

TEST(BitStream, TakeBytesHandsOverTheBufferAndEmptiesTheWriter) {
  BitWriter w;
  w.put_bits(0xABC, 12);
  const std::vector<std::uint8_t> copy = w.bytes();
  EXPECT_EQ(w.take_bytes(), copy);
  EXPECT_EQ(w.bit_size(), 0u);
  EXPECT_TRUE(w.bytes().empty());
  w.put_bits(0xF, 4);
  EXPECT_EQ(w.bytes(), std::vector<std::uint8_t>{0xF0});
}

TEST(BitStream, SkipStepsOverBitsAndStopsAtTheEnd) {
  BitWriter w;
  w.put_bits(0x1FF, 9);
  w.put_bits(0b101, 3);
  BitReader r(w.bytes(), w.bit_size());
  r.skip(9);
  EXPECT_EQ(r.get_bits(3), 0b101u);
  EXPECT_THROW(r.skip(1), WireError);
}

TEST(BitStream, BitRoundTrip) {
  BitWriter w;
  const bool pattern[] = {true, false, false, true, true, true, false, true, false};
  for (const bool b : pattern) w.put_bit(b);
  BitReader r(w.bytes(), w.bit_size());
  for (const bool b : pattern) EXPECT_EQ(r.get_bit(), b);
  EXPECT_TRUE(r.exhausted());
}

TEST(BitStream, FixedWidthRoundTrip) {
  BitWriter w;
  w.put_bits(0b1011, 4);
  w.put_bits(1023, 10);
  w.put_bits(0, 1);
  w.put_bits(0xFFFFFFFFFFFFFFFFULL, 64);
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_EQ(r.get_bits(4), 0b1011u);
  EXPECT_EQ(r.get_bits(10), 1023u);
  EXPECT_EQ(r.get_bits(1), 0u);
  EXPECT_EQ(r.get_bits(64), 0xFFFFFFFFFFFFFFFFULL);
}

TEST(BitStream, GammaRoundTrip) {
  BitWriter w;
  const std::uint64_t values[] = {0, 1, 2, 3, 7, 8, 100, 65535, 1000000};
  for (const auto v : values) w.put_gamma(v);
  BitReader r(w.bytes(), w.bit_size());
  for (const auto v : values) EXPECT_EQ(r.get_gamma(), v);
}

TEST(BitStream, GammaSizeIsLogarithmic) {
  // gamma(v) uses 2*floor(log2(v+1)) + 1 bits.
  BitWriter w;
  w.put_gamma(0);
  EXPECT_EQ(w.bit_size(), 1u);
  BitWriter w2;
  w2.put_gamma(1);  // encodes 2: "010"
  EXPECT_EQ(w2.bit_size(), 3u);
  BitWriter w3;
  w3.put_gamma(1023);  // encodes 1024: 21 bits
  EXPECT_EQ(w3.bit_size(), 21u);
}

TEST(BitStream, ReaderThrowsPastEnd) {
  BitWriter w;
  w.put_bit(true);
  BitReader r(w.bytes(), w.bit_size());
  (void)r.get_bit();
  EXPECT_THROW((void)r.get_bit(), std::out_of_range);
}

TEST(Wire, EdgeListRoundTrip) {
  Rng rng(1);
  const Graph g = gen::gnp(500, 0.02, rng);
  BitWriter w;
  encode_edge_list(w, g.n(), g.edges());
  BitReader r(w.bytes(), w.bit_size());
  const auto decoded = decode_edge_list(r, g.n());
  ASSERT_EQ(decoded.size(), g.num_edges());
  for (std::size_t i = 0; i < decoded.size(); ++i) EXPECT_EQ(decoded[i], g.edge(i));
}

TEST(Wire, EmptyEdgeList) {
  BitWriter w;
  encode_edge_list(w, 100, {});
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_TRUE(decode_edge_list(r, 100).empty());
}

TEST(Wire, EncodedSizeBeatsChargedCost) {
  // The idealized Transcript charge for an m-edge message is
  // count_bits(m) + m * 2 ceil(log n); the delta coding should not exceed it
  // (so the idealized accounting never understates real protocols).
  Rng rng(2);
  for (const double p : {0.005, 0.02, 0.1}) {
    const Graph g = gen::gnp(400, p, rng);
    const std::uint64_t charged =
        count_bits(g.num_edges()) + g.num_edges() * edge_bits(g.n());
    const std::uint64_t actual = encoded_edge_list_bits(g.n(), g.edges());
    EXPECT_LE(actual, charged) << "p=" << p << " m=" << g.num_edges();
  }
}

TEST(Wire, VertexListRoundTrip) {
  std::vector<Vertex> vs{3, 17, 17, 254, 255, 1000};
  BitWriter w;
  encode_vertex_list(w, 1024, vs);
  BitReader r(w.bytes(), w.bit_size());
  const auto decoded = decode_vertex_list(r, 1024);
  // Encoder sorts; duplicates survive (delta 0).
  ASSERT_EQ(decoded.size(), vs.size());
  EXPECT_EQ(decoded.front(), 3u);
  EXPECT_EQ(decoded.back(), 1000u);
}

TEST(Wire, TruncatedEdgeListThrowsWireError) {
  Rng rng(4);
  const Graph g = gen::gnp(300, 0.03, rng);
  BitWriter w;
  encode_edge_list(w, g.n(), g.edges());
  // Cutting the payload anywhere strictly inside must yield a typed error
  // (the count no longer fits) — never a crash or a silent partial decode
  // beyond the buffer.
  for (const std::uint64_t cut : {w.bit_size() / 2, w.bit_size() - 1, std::uint64_t{5}}) {
    BitReader r(w.bytes(), cut);
    EXPECT_THROW((void)decode_edge_list(r, g.n()), WireError) << "cut=" << cut;
  }
}

TEST(Wire, CorruptCountDoesNotOverallocate) {
  // A huge gamma-coded count with no payload behind it must be rejected
  // before any reserve() — decoding 2^40 from a 7-byte buffer would
  // otherwise attempt a multi-terabyte allocation.
  BitWriter w;
  w.put_gamma((std::uint64_t{1} << 40) - 1);
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_THROW((void)decode_edge_list(r, 1024), WireError);
  BitReader r2(w.bytes(), w.bit_size());
  EXPECT_THROW((void)decode_vertex_list(r2, 1024), WireError);
}

TEST(Wire, OutOfUniverseEndpointRejected) {
  // An edge list for a 1000-vertex universe decoded as a 10-vertex one:
  // every endpoint check must fire instead of wrapping into Vertex.
  BitWriter w;
  const std::vector<Edge> edges{Edge(500, 900)};
  encode_edge_list(w, 1000, edges);
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_THROW((void)decode_edge_list(r, 10), WireError);

  BitWriter wv;
  const std::vector<Vertex> vs{999};
  encode_vertex_list(wv, 1000, vs);
  BitReader rv(wv.bytes(), wv.bit_size());
  EXPECT_THROW((void)decode_vertex_list(rv, 10), WireError);
}

TEST(Wire, OverstatedBitSizeIsClampedToBuffer) {
  // Corrupt framing: a bit_size claiming more bits than the byte buffer
  // holds. The reader clamps to the real buffer, so reads fail cleanly at
  // the true end instead of touching memory past it.
  BitWriter w;
  w.put_bits(0b101, 3);
  BitReader r(w.bytes(), /*bit_size=*/1000);
  EXPECT_EQ(r.remaining(), 8u);  // one byte materialized
  (void)r.get_bits(8);
  EXPECT_THROW((void)r.get_bit(), WireError);
}

TEST(Wire, AllZeroGammaPrefixIsCorrupt) {
  // 64+ leading zeros cannot come from any encoder (a legal gamma code
  // stores value+1 in at most 64 significand bits): typed rejection, not an
  // unbounded shift.
  const std::vector<std::uint8_t> zeros(16, 0);
  BitReader r(zeros, zeros.size() * 8);
  EXPECT_THROW((void)r.get_gamma(), WireError);
}

TEST(Wire, WireErrorIsOutOfRange) {
  // Backward compatibility: callers that guard with std::out_of_range keep
  // working.
  BitWriter w;
  w.put_bit(true);
  BitReader r(w.bytes(), w.bit_size());
  (void)r.get_bit();
  EXPECT_THROW((void)r.get_bit(), std::out_of_range);
}

TEST(Wire, ConcatenatedMessagesDecodeIndependently) {
  Rng rng(3);
  const Graph g1 = gen::gnp(200, 0.05, rng);
  const Graph g2 = gen::cycle(64);
  BitWriter w;
  encode_edge_list(w, 200, g1.edges());
  encode_edge_list(w, 200, g2.edges());
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_EQ(decode_edge_list(r, 200).size(), g1.num_edges());
  EXPECT_EQ(decode_edge_list(r, 200).size(), g2.num_edges());
}

}  // namespace
}  // namespace tft

#include "comm/wire.h"

#include <algorithm>
#include <stdexcept>

#include "util/bits.h"

namespace tft {

void BitWriter::put_bit(bool b) {
  const std::size_t byte = static_cast<std::size_t>(bits_ / 8);
  if (byte >= bytes_.size()) bytes_.push_back(0);
  if (b) bytes_[byte] |= static_cast<std::uint8_t>(0x80u >> (bits_ % 8));
  ++bits_;
}

void BitWriter::put_bits(std::uint64_t value, std::uint32_t width) {
  if (width > 64) throw std::invalid_argument("BitWriter::put_bits: width > 64");
  // `left` counts the bits of `value` still to write. Every shift below is
  // by less than 64, so widths 0 and 64 are defined behaviour too.
  std::uint32_t left = width;
  const auto used = static_cast<std::uint32_t>(bits_ % 8);
  bits_ += width;
  if (used != 0 && left != 0) {
    // Top up the partial last byte first.
    const std::uint32_t take = std::min(8 - used, left);
    left -= take;
    const auto chunk = static_cast<std::uint32_t>(value >> left) & ((1U << take) - 1);
    bytes_.back() |= static_cast<std::uint8_t>(chunk << (8 - used - take));
  }
  while (left >= 8) {
    left -= 8;
    bytes_.push_back(static_cast<std::uint8_t>(value >> left));
  }
  if (left != 0) bytes_.push_back(static_cast<std::uint8_t>(value << (8 - left)));
}

void BitWriter::put_gamma(std::uint64_t value) {
  // Gamma codes positive integers, so value + 1 must not wrap to 0.
  if (value == UINT64_MAX) throw std::invalid_argument("BitWriter::put_gamma: value 2^64 - 1");
  const std::uint64_t v = value + 1;
  const auto width = static_cast<std::uint32_t>(bit_width_of(v));
  put_bits(0, width - 1);
  put_bits(v, width);
}

bool BitReader::get_bit() {
  if (pos_ >= bit_size_) throw WireError("BitReader: read past end of buffer");
  const std::size_t byte = static_cast<std::size_t>(pos_ / 8);
  const bool b = (bytes_[byte] & (0x80u >> (pos_ % 8))) != 0;
  ++pos_;
  return b;
}

std::uint64_t BitReader::get_bits(std::uint32_t width) {
  if (width > 64) throw WireError("BitReader::get_bits: width > 64");
  if (width > bit_size_ - pos_) throw WireError("BitReader: read past end of buffer");
  const std::uint8_t* p = bytes_.data() + pos_ / 8;
  const auto off = static_cast<std::uint32_t>(pos_ % 8);
  pos_ += width;
  std::uint32_t left = width;
  std::uint64_t v = 0;
  if (off != 0 && left != 0) {
    // Finish the partial first byte: the top `take` of its unread bits.
    const std::uint32_t take = std::min(8 - off, left);
    v = static_cast<std::uint8_t>(*p++ << off) >> (8 - take);
    left -= take;
  }
  while (left >= 8) {
    v = (v << 8) | *p++;
    left -= 8;
  }
  if (left != 0) v = (v << left) | (*p >> (8 - left));
  return v;
}

std::uint64_t BitReader::get_gamma() {
  std::uint32_t zeros = 0;
  while (!get_bit()) {
    // A legal gamma code stores value+1 in at most 64 significand bits, so
    // 64 leading zeros cannot come from any encoder: corrupt input.
    if (++zeros >= 64) throw WireError("BitReader::get_gamma: corrupt prefix");
  }
  return ((std::uint64_t{1} << zeros) | get_bits(zeros)) - 1;
}

void BitReader::skip(std::uint64_t bits) {
  if (bits > bit_size_ - pos_) throw WireError("BitReader: read past end of buffer");
  pos_ += bits;
}

namespace {

std::vector<Edge> sorted_copy(std::span<const Edge> edges) {
  std::vector<Edge> out(edges.begin(), edges.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

void encode_edge_list(BitWriter& w, Vertex n, std::span<const Edge> edges) {
  const auto sorted = sorted_copy(edges);
  const auto vbits = static_cast<std::uint32_t>(vertex_bits(n));
  w.put_gamma(sorted.size());
  Vertex prev_u = 0;
  for (const Edge& e : sorted) {
    w.put_gamma(e.u - prev_u);  // sorted by u: deltas are non-negative
    w.put_bits(e.v, vbits);
    prev_u = e.u;
  }
}

std::vector<Edge> decode_edge_list(BitReader& r, Vertex n) {
  const auto vbits = static_cast<std::uint32_t>(vertex_bits(n));
  const std::uint64_t count = r.get_gamma();
  // Every encoded edge takes at least 1 (delta) + vbits (endpoint) bits, so
  // a count the remaining payload cannot hold is corrupt. Checking before
  // reserving also keeps a corrupt count from forcing a huge allocation.
  if (count > r.remaining() / (1 + vbits)) {
    throw WireError("decode_edge_list: corrupt count " + std::to_string(count));
  }
  std::vector<Edge> out;
  out.reserve(count);
  Vertex prev_u = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t delta = r.get_gamma();
    const std::uint64_t u64 = static_cast<std::uint64_t>(prev_u) + delta;
    const std::uint64_t v64 = r.get_bits(vbits);
    if (u64 >= n || v64 >= n) {
      throw WireError("decode_edge_list: endpoint outside universe of " + std::to_string(n));
    }
    out.emplace_back(static_cast<Vertex>(u64), static_cast<Vertex>(v64));
    prev_u = static_cast<Vertex>(u64);
  }
  return out;
}

void encode_vertex_list(BitWriter& w, Vertex n, std::span<const Vertex> vertices) {
  std::vector<Vertex> sorted(vertices.begin(), vertices.end());
  std::sort(sorted.begin(), sorted.end());
  (void)n;
  w.put_gamma(sorted.size());
  Vertex prev = 0;
  for (const Vertex v : sorted) {
    w.put_gamma(v - prev);
    prev = v;
  }
}

std::vector<Vertex> decode_vertex_list(BitReader& r, Vertex n) {
  const std::uint64_t count = r.get_gamma();
  // Each encoded vertex takes at least one delta bit.
  if (count > r.remaining()) {
    throw WireError("decode_vertex_list: corrupt count " + std::to_string(count));
  }
  std::vector<Vertex> out;
  out.reserve(count);
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    prev += r.get_gamma();
    if (prev >= n) {
      throw WireError("decode_vertex_list: vertex outside universe of " + std::to_string(n));
    }
    out.push_back(static_cast<Vertex>(prev));
  }
  return out;
}

std::uint64_t encoded_edge_list_bits(Vertex n, std::span<const Edge> edges) {
  BitWriter w;
  encode_edge_list(w, n, edges);
  return w.bit_size();
}

}  // namespace tft

#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"

/// \file wire.h
/// Concrete wire encoding for protocol messages.
///
/// The Transcript charges idealized bit costs (the measure the paper's
/// theorems are stated in). This codec backs those charges with an actual
/// serialization: a MSB-first bit stream with fixed-width fields, Elias-
/// gamma-coded counters, and delta-coded sorted edge lists. The test suite
/// checks that real encoded sizes track the charged costs (the edge-list
/// encoding is in fact slightly *smaller* than the charged 2⌈log n⌉ bits
/// per edge once lists are sorted, so the idealized accounting is honest).

namespace tft {

/// Typed decode failure: truncated input, a bit_size that overruns the
/// byte buffer, or a corrupt payload (impossible counts, out-of-universe
/// vertex ids). Derives from std::out_of_range so callers that only guard
/// against reading past the end keep working.
class WireError : public std::out_of_range {
 public:
  explicit WireError(const std::string& what) : std::out_of_range(what) {}
};

/// MSB-first bit writer. Fields move a byte per step; pad bits in the last
/// byte are zero.
class BitWriter {
 public:
  void put_bit(bool b);
  /// Lowest `width` bits of `value`, MSB first; bits above `width` are
  /// ignored. Throws std::invalid_argument when width > 64.
  void put_bits(std::uint64_t value, std::uint32_t width);
  /// Elias-gamma code for value >= 0 (stored as value + 1). Throws
  /// std::invalid_argument, writing nothing, for 2^64 - 1, whose value + 1
  /// does not fit.
  void put_gamma(std::uint64_t value);

  [[nodiscard]] std::uint64_t bit_size() const noexcept { return bits_; }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept { return bytes_; }
  /// Hand over the finished buffer without copying it; the writer is left
  /// empty.
  [[nodiscard]] std::vector<std::uint8_t> take_bytes() noexcept {
    bits_ = 0;
    return std::exchange(bytes_, {});
  }

 private:
  std::vector<std::uint8_t> bytes_;
  std::uint64_t bits_ = 0;
};

/// MSB-first bit reader over a BitWriter's output. Every read is bounds-
/// checked: reading past `bit_size` — or past the actual byte buffer, if a
/// corrupt `bit_size` overstates it — throws WireError instead of touching
/// memory it does not own.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bytes, std::uint64_t bit_size) noexcept
      : bytes_(bytes),
        bit_size_(std::min<std::uint64_t>(bit_size, bytes.size() * std::uint64_t{8})) {}

  [[nodiscard]] bool get_bit();
  /// Next `width` bits, MSB first. Throws WireError when width > 64 or
  /// fewer than `width` bits remain.
  [[nodiscard]] std::uint64_t get_bits(std::uint32_t width);
  [[nodiscard]] std::uint64_t get_gamma();
  /// Step over `bits` bits; throws WireError when fewer remain.
  void skip(std::uint64_t bits);
  [[nodiscard]] std::uint64_t position() const noexcept { return pos_; }
  [[nodiscard]] bool exhausted() const noexcept { return pos_ >= bit_size_; }
  /// Bits left before the reader runs dry.
  [[nodiscard]] std::uint64_t remaining() const noexcept { return bit_size_ - pos_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::uint64_t bit_size_;
  std::uint64_t pos_ = 0;
};

/// Encode a list of edges over an n-vertex universe. The list is sorted and
/// delta-coded: a gamma-coded length, then per edge the (gamma-coded) delta
/// of u from the previous u and a fixed-width v.
void encode_edge_list(BitWriter& w, Vertex n, std::span<const Edge> edges);

/// Decode what encode_edge_list wrote. Throws WireError on truncated or
/// corrupt input (a length that cannot fit in the remaining bits, or an
/// endpoint outside the n-vertex universe) — it never reads past the
/// buffer and never trusts a corrupt count for allocation.
[[nodiscard]] std::vector<Edge> decode_edge_list(BitReader& r, Vertex n);

/// Encode a sorted vertex list (delta + gamma).
void encode_vertex_list(BitWriter& w, Vertex n, std::span<const Vertex> vertices);
/// Throws WireError on truncated/corrupt input (see decode_edge_list).
[[nodiscard]] std::vector<Vertex> decode_vertex_list(BitReader& r, Vertex n);

/// Size in bits that encode_edge_list would produce (without materializing).
[[nodiscard]] std::uint64_t encoded_edge_list_bits(Vertex n, std::span<const Edge> edges);

}  // namespace tft

#pragma once

#include <bit>
#include <cstdint>

/// \file bits.h
/// Bit-width helpers used for communication accounting.
///
/// The paper measures protocol cost in bits. Throughout the library a vertex
/// id out of a universe of size n is charged ceil(log2 n) bits, an edge is
/// charged two vertex ids, and a non-negative counter x is charged
/// ceil(log2(x+1)) + 1 bits (value plus a terminator/flag bit, matching the
/// usual self-delimiting convention used implicitly in the paper).

namespace tft {

/// Number of bits needed to represent values in [0, x], at least 1.
[[nodiscard]] constexpr std::uint64_t bit_width_of(std::uint64_t x) noexcept {
  return x == 0 ? 1 : static_cast<std::uint64_t>(std::bit_width(x));
}

/// Bits charged for one vertex id from a universe of n vertices.
[[nodiscard]] constexpr std::uint64_t vertex_bits(std::uint64_t n) noexcept {
  return bit_width_of(n > 0 ? n - 1 : 0);
}

/// Bits charged for one edge (two endpoints) from a universe of n vertices.
[[nodiscard]] constexpr std::uint64_t edge_bits(std::uint64_t n) noexcept {
  return 2 * vertex_bits(n);
}

/// Bits charged for transmitting a non-negative counter of value x.
[[nodiscard]] constexpr std::uint64_t count_bits(std::uint64_t x) noexcept {
  return bit_width_of(x) + 1;
}

/// ceil(log2 x) for x >= 1.
[[nodiscard]] constexpr std::uint64_t ceil_log2(std::uint64_t x) noexcept {
  std::uint64_t w = 0;
  std::uint64_t v = 1;
  while (v < x) {
    v <<= 1;
    ++w;
  }
  return w;
}

}  // namespace tft

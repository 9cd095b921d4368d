#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "graph/graph.h"

/// \file intersect.h
/// Sorted-row intersection kernels with runtime CPU dispatch.
///
/// Triangle counting, finding, and packing all reduce to one primitive:
/// intersect two sorted neighbor rows (Huang–Pettie–Zhang treat set
/// intersection as *the* communication primitive; here it is the compute
/// primitive). This layer provides that primitive in two styles —
/// two-pointer/galloping merge and bit-packed bitmap probing — each with a
/// scalar body (always compiled) and an AVX2 body (compiled per-function via
/// `__attribute__((target("avx2")))`, so the rest of the binary needs no
/// `-mavx2`). The host decides which bodies run: `ops()` is the AVX2 table
/// when `cpu::features()` reports AVX2 and the build keeps it (no
/// `-DTFT_DISABLE_AVX2`), else the scalar table. Nothing is selectable at
/// run time.
///
/// ## Bit-identity contract
///
/// Both tables return *exactly* the same value on the same input: counts are
/// exact integers, and `merge_find`/`bitmap_find` visit common elements in
/// strictly ascending order, so the first accepted candidate — and therefore
/// every triangle, packing, and downstream protocol decision — is identical
/// on every host and at any thread count. tests/test_intersect checks both
/// tables against `std::set_intersection`, and holds count, find and packing
/// on the bench families and edge-case graphs to literals frozen from the
/// seed kernels; CI runs the suite and the whole bench baseline in a
/// `-DTFT_DISABLE_AVX2=ON` build.

namespace tft::kernel {

/// True iff the AVX2 kernel bodies are compiled in and usable.
[[nodiscard]] bool avx2_available() noexcept;

/// Candidate filter for the find primitives: return true to accept `w` (the
/// search stops and reports it), false to continue with the next common
/// element in ascending order. A null Accept accepts everything.
using Accept = bool (*)(void* ctx, Vertex w);

/// Function-pointer table of primitive bodies.
struct Ops {
  /// |a ∩ b| over sorted unique rows. Uses galloping when sizes are skewed.
  std::uint64_t (*merge_count)(std::span<const Vertex> a, std::span<const Vertex> b);

  /// First common element of a and b (ascending) accepted by `accept`.
  bool (*merge_find)(std::span<const Vertex> a, std::span<const Vertex> b, Accept accept,
                     void* ctx, Vertex* out);

  /// Count candidates whose bit is set: bit index b[i] - base into `bits`
  /// (uint32 words, bit w -> bits[w>>5] >> (w&31)). Caller guarantees every
  /// b[i] >= base and b[i] - base within the bitmap.
  std::uint64_t (*bitmap_count)(const std::uint32_t* bits, const Vertex* b, std::size_t len,
                                Vertex base);

  /// First candidate (in row order == ascending) whose bit is set and that
  /// `accept` takes. Bit index is b[i] (no base; find paths are unblocked).
  bool (*bitmap_find)(const std::uint32_t* bits, const Vertex* b, std::size_t len,
                      Accept accept, void* ctx, Vertex* out);
};

[[nodiscard]] const Ops& ops() noexcept;         ///< the host's table (AVX2 iff available)
[[nodiscard]] const Ops& scalar_ops() noexcept;  ///< the scalar bodies, on every host

/// ## Thread-local mark scratch (cap-and-reallocate)
///
/// Zero-initialized per-thread bitmap scratch for the mark paths. Callers
/// must restore the zeros they set before returning the buffer, so reuse
/// never re-zeroes. Capacity is *capped*: when a request is far below the retained capacity
/// (a one-off n = 1e8 call would otherwise pin ~100 MB per worker thread
/// forever), the buffer is reallocated down to the request size. The retain
/// threshold is tunable for tests.

/// Bitmap words covering `nbits` bits (+1 guard word), all zero on return.
[[nodiscard]] std::uint32_t* mark_bits(std::size_t nbits);

/// Bytes currently held by this thread's mark scratch.
[[nodiscard]] std::size_t thread_scratch_bytes() noexcept;

/// Free this thread's scratch outright.
void release_thread_scratch() noexcept;

/// Scratch capacity above max(request, retain) is released on the next
/// request. Default 8 MiB. Process-global; set from a single thread.
void set_scratch_retain_bytes(std::size_t bytes) noexcept;
[[nodiscard]] std::size_t scratch_retain_bytes() noexcept;

/// ## Cache blocking
///
/// Column-tile width for the blocked bitmap count path, as log2(vertices
/// per tile). 0 = auto: blocking engages only when the full bitmap would
/// exceed ~1 MiB (n > 2^23) with 2^22-vertex tiles (512 KiB slices, inside
/// L2). Test knob: tiny values force the blocked path on small graphs.
void set_block_bits(std::uint32_t bits) noexcept;
[[nodiscard]] std::uint32_t block_bits() noexcept;

/// Oriented-CSR offsets are uint32_t: reject inputs whose edge count would
/// wrap them. Throws std::length_error when m >= UINT32_MAX.
void require_csr_offsets_fit(std::size_t m);

}  // namespace tft::kernel

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "graph/graph.h"

/// \file intersect.h
/// Sorted-row intersection kernels with runtime CPU dispatch.
///
/// Triangle counting, finding, and packing all reduce to one primitive:
/// intersect two sorted neighbor rows (Huang–Pettie–Zhang treat set
/// intersection as *the* communication primitive; here it is the compute
/// primitive). This layer provides that primitive in three styles —
/// two-pointer/galloping merge, byte-mark probing, and bit-packed bitmap
/// probing — each with a scalar reference implementation (always compiled)
/// and an AVX2 implementation (compiled per-function via
/// `__attribute__((target("avx2")))`, so the rest of the binary needs no
/// `-mavx2`), selected at runtime from `cpu::features()`.
///
/// ## Bit-identity contract
///
/// Every implementation of a primitive returns *exactly* the same value on
/// the same input: counts are exact integers, and `merge_find`/`bitmap_find`
/// visit common elements in strictly ascending order in every variant, so
/// the first accepted candidate — and therefore every triangle, packing, and
/// downstream protocol decision — is identical across scalar/AVX2/bitset and
/// any thread count. `bench_kernels --kernel_rows=1` A/B-checks this on
/// every run (like the chunked `chunk_identity` rows); tests/test_intersect
/// property-checks it over the generator zoo with shrinking.
///
/// ## Variants
///
/// `Variant` names a *strategy* for the triangle kernels in triangles.cpp:
///   * kScalar — the seed algorithm (two-pointer merge + byte marks),
///     scalar code only. Baseline rows are pinned to this variant so
///     BENCH_baseline.json stays host-independent.
///   * kAvx2   — same mark-scratch structure, AVX2 gather/compare inner
///     loops. Resolves to kScalar when AVX2 is absent or compiled out.
///     kAuto never picks it, but its byte-mark count beats kBitset's while
///     the byte marks stay cache-resident (gnp at n = 2e4: 29 vs 32 ms on a
///     4-core x86 host; see EXPERIMENTS.md "E-KERNELS-SIMD"), so it stays
///     selectable.
///   * kBitset — bit-packed bitmap rows (1 bit/vertex: L1-resident at
///     n = 1e5 vs 100 KB of byte marks) probed 8 lanes at a time, plus
///     cache-blocked column tiling at large n so the hot slice stays
///     L2-resident. Works (scalar inner loops) even without AVX2.
///   * kAuto   — kBitset when AVX2 is available, else kScalar.
///
/// The selected variant is process-global (`set_variant`), read once per
/// kernel invocation. It is a performance knob only: outputs never change.

namespace tft::kernel {

enum class Variant : std::uint8_t { kAuto = 0, kScalar, kAvx2, kBitset };

/// Select the kernel strategy for subsequent triangle-kernel calls.
/// Call from a single thread between kernel invocations (bench/test knob).
void set_variant(Variant v) noexcept;
[[nodiscard]] Variant variant() noexcept;

/// The variant that will actually run: kAuto/kAvx2 fall back to
/// kScalar/kBitset depending on AVX2 availability. Never returns kAuto.
[[nodiscard]] Variant resolved_variant() noexcept;

[[nodiscard]] const char* to_string(Variant v) noexcept;
[[nodiscard]] std::optional<Variant> variant_from_name(std::string_view name) noexcept;

/// True iff the AVX2 kernel implementations are compiled in and usable.
[[nodiscard]] bool avx2_available() noexcept;

/// Candidate filter for the find primitives: return true to accept `w` (the
/// search stops and reports it), false to continue with the next common
/// element in ascending order. A null Accept accepts everything.
using Accept = bool (*)(void* ctx, Vertex w);

/// Resolved function-pointer table for one variant. `ops()` returns the
/// table for the current global variant; `ops_for()` lets benches A/B all
/// variants without mutating global state.
struct Ops {
  Variant strategy;  ///< kScalar, kAvx2, or kBitset — never kAuto

  /// |a ∩ b| over sorted unique rows. Uses galloping when sizes are skewed.
  std::uint64_t (*merge_count)(std::span<const Vertex> a, std::span<const Vertex> b);

  /// First common element of a and b (ascending) accepted by `accept`.
  bool (*merge_find)(std::span<const Vertex> a, std::span<const Vertex> b, Accept accept,
                     void* ctx, Vertex* out);

  /// Sum of marks[b[i]] over the candidate row. `marks` must be 0/1 bytes
  /// with >= 32 bytes of tail padding (use mark_bytes()). AVX2 path gathers
  /// by signed 32-bit index: caller guarantees ids < 2^31.
  std::uint64_t (*marks_count)(const std::uint8_t* marks, const Vertex* b, std::size_t len);

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

[[nodiscard]] const Ops& ops() noexcept;           ///< table for resolved_variant()
[[nodiscard]] const Ops& ops_for(Variant v) noexcept;  ///< kAuto resolves first

/// ## Thread-local mark scratch (cap-and-reallocate)
///
/// Zero-initialized per-thread scratch for the mark/bitmap paths. Callers
/// must restore the zeros they set before returning the buffer (the seed
/// contract), so reuse never re-zeroes. Unlike the old `mark_scratch`,
/// capacity is *capped*: when a request is far below the retained capacity
/// (a one-off n = 1e8 call would otherwise pin ~100 MB per worker thread
/// forever), the buffer is reallocated down to the request size. The retain
/// threshold is tunable for tests.

/// Byte marks sized n + 32 (gather tail padding), all zero on return.
[[nodiscard]] std::uint8_t* mark_bytes(std::size_t n);

/// Bitmap words covering `nbits` bits (+1 guard word), all zero on return.
[[nodiscard]] std::uint32_t* mark_bits(std::size_t nbits);

/// Bytes currently held by this thread's mark scratch (both buffers).
[[nodiscard]] std::size_t thread_scratch_bytes() noexcept;

/// Free this thread's scratch outright.
void release_thread_scratch() noexcept;

/// Scratch capacity above max(request, retain) is released on the next
/// request. Default 8 MiB. Process-global; set from a single thread.
void set_scratch_retain_bytes(std::size_t bytes) noexcept;
[[nodiscard]] std::size_t scratch_retain_bytes() noexcept;

/// ## Cache blocking
///
/// Column-tile width for the blocked bitset count path, as log2(vertices
/// per tile). 0 = auto: blocking engages only when the full bitmap would
/// exceed ~1 MiB (n > 2^23) with 2^22-vertex tiles (512 KiB slices, inside
/// L2). Test knob: tiny values force the blocked path on small graphs.
void set_block_bits(std::uint32_t bits) noexcept;
[[nodiscard]] std::uint32_t block_bits() noexcept;

/// Oriented-CSR offsets are uint32_t: reject inputs whose edge count would
/// wrap them. Throws std::length_error when m >= UINT32_MAX.
void require_csr_offsets_fit(std::size_t m);

}  // namespace tft::kernel

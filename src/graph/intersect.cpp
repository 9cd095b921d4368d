#include "graph/intersect.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/cpu.h"

#if (defined(__x86_64__) || defined(__i386__)) && !defined(TFT_DISABLE_AVX2)
#define TFT_HAVE_AVX2_IMPL 1
#include <immintrin.h>
#endif

namespace tft::kernel {

namespace {

// ---------------------------------------------------------------------------
// Scalar bodies (always compiled; the table on hosts without AVX2).
// ---------------------------------------------------------------------------

/// lower_bound with an exponential (galloping) probe from `first`: O(log gap)
/// instead of O(log len) when successive lookups advance monotonically.
const Vertex* gallop_lower_bound(const Vertex* first, const Vertex* last, Vertex x) noexcept {
  std::size_t step = 1;
  const Vertex* probe = first;
  while (probe < last && *probe < x) {
    first = probe + 1;
    probe += step;
    step <<= 1;
  }
  return std::lower_bound(first, std::min(probe, last), x);
}

/// Count when |a| << |b|: gallop through b once for each element of a.
std::uint64_t gallop_count(std::span<const Vertex> a, std::span<const Vertex> b) noexcept {
  std::uint64_t c = 0;
  const Vertex* lo = b.data();
  const Vertex* const end = b.data() + b.size();
  for (const Vertex x : a) {
    lo = gallop_lower_bound(lo, end, x);
    if (lo == end) break;
    if (*lo == x) {
      ++c;
      ++lo;
    }
  }
  return c;
}

/// Size-ratio at which galloping beats a linear merge.
constexpr std::size_t kGallopRatio = 32;

std::uint64_t merge_count_scalar(std::span<const Vertex> a, std::span<const Vertex> b) {
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty()) return 0;
  if (a.size() * kGallopRatio < b.size()) return gallop_count(a, b);
  std::uint64_t c = 0;
  const Vertex* ia = a.data();
  const Vertex* const ea = ia + a.size();
  const Vertex* ib = b.data();
  const Vertex* const eb = ib + b.size();
  while (ia != ea && ib != eb) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++c;
      ++ia;
      ++ib;
    }
  }
  return c;
}

/// Two-pointer find over [ia,ea) x [ib,eb); shared by the scalar path and
/// the AVX2 path's tail so candidate order is one definition.
bool merge_find_range(const Vertex* ia, const Vertex* ea, const Vertex* ib, const Vertex* eb,
                      Accept accept, void* ctx, Vertex* out) {
  while (ia != ea && ib != eb) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      if (accept == nullptr || accept(ctx, *ia)) {
        *out = *ia;
        return true;
      }
      ++ia;
      ++ib;
    }
  }
  return false;
}

bool merge_find_scalar(std::span<const Vertex> a, std::span<const Vertex> b, Accept accept,
                       void* ctx, Vertex* out) {
  return merge_find_range(a.data(), a.data() + a.size(), b.data(), b.data() + b.size(), accept,
                          ctx, out);
}

std::uint64_t bitmap_count_scalar(const std::uint32_t* bits, const Vertex* b, std::size_t len,
                                  Vertex base) {
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < len; ++i) {
    const Vertex w = b[i] - base;
    hits += (bits[w >> 5] >> (w & 31)) & 1u;
  }
  return hits;
}

bool bitmap_find_scalar(const std::uint32_t* bits, const Vertex* b, std::size_t len,
                        Accept accept, void* ctx, Vertex* out) {
  for (std::size_t i = 0; i < len; ++i) {
    const Vertex w = b[i];
    if (((bits[w >> 5] >> (w & 31)) & 1u) != 0 && (accept == nullptr || accept(ctx, w))) {
      *out = w;
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// AVX2 implementations. Compiled per-function (target attribute) so the
// translation unit builds without -mavx2; never called unless
// cpu::have_avx2() proved the host executes them.
// ---------------------------------------------------------------------------

#if defined(TFT_HAVE_AVX2_IMPL)

/// 8x8 all-pairs block compare: OR of cmpeq(va, rot^k(vb)) for k = 0..7.
/// A set bit in the movemask marks an a-lane whose value occurs in the
/// b-block; since rows are strictly increasing, each common value occupies
/// exactly one a-lane and lane order == value order.
__attribute__((target("avx2"))) inline __m256i block_compare(__m256i va, __m256i vb,
                                                             __m256i rot1) {
  __m256i cmp = _mm256_cmpeq_epi32(va, vb);
  __m256i r = vb;
  for (int k = 0; k < 7; ++k) {
    r = _mm256_permutevar8x32_epi32(r, rot1);
    cmp = _mm256_or_si256(cmp, _mm256_cmpeq_epi32(va, r));
  }
  return cmp;
}

__attribute__((target("avx2"))) std::uint64_t merge_count_avx2(std::span<const Vertex> a,
                                                               std::span<const Vertex> b) {
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty()) return 0;
  if (a.size() * kGallopRatio < b.size()) return gallop_count(a, b);
  const Vertex* pa = a.data();
  const Vertex* const ea = pa + a.size();
  const Vertex* pb = b.data();
  const Vertex* const eb = pb + b.size();
  std::uint64_t count = 0;
  const __m256i rot1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
  while (pa + 8 <= ea && pb + 8 <= eb) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pa));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pb));
    const __m256i cmp = block_compare(va, vb, rot1);
    count += static_cast<unsigned>(
        std::popcount(static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(cmp)))));
    // Advance the block whose max is smaller; both on a tie. Discarded
    // elements can never match remaining ones (strictly increasing rows),
    // so every common value is compared exactly once.
    const Vertex amax = pa[7];
    const Vertex bmax = pb[7];
    if (amax <= bmax) pa += 8;
    if (bmax <= amax) pb += 8;
  }
  // Scalar tail over the remainders.
  while (pa != ea && pb != eb) {
    if (*pa < *pb) {
      ++pa;
    } else if (*pb < *pa) {
      ++pb;
    } else {
      ++count;
      ++pa;
      ++pb;
    }
  }
  return count;
}

__attribute__((target("avx2"))) bool merge_find_avx2(std::span<const Vertex> a,
                                                     std::span<const Vertex> b, Accept accept,
                                                     void* ctx, Vertex* out) {
  const Vertex* pa = a.data();
  const Vertex* const ea = pa + a.size();
  const Vertex* pb = b.data();
  const Vertex* const eb = pb + b.size();
  const __m256i rot1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
  while (pa + 8 <= ea && pb + 8 <= eb) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pa));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pb));
    const __m256i cmp = block_compare(va, vb, rot1);
    unsigned mask = static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(cmp)));
    // Matched a-lanes ascend in value, and block advancement only ever moves
    // to strictly larger values, so candidates arrive globally ascending —
    // the same order as the scalar two-pointer merge.
    while (mask != 0) {
      const unsigned lane = static_cast<unsigned>(std::countr_zero(mask));
      const Vertex w = pa[lane];
      if (accept == nullptr || accept(ctx, w)) {
        *out = w;
        return true;
      }
      mask &= mask - 1;
    }
    const Vertex amax = pa[7];
    const Vertex bmax = pb[7];
    if (amax <= bmax) pa += 8;
    if (bmax <= amax) pb += 8;
  }
  return merge_find_range(pa, ea, pb, eb, accept, ctx, out);
}

__attribute__((target("avx2"))) std::uint64_t bitmap_count_avx2(const std::uint32_t* bits,
                                                                const Vertex* b,
                                                                std::size_t len, Vertex base) {
  const __m256i vbase = _mm256_set1_epi32(static_cast<int>(base));
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i shift_mask = _mm256_set1_epi32(31);
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    const __m256i raw = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i idx = _mm256_sub_epi32(raw, vbase);
    const __m256i word = _mm256_i32gather_epi32(reinterpret_cast<const int*>(bits),
                                                _mm256_srli_epi32(idx, 5), 4);
    const __m256i bit =
        _mm256_and_si256(_mm256_srlv_epi32(word, _mm256_and_si256(idx, shift_mask)), one);
    acc = _mm256_add_epi32(acc, bit);
  }
  const __m128i lo = _mm256_castsi256_si128(acc);
  const __m128i hi = _mm256_extracti128_si256(acc, 1);
  __m128i s = _mm_add_epi32(lo, hi);
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x4E));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0xB1));
  std::uint64_t hits = static_cast<std::uint32_t>(_mm_cvtsi128_si32(s));
  for (; i < len; ++i) {
    const Vertex w = b[i] - base;
    hits += (bits[w >> 5] >> (w & 31)) & 1u;
  }
  return hits;
}

__attribute__((target("avx2"))) bool bitmap_find_avx2(const std::uint32_t* bits,
                                                      const Vertex* b, std::size_t len,
                                                      Accept accept, void* ctx, Vertex* out) {
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i shift_mask = _mm256_set1_epi32(31);
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    const __m256i idx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i word = _mm256_i32gather_epi32(reinterpret_cast<const int*>(bits),
                                                _mm256_srli_epi32(idx, 5), 4);
    const __m256i bit =
        _mm256_and_si256(_mm256_srlv_epi32(word, _mm256_and_si256(idx, shift_mask)), one);
    unsigned mask = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_slli_epi32(bit, 31))));
    while (mask != 0) {
      const unsigned lane = static_cast<unsigned>(std::countr_zero(mask));
      const Vertex w = b[i + lane];
      if (accept == nullptr || accept(ctx, w)) {
        *out = w;
        return true;
      }
      mask &= mask - 1;
    }
  }
  for (; i < len; ++i) {
    const Vertex w = b[i];
    if (((bits[w >> 5] >> (w & 31)) & 1u) != 0 && (accept == nullptr || accept(ctx, w))) {
      *out = w;
      return true;
    }
  }
  return false;
}

#endif  // TFT_HAVE_AVX2_IMPL

// ---------------------------------------------------------------------------
// Dispatch tables.
// ---------------------------------------------------------------------------

constexpr Ops kScalarOps = {merge_count_scalar, merge_find_scalar, bitmap_count_scalar,
                            bitmap_find_scalar};
#if defined(TFT_HAVE_AVX2_IMPL)
constexpr Ops kAvx2Ops = {merge_count_avx2, merge_find_avx2, bitmap_count_avx2,
                          bitmap_find_avx2};
#endif

}  // namespace

bool avx2_available() noexcept {
#if defined(TFT_HAVE_AVX2_IMPL)
  return cpu::have_avx2();
#else
  return false;
#endif
}

const Ops& ops() noexcept {
#if defined(TFT_HAVE_AVX2_IMPL)
  if (avx2_available()) return kAvx2Ops;
#endif
  return kScalarOps;
}

const Ops& scalar_ops() noexcept { return kScalarOps; }

// ---------------------------------------------------------------------------
// Thread-local mark scratch with cap-and-reallocate.
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kDefaultRetainBytes = std::size_t{8} << 20;  // 8 MiB

std::atomic<std::size_t> g_retain_bytes{kDefaultRetainBytes};

/// Bitmap words, +1 guard word.
std::vector<std::uint32_t>& scratch() noexcept {
  thread_local std::vector<std::uint32_t> words;
  return words;
}

}  // namespace

std::uint32_t* mark_bits(std::size_t nbits) {
  auto& words = scratch();
  const std::size_t need = (nbits >> 5) + 2;
  // Cap-and-reallocate: drop the buffer when its capacity exceeds both the
  // request and the retain threshold, so a one-off huge-n call doesn't pin
  // its scratch for the life of the thread.
  const std::size_t retain = g_retain_bytes.load(std::memory_order_relaxed);
  if (words.capacity() * sizeof(std::uint32_t) >
      std::max(need * sizeof(std::uint32_t), retain)) {
    std::vector<std::uint32_t>().swap(words);
  }
  if (words.size() < need) words.assign(need, 0);
  return words.data();
}

std::size_t thread_scratch_bytes() noexcept {
  return scratch().capacity() * sizeof(std::uint32_t);
}

void release_thread_scratch() noexcept { std::vector<std::uint32_t>().swap(scratch()); }

void set_scratch_retain_bytes(std::size_t bytes) noexcept {
  g_retain_bytes.store(bytes, std::memory_order_relaxed);
}

std::size_t scratch_retain_bytes() noexcept {
  return g_retain_bytes.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Blocking knob and CSR width guard.
// ---------------------------------------------------------------------------

namespace {

std::atomic<std::uint32_t> g_block_bits{0};

}  // namespace

void set_block_bits(std::uint32_t bits) noexcept {
  g_block_bits.store(bits, std::memory_order_relaxed);
}

std::uint32_t block_bits() noexcept { return g_block_bits.load(std::memory_order_relaxed); }

void require_csr_offsets_fit(std::size_t m) {
  if (m >= static_cast<std::size_t>(UINT32_MAX)) {
    throw std::length_error("oriented CSR uses 32-bit offsets: graph has m = " +
                            std::to_string(m) +
                            " >= 4294967295 edges; widen OrientedCsr::offsets to go larger");
  }
}

}  // namespace tft::kernel

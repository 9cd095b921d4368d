#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/partition.h"
#include "util/rng.h"

/// \file instance_cache.h
/// Deterministic memo for sweep instances (graph + player partition).
///
/// A min-budget sweep evaluates the same (seed, trial_index) instance at
/// every probed budget — a dozen probes times dozens of trials — and the
/// seed harnesses regenerated the graph and re-partitioned it for every
/// single protocol run. The cache generates each instance exactly once,
/// shares the immutable result across all protocols and budget probes of a
/// sweep, and evicts least-recently-used entries once a byte budget is
/// exceeded.
///
/// Determinism contract: the cached value is required to be a pure function
/// of its key (the builder must derive all randomness from the key, e.g. via
/// `derive_rng(key.seed, key.trial_index)`). Then a hit, a rebuild after
/// eviction, and a direct call of the builder are indistinguishable, so
/// every sweep output is the same whatever the byte budget evicts, at any
/// thread count (tests/test_sweep.cpp locks this in).

namespace tft {

/// Cache key: everything an instance builder may draw on. `param_bits`
/// carries a real-valued generator parameter (gamma, d, ...) via its IEEE
/// bit pattern so lookups are exact. `chunk_id` extends the purity contract
/// to chunked generation (graph/chunked.h): a per-chunk slice is a pure
/// function of the key including its chunk, so hit, rebuild-after-eviction,
/// chunked and monolithic builds all stay indistinguishable. Monolithic
/// payloads leave it at 0, which hashes and compares exactly as before.
struct InstanceKey {
  std::uint64_t generator = 0;  ///< caller-chosen tag naming the builder
  std::uint64_t n = 0;
  std::uint64_t param_bits = 0;
  std::uint64_t k = 0;
  std::uint64_t seed = 0;
  std::uint64_t trial_index = 0;
  std::uint64_t chunk_id = 0;

  friend bool operator==(const InstanceKey&, const InstanceKey&) = default;

  [[nodiscard]] static std::uint64_t pack_param(double p) noexcept {
    return std::bit_cast<std::uint64_t>(p);
  }
};

struct InstanceKeyHash {
  [[nodiscard]] std::size_t operator()(const InstanceKey& key) const noexcept {
    return static_cast<std::size_t>(
        mix_hash(mix_hash(key.generator, key.n, key.param_bits),
                 mix_hash(key.k, key.seed, key.trial_index), key.chunk_id));
  }
};

/// Byte-size customization point for cached payloads; overloads are found by
/// ADL from the payload's namespace (tft types below, bench-local structs in
/// the bench files).
[[nodiscard]] inline std::size_t approx_bytes(const Graph& g) noexcept {
  return g.memory_bytes();
}
[[nodiscard]] inline std::size_t approx_bytes(const PlayerInput& p) noexcept {
  return sizeof(PlayerInput) + p.local.memory_bytes();
}
template <typename T>
[[nodiscard]] std::size_t approx_bytes(const std::vector<T>& v) noexcept {
  std::size_t total = sizeof(v) + (v.capacity() - v.size()) * sizeof(T);
  for (const T& x : v) total += approx_bytes(x);
  return total;
}

class InstanceCache {
 public:
  /// `byte_budget` bounds the summed approx_bytes of retained entries;
  /// exceeding it evicts least-recently-used entries (live shared_ptrs held
  /// by callers stay valid — eviction only drops the cache's reference).
  explicit InstanceCache(std::size_t byte_budget) : byte_budget_(byte_budget) {}

  /// Fetch the instance for `key`, invoking build() on a miss. build must be
  /// a pure function of `key` returning T by value. Thread-safe; concurrent
  /// misses on the same key may build twice (both results are identical by
  /// purity; the first insert wins and the loser's copy is dropped).
  template <typename T, typename Build>
  [[nodiscard]] std::shared_ptr<const T> get_or_build(const InstanceKey& key, Build&& build) {
    static_assert(std::is_same_v<std::decay_t<std::invoke_result_t<Build&>>, T>,
                  "build() must return the cached payload type");
    if (auto hit = lookup(key)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return std::static_pointer_cast<const T>(std::move(hit));
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    auto value = std::make_shared<const T>(build());
    const std::size_t bytes = approx_bytes(*value);
    auto resident = insert(key, value, bytes);
    return std::static_pointer_cast<const T>(std::move(resident));
  }

  void set_byte_budget(std::size_t bytes);
  [[nodiscard]] std::size_t byte_budget() const noexcept { return byte_budget_; }

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;  ///< builds
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    std::size_t bytes = 0;  ///< summed approx_bytes of retained entries
  };
  [[nodiscard]] Stats stats() const;
  void reset_stats();

  /// Drop every entry (live shared_ptrs stay valid).
  void clear();

  /// The process-wide cache the bench sweep layer uses (default budget
  /// 256 MiB; SweepContext re-sizes it from `--cache_mb`).
  [[nodiscard]] static InstanceCache& global();

 private:
  // Type-erased resident value: shared_ptr<const void> with the payload's
  // byte size remembered for budget accounting.
  struct Entry {
    std::shared_ptr<const void> value;
    std::size_t bytes = 0;
    std::list<InstanceKey>::iterator lru_pos;
  };

  [[nodiscard]] std::shared_ptr<const void> lookup(const InstanceKey& key);
  [[nodiscard]] std::shared_ptr<const void> insert(const InstanceKey& key,
                                                   std::shared_ptr<const void> value,
                                                   std::size_t bytes);
  void evict_to_budget_locked();  // requires mutex_ held

  mutable std::mutex mutex_;
  std::size_t byte_budget_;
  std::size_t bytes_ = 0;
  std::unordered_map<InstanceKey, Entry, InstanceKeyHash> entries_;
  std::list<InstanceKey> lru_;  // front = most recently used
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace tft

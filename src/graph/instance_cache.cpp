#include "graph/instance_cache.h"

#include "util/mem.h"

namespace tft {

std::shared_ptr<const void> InstanceCache::lookup(const InstanceKey& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);  // bump to most recent
  return it->second.value;
}

std::shared_ptr<const void> InstanceCache::insert(const InstanceKey& key,
                                                  std::shared_ptr<const void> value,
                                                  std::size_t bytes) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    // A concurrent builder won the race; adopt its (identical) value and
    // drop ours.
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second.value;
  }
  lru_.push_front(key);
  entries_.emplace(key, Entry{value, bytes, lru_.begin()});
  bytes_ += bytes;
  // The arena counter (util/mem.h) tracks resident instance bytes so sweeps
  // can report an allocator-level high-water next to peak RSS.
  arena_charge(bytes);
  evict_to_budget_locked();
  return value;
}

void InstanceCache::evict_to_budget_locked() {
  // Never evict the most-recent entry: a cache smaller than one instance
  // degrades to pass-through (the caller keeps its shared_ptr), not to
  // thrashing an empty map.
  while (bytes_ > byte_budget_ && lru_.size() > 1) {
    const InstanceKey victim = lru_.back();
    lru_.pop_back();
    const auto it = entries_.find(victim);
    bytes_ -= it->second.bytes;
    arena_release(it->second.bytes);
    entries_.erase(it);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void InstanceCache::set_byte_budget(std::size_t bytes) {
  const std::lock_guard<std::mutex> lock(mutex_);
  byte_budget_ = bytes;
  evict_to_budget_locked();
}

InstanceCache::Stats InstanceCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return {hits_.load(std::memory_order_relaxed), misses_.load(std::memory_order_relaxed),
          evictions_.load(std::memory_order_relaxed), entries_.size(), bytes_};
}

void InstanceCache::reset_stats() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
}

void InstanceCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  arena_release(bytes_);
  entries_.clear();
  lru_.clear();
  bytes_ = 0;
}

InstanceCache& InstanceCache::global() {
  static InstanceCache cache(std::size_t{256} << 20);
  return cache;
}

}  // namespace tft

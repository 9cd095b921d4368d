#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <vector>

/// \file vclock_hub.h
/// The quiescence barrier of the servicer's virtual clock, at every shard
/// count.
///
/// Time advances only at quiescence. With N shards the clock is global: a
/// shard that looks idle must not jump time while a sibling shard still
/// has deliverable frames, or retransmit counts would depend on shard
/// placement. So time advances only when EVERY shard has published local
/// quiescence, and it jumps to the minimum actionable deadline across all
/// shards — the same value one servicer holding every session would have
/// picked, because deadlines of distinct sessions never interact beyond the
/// max/min (each session's retransmit decisions depend only on its own
/// frame fates; see PROTOCOLS.md "Sharded servicer"). One shard is the
/// case N = 1 of the same rule: its lone slot is the whole barrier.
///
/// Locking: strictly shard-lock → hub-lock. The hub never takes a shard
/// lock; it wakes sleeping shards by notifying their condvars without the
/// corresponding mutex, so shard waits are bounded (`wait_for` + a clock
/// check) rather than open-ended — a missed notify costs microseconds of
/// latency and zero determinism.
///
/// A shard that exits its run loop (stop + drained) publishes `exit`, a
/// permanently-idle state, so stragglers can still advance the clock.

namespace tft::net {

class VClockHub {
 public:
  explicit VClockHub(std::size_t num_shards) : slots_(num_shards) {}

  /// Register the condvar the hub should poke when shard `i` must re-check
  /// the clock. Called once per shard before any poller starts.
  void attach(std::size_t i, std::condition_variable* cv) { slots_[i].cv = cv; }

  [[nodiscard]] std::uint64_t now() const noexcept {
    return vnow_.load(std::memory_order_acquire);
  }

  /// Shard `i` reports local quiescence (drivers blocked or none live,
  /// sweep made no progress). `deadline` is its earliest actionable
  /// retransmit/fail deadline, if any. Returns true iff THIS call advanced
  /// the global clock — the caller must then retransmit at `now()`. When it
  /// returns false the shard should sleep and re-check `now()`.
  bool publish_idle(std::size_t i, bool has_deadline, std::uint64_t deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    Slot& s = slots_[i];
    s.idle = true;
    s.has_deadline = has_deadline;
    s.deadline = deadline;
    for (const Slot& t : slots_) {
      if (!t.idle && !t.exited) return false;
    }
    std::uint64_t earliest = std::numeric_limits<std::uint64_t>::max();
    for (const Slot& t : slots_) {
      if (!t.exited && t.has_deadline && t.deadline < earliest) earliest = t.deadline;
    }
    if (earliest == std::numeric_limits<std::uint64_t>::max()) return false;
    std::uint64_t now = vnow_.load(std::memory_order_relaxed);
    if (earliest > now) now = earliest;
    vnow_.store(now, std::memory_order_release);
    for (std::size_t j = 0; j < slots_.size(); ++j) {
      if (slots_[j].exited) continue;
      slots_[j].idle = false;
      if (j != i && slots_[j].cv != nullptr) slots_[j].cv->notify_all();
    }
    return true;
  }

  /// Shard `i` woke up with real work (driver activity); it is no longer
  /// quiescent.
  void publish_active(std::size_t i) {
    std::unique_lock<std::mutex> lock(mu_);
    slots_[i].idle = false;
  }

  /// Shard `i`'s poller is exiting: treat it as idle-forever with no
  /// deadlines so it never blocks the remaining shards.
  void publish_exit(std::size_t i) {
    std::unique_lock<std::mutex> lock(mu_);
    slots_[i].exited = true;
    slots_[i].idle = true;
    slots_[i].has_deadline = false;
    // The departing shard may have been the lone holdout; give the others a
    // chance to re-evaluate quiescence.
    for (std::size_t j = 0; j < slots_.size(); ++j) {
      if (j != i && !slots_[j].exited && slots_[j].cv != nullptr) slots_[j].cv->notify_all();
    }
  }

 private:
  struct Slot {
    bool idle = false;
    bool has_deadline = false;
    bool exited = false;
    std::uint64_t deadline = 0;
    std::condition_variable* cv = nullptr;
  };

  mutable std::mutex mu_;
  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> vnow_{0};
};

}  // namespace tft::net

#include "comm/transcript.h"

#include <numeric>
#include <stdexcept>

namespace tft {

void Transcript::charge(std::size_t player, Direction dir, std::uint64_t bits,
                        std::uint64_t phase) {
  if (player >= up_bits_.size()) throw std::out_of_range("Transcript::charge: bad player index");
  total_bits_ += bits;
  if (dir == Direction::kPlayerToCoordinator) {
    up_bits_[player] += bits;
    ++up_msgs_[player];
  } else {
    down_bits_[player] += bits;
    ++down_msgs_[player];
  }
  if (phase >= phase_bits_.size()) phase_bits_.resize(phase + 1, 0);
  phase_bits_[phase] += bits;
  if (record_events_) events_.push_back({player, dir, bits, phase});
}

void Transcript::charge_broadcast(std::uint64_t bits_per_player, std::uint64_t phase) {
  for (std::size_t j = 0; j < up_bits_.size(); ++j) {
    charge(j, Direction::kCoordinatorToPlayer, bits_per_player, phase);
  }
}

std::uint64_t Transcript::upstream_bits() const noexcept {
  return std::accumulate(up_bits_.begin(), up_bits_.end(), std::uint64_t{0});
}

std::uint64_t Transcript::downstream_bits() const noexcept {
  return std::accumulate(down_bits_.begin(), down_bits_.end(), std::uint64_t{0});
}

std::uint64_t Transcript::phase_bits(std::uint64_t phase) const noexcept {
  return phase < phase_bits_.size() ? phase_bits_[phase] : 0;
}

void Transcript::merge(const Transcript& other) {
  if (other.up_bits_.size() != up_bits_.size() || other.universe_n_ != universe_n_) {
    throw std::invalid_argument("Transcript::merge: mismatched player count or universe");
  }
  total_bits_ += other.total_bits_;
  for (std::size_t j = 0; j < up_bits_.size(); ++j) {
    up_bits_[j] += other.up_bits_[j];
    down_bits_[j] += other.down_bits_[j];
    up_msgs_[j] += other.up_msgs_[j];
    down_msgs_[j] += other.down_msgs_[j];
  }
  if (other.phase_bits_.size() > phase_bits_.size()) {
    phase_bits_.reserve(other.phase_bits_.size());
    phase_bits_.resize(other.phase_bits_.size(), 0);
  }
  for (std::size_t ph = 0; ph < other.phase_bits_.size(); ++ph) {
    phase_bits_[ph] += other.phase_bits_[ph];
  }
  // One up-front reservation instead of O(log) doubling reallocations when
  // many partial transcripts are folded into one (parallel trial merges).
  events_.reserve(events_.size() + other.events_.size());
  events_.insert(events_.end(), other.events_.begin(), other.events_.end());
}

}  // namespace tft

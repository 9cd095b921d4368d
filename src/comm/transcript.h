#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "comm/model.h"
#include "util/bits.h"

/// \file transcript.h
/// Per-run communication transcript. Beyond the raw bit total, the
/// transcript records per-player / per-direction tallies and message events
/// so tests can assert structural invariants of each model (e.g. a
/// simultaneous protocol sends exactly one player->referee message per
/// player and zero referee->player bits).

namespace tft {

struct MessageEvent {
  std::size_t player = 0;  ///< 0-based player index; coordinator is not a player
  Direction direction = Direction::kPlayerToCoordinator;
  std::uint64_t bits = 0;
  std::uint64_t phase = 0;  ///< protocol-defined phase tag
};

class Transcript {
 public:
  explicit Transcript(std::size_t num_players, std::uint64_t universe_n)
      : universe_n_(universe_n),
        up_bits_(num_players, 0),
        down_bits_(num_players, 0),
        up_msgs_(num_players, 0),
        down_msgs_(num_players, 0) {}

  /// Charge `bits` to one message between `player` and the coordinator.
  void charge(std::size_t player, Direction dir, std::uint64_t bits, std::uint64_t phase = 0);

  // Convenience charges using the universe size given at construction.
  void charge_flag(std::size_t player, Direction dir, std::uint64_t phase = 0) {
    charge(player, dir, 1, phase);
  }
  void charge_vertex(std::size_t player, Direction dir, std::uint64_t phase = 0) {
    charge(player, dir, vertex_bits(universe_n_), phase);
  }
  void charge_edges(std::size_t player, Direction dir, std::uint64_t m, std::uint64_t phase = 0) {
    charge(player, dir, m * edge_bits(universe_n_), phase);
  }
  void charge_count(std::size_t player, Direction dir, std::uint64_t value,
                    std::uint64_t phase = 0) {
    charge(player, dir, count_bits(value), phase);
  }

  /// A broadcast from the coordinator to every player (coordinator model:
  /// k separate private-channel messages, so cost is multiplied by k).
  void charge_broadcast(std::uint64_t bits_per_player, std::uint64_t phase = 0);

  [[nodiscard]] std::uint64_t total_bits() const noexcept { return total_bits_; }
  [[nodiscard]] std::uint64_t player_bits(std::size_t j) const {
    return up_bits_.at(j) + down_bits_.at(j);
  }
  [[nodiscard]] std::uint64_t upstream_bits() const noexcept;
  [[nodiscard]] std::uint64_t downstream_bits() const noexcept;
  [[nodiscard]] std::uint64_t upstream_bits(std::size_t j) const { return up_bits_.at(j); }
  [[nodiscard]] std::uint64_t downstream_bits(std::size_t j) const { return down_bits_.at(j); }
  [[nodiscard]] std::size_t upstream_messages(std::size_t j) const { return up_msgs_.at(j); }
  [[nodiscard]] std::size_t downstream_messages(std::size_t j) const { return down_msgs_.at(j); }
  [[nodiscard]] std::size_t num_players() const noexcept { return up_bits_.size(); }
  [[nodiscard]] std::uint64_t universe() const noexcept { return universe_n_; }
  [[nodiscard]] const std::vector<MessageEvent>& events() const noexcept { return events_; }

  /// Bits charged with the given phase tag (all players, both directions).
  /// Tracked unconditionally (independent of event recording).
  [[nodiscard]] std::uint64_t phase_bits(std::uint64_t phase) const noexcept;
  /// One past the highest phase tag charged so far.
  [[nodiscard]] std::size_t num_phases() const noexcept { return phase_bits_.size(); }

  /// When true, each charge appends a MessageEvent (costs memory; default on —
  /// benches on very large runs may disable it).
  void set_record_events(bool on) noexcept { record_events_ = on; }
  [[nodiscard]] bool record_events() const noexcept { return record_events_; }

  /// Fold another transcript's charges into this one: tallies, per-phase
  /// totals and (recorded) events are summed / appended. Both transcripts
  /// must agree on the player count and universe. Partial transcripts that
  /// ran with set_record_events(false) still merge their tallies and phase
  /// totals exactly.
  void merge(const Transcript& other);

 private:
  std::uint64_t universe_n_;
  std::uint64_t total_bits_ = 0;
  std::vector<std::uint64_t> up_bits_;
  std::vector<std::uint64_t> down_bits_;
  std::vector<std::size_t> up_msgs_;
  std::vector<std::size_t> down_msgs_;
  std::vector<MessageEvent> events_;
  std::vector<std::uint64_t> phase_bits_;  // always-on per-phase accumulator
  bool record_events_ = true;
};

}  // namespace tft

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "comm/channel.h"
#include "comm/conformance.h"
#include "core/exact_baseline.h"
#include "core/unrestricted.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "net/executed.h"
#include "net/fault.h"
#include "net/runtime.h"
#include "streaming/reduction.h"
#include "util/rng.h"

/// \file chaos.h
/// The crash-chaos harness: run a protocol clean, enumerate every legal
/// crash point (player, phase, offset) from the clean run's charge counts,
/// re-run with a surgical one-crash schedule at each point, and demand the
/// recovered run is indistinguishable — same verdict, same delivered
/// per-player / per-direction / per-phase totals, accounting and
/// conformance intact (run_executed enforces those two by throwing).
///
/// Runs are driven under the virtual clock on the in-proc transport, so a
/// divergence is a deterministic witness, and the harness shrinks it
/// greedily (offset down, then phase down, then player down) to a minimal
/// (model, arq, player, phase, offset) triple before reporting.
///
/// Only *delivered* state is compared. Wire overhead — wire_bytes,
/// retransmissions, duplicates, frames_delivered, acks — legitimately grows
/// under recovery: replay re-sends everything since the barrier and the
/// receiver discards the copies it already had.

namespace tft::chaos {

struct Scenario {
  std::size_t k = 4;
  std::uint64_t instance_seed = 19;
  CommModel model = CommModel::kCoordinator;
  net::ArqPolicy arq = net::ArqPolicy::windowed();
  /// Servicer poller shards. A solo session always lives on one shard, but
  /// > 1 leaves the others empty, so the quiescence hub must advance the
  /// clock across idle siblings — the shard-determinism suite reruns the
  /// chaos grammar at 4 shards against the 1-shard clean baseline.
  std::size_t num_shards = 1;
};

inline const char* arq_name(const net::ArqPolicy& arq) {
  return arq.block_per_frame ? "stopwait" : "windowed";
}

inline std::vector<PlayerInput> instance(const Scenario& s) {
  Rng rng(s.instance_seed);
  const Graph g = gen::planted_triangles(48, 5, rng);
  return partition_random(g, s.k, rng);
}

/// One protocol run in the scenario's model. Returns the verdict bit.
inline bool run_body(const Scenario& s, const std::vector<PlayerInput>& players) {
  UnrestrictedOptions coord;
  coord.seed = 5;
  coord.known_average_degree = 4.0;
  switch (s.model) {
    case CommModel::kSimultaneous:
      return exact_find_triangle(players).triangle.has_value();
    case CommModel::kCoordinator:
      return find_triangle_unrestricted(players, coord).triangle.has_value();
    case CommModel::kBlackboard: {
      UnrestrictedOptions board = coord;
      board.blackboard = true;
      return find_triangle_unrestricted(players, board).triangle.has_value();
    }
    case CommModel::kOneWay:
      return one_way_via_streaming(players, 1 << 14, 7).triangle.has_value();
  }
  return false;
}

/// Counts charges per (player, phase) — the offset coordinate of the crash
/// grammar — by observing the same ChannelSink stream NetSession sees.
class ChargeCounter final : public ChannelSink {
 public:
  explicit ChargeCounter(std::size_t k) : counts_(k) {}

  void on_charge(std::size_t player, Direction, std::uint64_t, std::uint64_t phase) override {
    auto& per = counts_[player];
    if (per.size() <= phase) per.resize(static_cast<std::size_t>(phase) + 1, 0);
    ++per[static_cast<std::size_t>(phase)];
  }

  [[nodiscard]] const std::vector<std::vector<std::uint64_t>>& counts() const noexcept {
    return counts_;
  }

 private:
  std::vector<std::vector<std::uint64_t>> counts_;
};

inline net::NetConfig make_config(const Scenario& s) {
  net::NetConfig cfg;
  cfg.transport = net::TransportKind::kInProc;
  cfg.virtual_clock = true;  // deterministic witnesses
  cfg.arq = s.arq;
  cfg.num_shards = s.num_shards;
  return cfg;
}

struct Baseline {
  bool verdict = false;
  net::WireStats wire;
  /// counts[player][phase]: how many charges each (player, phase) cell has —
  /// the legal offsets at that cell are [0, count).
  std::vector<std::vector<std::uint64_t>> counts;
};

inline Baseline clean_run(const Scenario& s) {
  const auto players = instance(s);
  Baseline b;
  {
    // Probe pass (simulated mode): harvest the charge counts the crash
    // grammar's offsets index into.
    ChargeCounter counter(s.k);
    const ChannelSinkScope scope(&counter);
    b.verdict = run_body(s, players);
    b.counts = counter.counts();
  }
  auto [verdict, report] =
      net::run_executed(s.k, make_config(s), [&] { return run_body(s, players); });
  b.verdict = verdict;
  b.wire = report.wire;
  return b;
}

/// All distinct crash points of one (player, phase) cell worth sweeping:
/// the phase boundary (offset 0), mid-window, and the last charge.
inline std::vector<std::uint64_t> interesting_offsets(std::uint64_t count) {
  std::vector<std::uint64_t> offs;
  for (const std::uint64_t o : {std::uint64_t{0}, count / 2, count - 1}) {
    bool seen = false;
    for (const std::uint64_t prev : offs) seen |= prev == o;
    if (!seen && o < count) offs.push_back(o);
  }
  return offs;
}

/// Run the scenario with exactly one scheduled crash and compare the
/// recovered run against the clean baseline. Returns a divergence
/// description, or nullopt when the recovery is indistinguishable.
inline std::optional<std::string> run_with_crash(const Scenario& s, const net::CrashEvent& e,
                                                const Baseline& clean) {
  const auto players = instance(s);
  net::NetConfig cfg = make_config(s);
  cfg.faults.crash_schedule = {e};
  const auto diverged = [&](const std::string& what) -> std::optional<std::string> {
    std::ostringstream os;
    os << "model=" << to_string(s.model) << " arq=" << arq_name(s.arq) << " crash=(player "
       << e.player << ", phase " << e.phase << ", offset " << e.offset << "): " << what;
    return os.str();
  };
  try {
    // run_executed itself throws AccountingError / ConformanceError if the
    // recovered run cheats the cost model or the model rules.
    auto [verdict, report] =
        net::run_executed(s.k, cfg, [&] { return run_body(s, players); });
    const net::WireStats& w = report.wire;
    if (w.crashes != 1) return diverged("the scheduled crash never fired");
    if (w.resume_frames < 1) return diverged("no kResume control frame was delivered");
    if (verdict != clean.verdict) return diverged("protocol verdict flipped");
    if (w.up_bits != clean.wire.up_bits) return diverged("delivered upstream bits drifted");
    if (w.down_bits != clean.wire.down_bits) return diverged("delivered downstream bits drifted");
    if (w.up_msgs != clean.wire.up_msgs) return diverged("upstream message counts drifted");
    if (w.down_msgs != clean.wire.down_msgs) return diverged("downstream message counts drifted");
    if (w.phase_bits != clean.wire.phase_bits) return diverged("per-phase bits drifted");
  } catch (const std::exception& ex) {
    return diverged(std::string("threw: ") + ex.what());
  }
  return std::nullopt;
}

/// Greedy witness shrinking: prefer a smaller offset, then a lower phase,
/// then a lower player — re-validating that each candidate still diverges —
/// so the reported witness is minimal in lexicographic (player, phase,
/// offset) order among the still-failing neighbors.
struct Witness {
  net::CrashEvent point;
  std::string what;
};

inline Witness shrink(const Scenario& s, net::CrashEvent e, std::string what,
                      const Baseline& clean) {
  bool improved = true;
  while (improved) {
    improved = false;
    std::vector<net::CrashEvent> candidates;
    if (e.offset > 0) candidates.push_back({e.player, e.phase, 0});
    if (e.offset > 1) candidates.push_back({e.player, e.phase, e.offset / 2});
    for (std::uint64_t ph = 0; ph < e.phase; ++ph) {
      const auto& per = clean.counts[e.player];
      if (ph < per.size() && per[ph] > 0) {
        candidates.push_back({e.player, ph, std::min(e.offset, per[ph] - 1)});
        break;  // lowest charged phase only — one step at a time
      }
    }
    for (std::uint32_t pl = 0; pl < e.player; ++pl) {
      const auto& per = clean.counts[pl];
      if (e.phase < per.size() && per[e.phase] > 0) {
        candidates.push_back({pl, e.phase, std::min(e.offset, per[e.phase] - 1)});
        break;
      }
    }
    for (const net::CrashEvent& cand : candidates) {
      if (auto d = run_with_crash(s, cand, clean)) {
        e = cand;
        what = std::move(*d);
        improved = true;
        break;
      }
    }
  }
  return {e, std::move(what)};
}

/// Sweep every enumerated crash point of the scenario; the first divergence
/// is shrunk to a minimal witness. nullopt == full sweep survived.
inline std::optional<Witness> sweep(const Scenario& s, const Baseline& clean,
                                    std::size_t only_player = SIZE_MAX) {
  for (std::uint32_t player = 0; player < clean.counts.size(); ++player) {
    if (only_player != SIZE_MAX && player != only_player) continue;
    const auto& per = clean.counts[player];
    for (std::uint64_t phase = 0; phase < per.size(); ++phase) {
      for (const std::uint64_t off : interesting_offsets(per[phase])) {
        const net::CrashEvent e{player, phase, off};
        if (auto d = run_with_crash(s, e, clean)) {
          return shrink(s, e, std::move(*d), clean);
        }
      }
    }
  }
  return std::nullopt;
}

}  // namespace tft::chaos

#include "core/sim_high.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "comm/shared_randomness.h"

namespace tft {

namespace {
constexpr SharedTag kSetTag{0x51, 0x94, 0};  // the shared vertex sample S
}

double sim_high_sample_size(std::uint64_t n, const SimHighOptions& opts) {
  const double d = std::max(1.0, opts.average_degree);
  const double s = opts.c * std::cbrt(static_cast<double>(n) * static_cast<double>(n) /
                                      (opts.eps * d));
  return std::clamp(s, 1.0, static_cast<double>(n));
}

SimMessage sim_high_message(const PlayerInput& player, const SimHighOptions& opts) {
  const std::uint64_t n = player.n();
  const SharedRandomness sr(opts.seed);
  const double s = sim_high_sample_size(n, opts);
  const double p = s / static_cast<double>(n);

  SimMessage msg;
  msg.player_id = player.player_id;
  const SharedCoin in_sample = sr.coin(kSetTag, p);
  for (const Edge& e : player.local.edges()) {
    if (in_sample(e.u) && in_sample(e.v)) msg.edges.push_back(e);
  }

  std::uint64_t cap = opts.cap_edges_per_player;
  if (cap == SimHighOptions::kPaperCap) {
    // l = (|S|^2 / n^2) * (4/delta) * nd   (Algorithm 7 step 2)
    const double d = std::max(1.0, opts.average_degree);
    const double l = (s * s / (static_cast<double>(n) * static_cast<double>(n))) *
                     (4.0 / opts.delta) * static_cast<double>(n) * d;
    cap = static_cast<std::uint64_t>(std::ceil(l)) + 1;
  }
  apply_cap(msg, static_cast<std::size_t>(cap));
  return msg;
}

SimResult sim_high_find_triangle(std::span<const PlayerInput> players,
                                 const SimHighOptions& opts) {
  if (players.empty()) throw std::invalid_argument("sim_high_find_triangle: no players");
  std::vector<SimMessage> messages;
  messages.reserve(players.size());
  for (const auto& p : players) messages.push_back(sim_high_message(p, opts));
  return finalize_simultaneous(players.front().n(), std::move(messages));
}

}  // namespace tft

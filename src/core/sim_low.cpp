#include "core/sim_low.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "comm/shared_randomness.h"

namespace tft {

SimMessage sim_low_message_edges(std::span<const Edge> edges, std::size_t player_id,
                                 std::uint64_t n, const SimLowOptions& opts) {
  const SharedRandomness sr(opts.seed);
  const SharedTag s_tag{opts.s_tag, 0, 0};
  const SharedTag r_tag{opts.r_tag, 0, 0};

  const double d = std::max(1.0, opts.average_degree);
  const double p1 = std::min(opts.c / d, 1.0);
  const double p2 = std::min(opts.c / std::sqrt(static_cast<double>(n)), 1.0);

  const SharedCoin in_s = sr.coin(s_tag, p1);
  const SharedCoin in_r = sr.coin(r_tag, p2);

  SimMessage msg;
  msg.player_id = player_id;
  for (const Edge& e : edges) {
    const bool ru = in_r(e.u);
    const bool rv = in_r(e.v);
    // one endpoint in R, the other in R ∪ S.
    const bool keep = (ru && (rv || in_s(e.v))) || (rv && (ru || in_s(e.u)));
    if (keep) msg.edges.push_back(e);
  }

  std::uint64_t cap = opts.cap_edges_per_player;
  if (cap == SimLowOptions::kPaperCap) {
    // q = 2 c^2 (sqrt(n) + d) * 2/delta   (Algorithm 8 step 3)
    const double q =
        2.0 * opts.c * opts.c * (std::sqrt(static_cast<double>(n)) + d) * (2.0 / opts.delta);
    cap = static_cast<std::uint64_t>(std::ceil(q)) + 1;
  }
  apply_cap(msg, static_cast<std::size_t>(cap));
  return msg;
}

SimMessage sim_low_message(const PlayerInput& player, const SimLowOptions& opts) {
  return sim_low_message_edges(player.local.edges(), player.player_id, player.n(), opts);
}

SimResult sim_low_find_triangle(std::span<const PlayerInput> players, const SimLowOptions& opts) {
  if (players.empty()) throw std::invalid_argument("sim_low_find_triangle: no players");
  std::vector<SimMessage> messages;
  messages.reserve(players.size());
  for (const auto& p : players) messages.push_back(sim_low_message(p, opts));
  return finalize_simultaneous(players.front().n(), std::move(messages));
}

}  // namespace tft

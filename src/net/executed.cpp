#include "net/executed.h"

#include <algorithm>

#include "net/error.h"

namespace tft::net {

RelayReport relay_messages(std::size_t k, std::uint64_t universe_n,
                           std::span<const MpMessage> messages, const NetConfig& cfg) {
  if (cfg.transport == TransportKind::kSim) {
    throw NetError(NetErrorKind::kSetup, "relay_messages needs an executed transport");
  }
  if (k < 2) {
    throw NetError(NetErrorKind::kSetup, "message passing needs at least two players");
  }
  // Session 0, so relay lanes keep the v1 header. The servicer plays the
  // coordinator: it decodes the recipient id out of each relay frame and
  // forwards the payload onto the matching down link — a real execution of
  // the Section 2 simulation.
  NetSession session(k, cfg);
  MessagePassingSimulator sim(k, universe_n);
  for (const MpMessage& msg : messages) {
    sim.deliver(msg);  // validates indices; throws on self/out-of-range
    session.relay(msg.from, msg.to, msg.bits);
  }

  RelayReport report;
  report.mp_bits = sim.mp_bits();
  report.simulated_bits = sim.coordinator_bits();
  report.wire = session.finish();

  report.measured_bits = report.wire.payload_bits();
  report.measured_overhead =
      report.mp_bits > 0
          ? static_cast<double>(report.measured_bits) / static_cast<double>(report.mp_bits)
          : 0.0;
  std::uint64_t min_payload = UINT64_MAX;
  for (const MpMessage& msg : messages) min_payload = std::min(min_payload, msg.bits);
  report.bound = messages.empty()
                     ? 0.0
                     : MessagePassingSimulator::overhead_bound(min_payload, k);
  return report;
}

}  // namespace tft::net

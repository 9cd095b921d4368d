#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "graph/partition.h"
#include "lower_bounds/mu_distribution.h"
#include "service/spec.h"

/// \file checks.h
/// Output checks. Every timed reply is held against the simulated-mode
/// result of its spec (no sink, no wire) — the same function the traced
/// run records as core.protocol — and every triangle against the spec's
/// instance. Checks run outside the timed phase and count against ok_share.

namespace perfbench {

/// What a correct reply for one spec carries: the simulated-mode verdict.
struct Expected {
  tft::service::ReplyStatus status = tft::service::ReplyStatus::kTriangleFree;
  std::optional<tft::Triangle> triangle;
  std::uint64_t charged_bits = 0;
};

/// Run the spec's protocol in simulated mode on already-built players.
[[nodiscard]] Expected simulate(const tft::service::SessionSpec& spec,
                                std::span<const tft::PlayerInput> players);

/// True iff all three edges of `t` belong to some player's input.
[[nodiscard]] bool triangle_is_real(std::span<const tft::PlayerInput> players,
                                    const tft::Triangle& t);

/// Empty when `r` passes every check against `want`; otherwise the first
/// failed check, for the run log.
[[nodiscard]] std::string check_reply(const tft::service::ServiceReply& r, const Expected& want,
                                      std::span<const tft::PlayerInput> players);

/// Empty when a sweep op's stats equal the serial recomputation exactly.
[[nodiscard]] std::string check_sweep(const tft::FarnessStats& got,
                                      const tft::FarnessStats& want);

}  // namespace perfbench

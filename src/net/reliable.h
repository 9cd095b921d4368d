#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "net/arq.h"
#include "net/fault.h"
#include "net/frame.h"
#include "net/transport.h"

/// \file reliable.h
/// Stop-and-wait ARQ over one directed Link, with deterministic fault
/// injection on the sending side.
///
/// This is the *legacy* one-thread-per-link engine. The executed runtime
/// now runs on the pipelined net/servicer.h engine; these classes survive
/// as the independent byte-for-byte reference that
/// `ArqPolicy::stop_and_wait()` is verified against (see test_net_arq.cpp),
/// and as the backing of tests that exercise one link in isolation.
///
/// `ReliableSender::send` blocks until the frame is acknowledged, retrying
/// with bounded exponential backoff; retries exhausted is a typed
/// NetError(kTimeout) — the channel layer never hangs and never lies.
/// `LinkServicer::run` is the receiving actor: it reassembles frames from
/// arbitrary byte chunks, discards CRC failures (the sender retransmits),
/// deduplicates by sequence number (re-acknowledging, so a lost ack cannot
/// wedge the sender), verifies the deterministic payload, acknowledges, and
/// tallies exactly the *charged* payload bits of each frame accepted —
/// the numbers net::verify_accounting later holds against the Transcript.

namespace tft::net {

/// Sending half. Not thread-safe; one sender per link, one thread at a time
/// (the relay driver serializes access externally).
class ReliableSender {
 public:
  ReliableSender(Link& link, std::uint32_t link_id, const RetryPolicy& policy,
                 const FaultPlan& faults) noexcept
      : link_(link), injector_(faults, link_id), policy_(policy) {}

  /// Assigns the next sequence number, transmits, and blocks for the ack.
  /// Throws NetError(kTimeout) after max_retries, NetError(kClosed) if the
  /// link dies.
  void send(Frame f);

  [[nodiscard]] std::uint32_t next_seq() const noexcept { return next_seq_; }
  [[nodiscard]] const SenderStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const FaultInjector& injector() const noexcept { return injector_; }

 private:
  [[nodiscard]] bool await_ack(std::uint32_t seq, Clock::time_point deadline);

  Link& link_;
  FaultInjector injector_;
  RetryPolicy policy_;
  std::uint32_t next_seq_ = 0;
  SenderStats stats_;
  FrameParser ack_parser_;
  std::vector<std::uint8_t> ack_buf_ = std::vector<std::uint8_t>(512);
};

/// Receiving actor for one link: call run() on a dedicated thread; it
/// returns when the link is closed and drained. Never throws — a failure
/// (e.g. a deliver hook that cannot forward) is recorded in error() and the
/// link is closed, which surfaces at the blocked sender as a typed error.
class LinkServicer {
 public:
  /// `src`/`dst` are the endpoint ids frames on this link must carry.
  /// `deliver` (optional) sees each unique accepted frame, post-ack.
  LinkServicer(Link& link, std::uint32_t src, std::uint32_t dst,
               std::function<void(const Frame&)> deliver = nullptr) noexcept
      : link_(link), src_(src), dst_(dst), deliver_(std::move(deliver)) {}

  void run() noexcept;

  [[nodiscard]] const ReceiverStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::optional<std::string>& error() const noexcept { return error_; }

 private:
  void accept(const Frame& f);
  void send_ack(std::uint32_t seq);

  Link& link_;
  std::uint32_t src_;
  std::uint32_t dst_;
  std::function<void(const Frame&)> deliver_;
  std::uint32_t next_expected_ = 0;
  ReceiverStats stats_;
  std::optional<std::string> error_;
};

}  // namespace tft::net

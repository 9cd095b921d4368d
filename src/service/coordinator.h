#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/runtime.h"
#include "net/servicer.h"
#include "service/spec.h"

/// \file coordinator.h
/// The multi-session service runtime: a ServiceCoordinator accepts session
/// requests (SessionSpec), schedules them onto a bounded worker pool, and
/// multiplexes every live session over ONE shared transport and ONE shared
/// servicer thread (net/servicer.h session table). Each session runs the
/// full executed-mode contract individually — wire/transcript accounting
/// verified exactly, model conformance refereed, failures typed — exactly
/// as a solo NetSession run would, and its frame bytes are identical to
/// that solo run (session-folded filler and fault keying).
///
/// Admission control: at most `max_live_sessions` sessions execute at once
/// (the worker pool), at most `max_pending` sit admitted in total; past
/// that, submit() throws NetError(kServiceBusy) — a typed, retryable
/// rejection, never a queue that grows without bound. Scheduling is FIFO or
/// fair-share (round-robin across tenants, FIFO within one). drain() stops
/// admission and waits for every admitted session to finish — the graceful
/// shutdown the daemon (service/daemon.h) calls on SIGTERM.

namespace tft::service {

enum class SchedulerKind : std::uint8_t {
  kFifo,       ///< strict submission order
  kFairShare,  ///< round-robin across tenants, FIFO within a tenant
};

[[nodiscard]] constexpr const char* to_string(SchedulerKind s) noexcept {
  switch (s) {
    case SchedulerKind::kFifo: return "fifo";
    case SchedulerKind::kFairShare: return "fair-share";
  }
  assert(!"to_string(SchedulerKind): value outside the enum");
  return "?";
}

struct ServiceConfig {
  /// Transport + ARQ + clock for the shared servicer. kSim is rejected —
  /// the service exists to multiplex executed sessions.
  net::NetConfig net;
  std::size_t max_live_sessions = 8;  ///< worker pool size
  std::size_t max_pending = 64;       ///< admitted (queued + running) cap
  SchedulerKind scheduler = SchedulerKind::kFifo;
};

/// One fair-share scheduling decision.
struct FairSharePick {
  std::size_t queue_index = 0;  ///< which queued session runs next
  std::size_t cursor = 0;       ///< the rotation cursor after this pick
};

/// Fair-share's round-robin as a pure function. `queued` lists the tenant
/// of every queued session, oldest first; `rotation` lists every tenant in
/// first-seen order. Scan the rotation from `cursor` (modulo its size) for a
/// tenant with queued work, take its oldest session, and return the cursor
/// just past that tenant, unreduced: a tenant that joins the rotation
/// before the next pick lands at that position, so it goes next instead of
/// waiting behind one more session of the tenant just served. {0, cursor}
/// when no rotated tenant has queued work.
[[nodiscard]] FairSharePick fair_share_pick(std::span<const std::string_view> queued,
                                            std::span<const std::string> rotation,
                                            std::size_t cursor);

/// One finished session, as the coordinator saw it.
struct SessionOutcome {
  std::uint32_t session_id = 0;  ///< wire session id (>= 1, submit order)
  ReplyStatus status = ReplyStatus::kTriangleFree;
  std::optional<Triangle> triangle;
  std::uint64_t charged_bits = 0;  ///< transcript total across the run
  net::WireStats wire;
  bool accounting_exact = false;
  bool conformance_ok = false;
  std::string error;  ///< non-empty iff status == kError

  [[nodiscard]] ServiceReply reply() const;
};

class ServiceCoordinator {
 public:
  explicit ServiceCoordinator(const ServiceConfig& cfg);
  ~ServiceCoordinator();  ///< drain() + stop

  ServiceCoordinator(const ServiceCoordinator&) = delete;
  ServiceCoordinator& operator=(const ServiceCoordinator&) = delete;

  /// Admit one session. The wire session id is allocated HERE, monotonically
  /// from 1 in submission order, so a fixed submission sequence names the
  /// same ids regardless of worker scheduling — the reproducibility anchor
  /// for fault keying. Throws NetError(kServiceBusy) when the admitted
  /// count is at max_pending, or NetError(kClosed) after drain().
  std::future<SessionOutcome> submit(const SessionSpec& spec);

  /// Stop admitting and wait until every admitted session has finished.
  /// Idempotent; called by the destructor.
  void drain();

  /// Test seam: `hook(spec)` runs on the worker just before each session
  /// executes, while the session holds its admission slot. Tests use it to
  /// hold a session open or to record the order of service.
  void set_before_execute(std::function<void(const SessionSpec&)> hook);

  [[nodiscard]] std::size_t live_sessions() const;     ///< currently executing
  [[nodiscard]] std::size_t pending_sessions() const;  ///< admitted, not yet done
  [[nodiscard]] std::uint64_t sessions_completed() const;
  [[nodiscard]] std::uint64_t sessions_rejected() const;

 private:
  struct Pending {
    SessionSpec spec;
    std::uint32_t wire_id = 0;
    std::promise<SessionOutcome> promise;
  };

  void worker_loop();
  /// Pop the next admitted session per the scheduler, or nullopt to exit.
  [[nodiscard]] std::optional<Pending> next_locked(std::unique_lock<std::mutex>& lock);
  [[nodiscard]] SessionOutcome execute(const SessionSpec& spec, std::uint32_t wire_id);

  ServiceConfig cfg_;
  std::unique_ptr<net::Transport> transport_;
  std::unique_ptr<net::SharedServicer> servicer_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;  ///< workers: queue non-empty or stopping
  std::condition_variable idle_cv_;   ///< drain(): admitted count fell
  std::deque<Pending> queue_;
  std::vector<std::string> tenant_rotation_;  ///< fair-share cursor state
  std::size_t rotation_next_ = 0;
  std::function<void(const SessionSpec&)> before_execute_;
  std::uint32_t next_wire_id_ = 1;  ///< 0 is reserved for solo NetSession
  std::size_t running_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t rejected_ = 0;
  bool draining_ = false;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace tft::service

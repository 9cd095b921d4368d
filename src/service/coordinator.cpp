#include "service/coordinator.h"

#include <algorithm>
#include <utility>

#include "comm/channel.h"
#include "comm/conformance.h"
#include "net/error.h"

namespace tft::service {

using net::NetError;
using net::NetErrorKind;

FairSharePick fair_share_pick(std::span<const std::string_view> queued,
                              std::span<const std::string> rotation, std::size_t cursor) {
  for (std::size_t off = 0; off < rotation.size(); ++off) {
    const std::size_t ti = (cursor + off) % rotation.size();
    // FIFO within a tenant falls out of taking its first match.
    const auto it = std::find(queued.begin(), queued.end(), rotation[ti]);
    if (it != queued.end()) {
      return {static_cast<std::size_t>(it - queued.begin()), (ti + 1) % rotation.size()};
    }
  }
  return {0, cursor};
}

ServiceReply SessionOutcome::reply() const {
  ServiceReply r;
  r.status = status;
  r.session_id = session_id;
  r.triangle = triangle;
  r.charged_bits = charged_bits;
  r.payload_bits = wire.payload_bits();
  r.messages = wire.messages();
  r.frames = wire.frames_delivered;
  r.wire_bytes = wire.wire_bytes;
  r.accounting_exact = accounting_exact;
  r.conformance_ok = conformance_ok;
  r.error = error;
  return r;
}

ServiceCoordinator::ServiceCoordinator(const ServiceConfig& cfg) : cfg_(cfg) {
  if (cfg_.net.transport == net::TransportKind::kSim) {
    throw NetError(NetErrorKind::kSetup,
                   "the service multiplexes executed sessions; kSim has no wire");
  }
  if (cfg_.net.virtual_clock && cfg_.net.transport != net::TransportKind::kInProc) {
    throw NetError(NetErrorKind::kSetup,
                   "virtual clock needs the in-proc transport (kernel socket buffers "
                   "are invisible to the logical clock)");
  }
  if (cfg_.max_live_sessions == 0) {
    throw NetError(NetErrorKind::kSetup, "the service needs at least one worker");
  }
  if (cfg_.max_pending < cfg_.max_live_sessions) {
    throw NetError(NetErrorKind::kSetup,
                   "max_pending below max_live_sessions would idle admitted workers");
  }
  transport_ = net::make_transport(cfg_.net);

  net::SharedServicer::Options opts;
  opts.arq = cfg_.net.arq;
  opts.retry = cfg_.net.retry;
  opts.faults = cfg_.net.faults;
  opts.virtual_clock = cfg_.net.virtual_clock;
  opts.timed_recheck = cfg_.net.transport == net::TransportKind::kSocket;
  opts.num_shards = cfg_.net.num_shards;
  servicer_ = std::make_unique<net::SharedServicer>(opts);
  servicer_->start();

  workers_.reserve(cfg_.max_live_sessions);
  for (std::size_t i = 0; i < cfg_.max_live_sessions; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ServiceCoordinator::~ServiceCoordinator() {
  drain();
  {
    const std::lock_guard lock(mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  for (auto& w : workers_) w.join();
  servicer_->finish();
}

std::future<SessionOutcome> ServiceCoordinator::submit(const SessionSpec& spec) {
  const std::lock_guard lock(mu_);
  if (draining_ || stop_) {
    throw NetError(NetErrorKind::kClosed, "submit after the service began draining");
  }
  if (queue_.size() + running_ >= cfg_.max_pending) {
    ++rejected_;
    throw NetError(NetErrorKind::kServiceBusy,
                   "service at capacity: " + std::to_string(running_) + " running, " +
                       std::to_string(queue_.size()) + " queued (cap " +
                       std::to_string(cfg_.max_pending) + "); retry later");
  }
  Pending p;
  p.spec = spec;
  p.wire_id = next_wire_id_++;
  auto future = p.promise.get_future();
  if (cfg_.scheduler == SchedulerKind::kFairShare) {
    bool known = false;
    for (const auto& t : tenant_rotation_) known = known || t == spec.tenant;
    if (!known) tenant_rotation_.push_back(spec.tenant);
  }
  queue_.push_back(std::move(p));
  queue_cv_.notify_one();
  return future;
}

std::optional<ServiceCoordinator::Pending> ServiceCoordinator::next_locked(
    std::unique_lock<std::mutex>& lock) {
  queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
  if (queue_.empty()) return std::nullopt;  // stop_ with nothing left
  std::size_t pick = 0;
  if (cfg_.scheduler == SchedulerKind::kFairShare) {
    std::vector<std::string_view> queued;
    queued.reserve(queue_.size());
    for (const Pending& q : queue_) queued.emplace_back(q.spec.tenant);
    const FairSharePick next = fair_share_pick(queued, tenant_rotation_, rotation_next_);
    pick = next.queue_index;
    rotation_next_ = next.cursor;
  }
  Pending p = std::move(queue_[pick]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pick));
  return p;
}

void ServiceCoordinator::worker_loop() {
  std::unique_lock lock(mu_);
  while (true) {
    auto pending = next_locked(lock);
    if (!pending) return;
    ++running_;
    const auto before_execute = before_execute_;
    lock.unlock();
    if (before_execute) before_execute(pending->spec);
    SessionOutcome out = execute(pending->spec, pending->wire_id);
    // Release the admission slot BEFORE fulfilling the promise: a client
    // that resubmits the instant its future is ready must find room, or a
    // full-depth pipeline would bounce off kServiceBusy spuriously. Both
    // happen under one critical section so drain() — which waits on
    // running_ == 0 under the same mutex — can never observe the slot
    // released while the future is still unresolved.
    lock.lock();
    --running_;
    ++completed_;
    pending->promise.set_value(std::move(out));
    idle_cv_.notify_all();
  }
}

SessionOutcome ServiceCoordinator::execute(const SessionSpec& spec, std::uint32_t wire_id) {
  SessionOutcome out;
  out.session_id = wire_id;
  try {
    // Regenerate the instance BEFORE opening the session: generation is pure
    // compute, and an open-but-idle session would stall the virtual clock's
    // quiescence detection for every other live session.
    const std::vector<PlayerInput> players = build_players(spec);

    net::SharedServicer::SessionOptions so;
    so.num_players = spec.k;
    so.session_id = wire_id;
    so.seed = spec.seed;
    so.crash_tolerance = cfg_.net.crash_tolerance;
    so.shard_affinity = spec.shard_affinity;
    const std::size_t sidx = servicer_->open_session(*transport_, so);

    // Capture and sink are both thread-local, so concurrent workers each
    // observe exactly their own session's protocol runs.
    TranscriptCapture capture;
    try {
      net::SessionSink sink(servicer_.get(), sidx);
      const ChannelSinkScope scope(&sink);
      const TestReport report = test_triangle_freeness(players, tester_options(spec));
      out.triangle = report.triangle;
      out.charged_bits = report.bits;
      out.status = report.triangle ? ReplyStatus::kTriangle : ReplyStatus::kTriangleFree;
    } catch (...) {
      // close_session is idempotent and never throws the session's error:
      // the links and the driver slot must be released on every path.
      out.wire = servicer_->close_session(sidx);
      throw;
    }
    out.wire = servicer_->close_session(sidx);
    servicer_->rethrow_session_error(sidx);

    // The executed-mode contract, per session: delivered bytes equal the
    // charged transcript exactly, and every run obeys the model referee.
    net::ChargedTotals charged(spec.k);
    for (const auto& run : capture.runs()) charged.add(run.transcript);
    net::verify_accounting(charged, out.wire);
    out.accounting_exact = true;
    for (const auto& run : capture.runs()) {
      if (auto r = check_conformance(run.model, run.transcript); !r.ok()) {
        throw ConformanceError(std::move(r));
      }
    }
    out.conformance_ok = true;
  } catch (const std::exception& e) {
    out.status = ReplyStatus::kError;
    out.error = e.what();
  }
  return out;
}

void ServiceCoordinator::drain() {
  std::unique_lock lock(mu_);
  draining_ = true;
  idle_cv_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
}

void ServiceCoordinator::set_before_execute(std::function<void(const SessionSpec&)> hook) {
  const std::lock_guard lock(mu_);
  before_execute_ = std::move(hook);
}

std::size_t ServiceCoordinator::live_sessions() const {
  const std::lock_guard lock(mu_);
  return running_;
}

std::size_t ServiceCoordinator::pending_sessions() const {
  const std::lock_guard lock(mu_);
  return queue_.size() + running_;
}

std::uint64_t ServiceCoordinator::sessions_completed() const {
  const std::lock_guard lock(mu_);
  return completed_;
}

std::uint64_t ServiceCoordinator::sessions_rejected() const {
  const std::lock_guard lock(mu_);
  return rejected_;
}

}  // namespace tft::service

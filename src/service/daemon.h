#pragma once

#include <cstdint>
#include <memory>
#include <thread>

#include "service/coordinator.h"
#include "service/spec.h"

/// \file daemon.h
/// The service's network face: a ServiceDaemon listens on a loopback TCP
/// port, reads one encoded SessionSpec per connection, hands it to its
/// ServiceCoordinator, and writes back one encoded ServiceReply. The blob
/// framing reuses the frame wire discipline — `[u32 LE len] [bytes]
/// [u32 LE crc32(bytes)]` — so a corrupted request dies to the same CRC
/// check a corrupted frame would, and a kServiceBusy rejection travels as
/// a well-formed kBusy reply, never a dropped connection.
///
/// request() is the matching client half: tft_client and the CI soak are
/// both this one call in a loop.

namespace tft::service {

class ServiceDaemon {
 public:
  /// Binds 127.0.0.1:`port` (0 = kernel-assigned, read back via port())
  /// and starts the accept loop. The coordinator is constructed from `cfg`
  /// and owned by the daemon.
  ServiceDaemon(const ServiceConfig& cfg, std::uint16_t port = 0);
  ~ServiceDaemon();  ///< stop accepting, drain the coordinator

  ServiceDaemon(const ServiceDaemon&) = delete;
  ServiceDaemon& operator=(const ServiceDaemon&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] ServiceCoordinator& coordinator() noexcept { return *coordinator_; }

  /// Stop accepting connections and drain in-flight sessions. Handlers
  /// still waiting for their client's spec stop at once with a typed
  /// kClosed reply; those that already have it run their session and
  /// reply. Idempotent.
  void shutdown();

 private:
  void accept_loop();
  void serve_connection(int fd);

  std::unique_ptr<ServiceCoordinator> coordinator_;
  int listen_fd_ = -1;
  /// Every handler still reading its spec polls stop_pipe_[0] next to its
  /// connection; shutdown() closes stop_pipe_[1], which makes [0] report
  /// hang-up to all of them at once.
  int stop_pipe_[2] = {-1, -1};
  std::uint16_t port_ = 0;
  std::thread acceptor_;
  bool stopped_ = false;
};

/// Client half: connect to 127.0.0.1:`port`, send `spec`, wait for the
/// reply (the call blocks for the whole session). Throws net::NetError on
/// connection or codec failure; a busy service is NOT an error — it comes
/// back as a reply with status kBusy.
[[nodiscard]] ServiceReply request(std::uint16_t port, const SessionSpec& spec);

/// request() with bounded exponential backoff on kBusy replies: up to
/// `retries` re-requests, sleeping backoff_ms, 2*backoff_ms, 4*... (capped
/// at 32x) between attempts. Returns the first non-kBusy reply, or the last
/// kBusy reply once retries are exhausted — the caller still sees status
/// kBusy and can exit accordingly. Only kBusy is retried: errors, including
/// a draining daemon's kError reply, surface immediately.
[[nodiscard]] ServiceReply request_with_retry(std::uint16_t port, const SessionSpec& spec,
                                              std::size_t retries, std::uint64_t backoff_ms);

}  // namespace tft::service

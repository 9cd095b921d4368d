#include "service/daemon.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <list>
#include <thread>
#include <vector>

#include "net/error.h"
#include "net/frame.h"

namespace tft::service {

using net::NetError;
using net::NetErrorKind;

namespace {

[[noreturn]] void throw_errno(NetErrorKind kind, const char* what) {
  throw NetError(kind, std::string(what) + ": " + std::strerror(errno));
}

void write_all(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    // MSG_NOSIGNAL: a peer that hung up is a kClosed error here, not a
    // SIGPIPE that kills the process.
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno(NetErrorKind::kClosed, "service write");
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

/// Block until `fd` is readable, or throw kClosed once `stop_fd` is (the
/// daemon's stop pipe; the stop wins a tie, so a stopping daemon reads no
/// further requests).
void await_readable(int fd, int stop_fd) {
  pollfd fds[2] = {{fd, POLLIN, 0}, {stop_fd, POLLIN, 0}};
  while (::poll(fds, 2, -1) < 0) {
    if (errno != EINTR) throw_errno(NetErrorKind::kClosed, "service poll");
  }
  if (fds[1].revents != 0) throw NetError(NetErrorKind::kClosed, "the daemon is shutting down");
}

/// `stop_fd` < 0 reads without a stop signal (the client side).
void read_exact(int fd, std::uint8_t* data, std::size_t len, int stop_fd) {
  while (len > 0) {
    if (stop_fd >= 0) await_readable(fd, stop_fd);
    const ssize_t n = ::read(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno(NetErrorKind::kClosed, "service read");
    }
    if (n == 0) {
      throw NetError(NetErrorKind::kClosed, "peer closed mid-blob");
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

/// Blob framing, the frame wire discipline applied to one byte string:
/// [u32 LE len] [bytes] [u32 LE crc32(bytes)].
void write_blob(int fd, const std::vector<std::uint8_t>& bytes) {
  std::vector<std::uint8_t> out;
  out.reserve(bytes.size() + 8);
  const auto len = static_cast<std::uint32_t>(bytes.size());
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  out.insert(out.end(), bytes.begin(), bytes.end());
  const std::uint32_t crc = net::crc32(bytes);
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  write_all(fd, out.data(), out.size());
}

std::vector<std::uint8_t> read_blob(int fd, int stop_fd = -1) {
  std::uint8_t prefix[4];
  read_exact(fd, prefix, 4, stop_fd);
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= static_cast<std::uint32_t>(prefix[i]) << (8 * i);
  if (len > net::kMaxBodyBytes) {
    throw NetError(NetErrorKind::kCorrupt, "service blob length exceeds the frame body cap");
  }
  std::vector<std::uint8_t> bytes(len);
  if (len > 0) read_exact(fd, bytes.data(), len, stop_fd);
  std::uint8_t trailer[4];
  read_exact(fd, trailer, 4, stop_fd);
  std::uint32_t crc = 0;
  for (int i = 0; i < 4; ++i) crc |= static_cast<std::uint32_t>(trailer[i]) << (8 * i);
  if (crc != net::crc32(bytes)) {
    throw NetError(NetErrorKind::kCorrupt, "service blob failed its CRC");
  }
  return bytes;
}

}  // namespace

ServiceDaemon::ServiceDaemon(const ServiceConfig& cfg, std::uint16_t port)
    : coordinator_(std::make_unique<ServiceCoordinator>(cfg)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno(NetErrorKind::kSetup, "socket");
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    throw_errno(NetErrorKind::kSetup, "bind 127.0.0.1");
  }
  if (::listen(listen_fd_, 64) < 0) throw_errno(NetErrorKind::kSetup, "listen");

  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len) < 0) {
    throw_errno(NetErrorKind::kSetup, "getsockname");
  }
  port_ = ntohs(addr.sin_port);
  if (::pipe(stop_pipe_) < 0) {
    (void)::close(listen_fd_);
    throw_errno(NetErrorKind::kSetup, "pipe");
  }

  acceptor_ = std::thread([this] { accept_loop(); });
}

ServiceDaemon::~ServiceDaemon() {
  shutdown();
  (void)::close(stop_pipe_[0]);
}

void ServiceDaemon::shutdown() {
  if (stopped_) return;
  stopped_ = true;
  // Waking the handlers that still wait for their spec: a client that never
  // finishes its request must not hold the handler join below forever.
  (void)::close(stop_pipe_[1]);
  stop_pipe_[1] = -1;
  // Waking the acceptor: shutdown() fails accept(2) with EINVAL on Linux,
  // and the loop's stop check does the rest.
  (void)::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  (void)::close(listen_fd_);
  listen_fd_ = -1;
  coordinator_->drain();
}

void ServiceDaemon::accept_loop() {
  // One thread per connection: a session can run for seconds, and the soak
  // test's whole point is concurrent clients making concurrent sessions.
  // After each spawn the loop joins the handlers that have finished, so a
  // long-running daemon holds threads (and their stacks) only for requests
  // in flight; a handler still running is never waited on here.
  struct Handler {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::list<Handler> handlers;  // list: a running handler's `done` never moves
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // shutdown() closed the listener out from under us
    }
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Handler& h = handlers.emplace_back();
    h.thread = std::thread([this, fd, &done = h.done] {
      serve_connection(fd);
      (void)::close(fd);
      done.store(true, std::memory_order_release);
    });
    for (auto it = handlers.begin(); it != handlers.end();) {
      if (it->done.load(std::memory_order_acquire)) {
        it->thread.join();
        it = handlers.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& h : handlers) h.thread.join();
}

void ServiceDaemon::serve_connection(int fd) {
  ServiceReply reply;
  try {
    const std::vector<std::uint8_t> blob = read_blob(fd, stop_pipe_[0]);
    const SessionSpec spec = decode_spec(blob);
    std::future<SessionOutcome> future;
    try {
      future = coordinator_->submit(spec);
    } catch (const NetError& e) {
      // Admission refusal is an answer, not a dropped connection. Two typed
      // refusals, distinguished so clients back off correctly: kServiceBusy
      // (capacity — retry later) travels as kBusy, while kClosed (the
      // service is draining for shutdown) travels as kError — retrying a
      // draining daemon is pointless.
      reply.status =
          e.kind() == NetErrorKind::kServiceBusy ? ReplyStatus::kBusy : ReplyStatus::kError;
      reply.error = e.what();
      write_blob(fd, encode_reply(reply));
      return;
    }
    reply = future.get().reply();
    write_blob(fd, encode_reply(reply));
  } catch (const std::exception& e) {
    // Best effort: if the failure left the stream writable, say what broke.
    reply = ServiceReply{};
    reply.status = ReplyStatus::kError;
    reply.error = e.what();
    try {
      write_blob(fd, encode_reply(reply));
    } catch (...) {
    }
  }
}

ServiceReply request(std::uint16_t port, const SessionSpec& spec) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno(NetErrorKind::kSetup, "socket");
  struct Closer {
    int fd;
    ~Closer() { (void)::close(fd); }
  } closer{fd};

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    throw_errno(NetErrorKind::kSetup, "connect 127.0.0.1");
  }
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  write_blob(fd, encode_spec(spec));
  return decode_reply(read_blob(fd));
}

ServiceReply request_with_retry(std::uint16_t port, const SessionSpec& spec,
                                std::size_t retries, std::uint64_t backoff_ms) {
  ServiceReply reply = request(port, spec);
  std::uint64_t delay = backoff_ms;
  for (std::size_t attempt = 0; attempt < retries && reply.status == ReplyStatus::kBusy;
       ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    // Bounded exponential: doubling capped at 32x the base, so a long retry
    // budget degrades to steady polling instead of hour-long sleeps.
    delay = std::min<std::uint64_t>(delay * 2, backoff_ms * 32);
    reply = request(port, spec);
  }
  return reply;
}

}  // namespace tft::service

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <memory>

#include "net/error.h"
#include "net/transport.h"

/// LoopbackSocketTransport: every link is a real TCP connection on
/// 127.0.0.1 — frames cross the kernel's loopback stack, not just a mutex.
/// Data flows client->server and acknowledgements server->client over the
/// same connection; both file descriptors are non-blocking, so every Pipe
/// call returns at once, like ByteRing's.

namespace tft::net {

namespace {

[[noreturn]] void throw_errno(NetErrorKind kind, const char* what) {
  throw NetError(kind, std::string(what) + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno(NetErrorKind::kSetup, "fcntl(O_NONBLOCK)");
  }
}

void set_nodelay(int fd) {
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Shrink both kernel buffers (clamped upward to the kernel floor; even the
/// floor forces a multi-KB frame through several short writes/reads).
void set_buffer_sizes(int fd, int bytes) {
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
}

/// One TCP connection shared by a link's data and ack pipes.
struct SocketDuplex {
  int client_fd = -1;  // connect() side: writes data, reads acks
  int server_fd = -1;  // accept() side: reads data, writes acks
  std::atomic<bool> closed{false};

  void shutdown_all() noexcept {
    if (!closed.exchange(true)) {
      (void)::shutdown(client_fd, SHUT_RDWR);
      (void)::shutdown(server_fd, SHUT_RDWR);
    }
  }

  ~SocketDuplex() {
    shutdown_all();
    if (client_fd >= 0) (void)::close(client_fd);
    if (server_fd >= 0) (void)::close(server_fd);
  }
};

class SocketPipe final : public Pipe {
 public:
  SocketPipe(std::shared_ptr<SocketDuplex> duplex, int write_fd, int read_fd)
      : duplex_(std::move(duplex)), write_fd_(write_fd), read_fd_(read_fd) {}

  std::size_t write_some(std::span<const std::uint8_t> bytes) override {
    for (;;) {
      if (duplex_->closed.load(std::memory_order_relaxed)) {
        throw NetError(NetErrorKind::kClosed, "socket write: closed");
      }
      const ssize_t n = ::send(write_fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (n >= 0) return static_cast<std::size_t>(n);
      if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
      if (errno == EINTR) continue;
      throw NetError(NetErrorKind::kClosed, std::string("socket write: ") + std::strerror(errno));
    }
  }

  int read_some(std::span<std::uint8_t> buf) override {
    if (buf.empty()) return 0;
    for (;;) {
      const ssize_t n = ::recv(read_fd_, buf.data(), buf.size(), 0);
      if (n > 0) return static_cast<int>(n);
      if (n == 0) return -1;  // orderly shutdown, stream drained
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return duplex_->closed.load(std::memory_order_relaxed) ? -1 : 0;
      }
      if (errno == EINTR) continue;
      return -1;  // reset by peer etc.: treat as closed
    }
  }

  void close() override { duplex_->shutdown_all(); }

 private:
  std::shared_ptr<SocketDuplex> duplex_;
  int write_fd_;
  int read_fd_;
};

int make_loopback_listener(std::uint16_t& port_out) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    (void)::close(fd);
    return -1;
  }
  port_out = ntohs(addr.sin_port);
  return fd;
}

}  // namespace

LoopbackSocketTransport::LoopbackSocketTransport(int socket_buffer_bytes)
    : socket_buffer_bytes_(socket_buffer_bytes) {
  listen_fd_ = make_loopback_listener(port_);
  if (listen_fd_ < 0) {
    throw_errno(NetErrorKind::kSetup, "loopback listener");
  }
  if (socket_buffer_bytes_ > 0) {
    // Buffer sizes must be in place *before* the handshake: the TCP window
    // scale is negotiated at SYN time from the receive buffer, and shrinking
    // SO_RCVBUF on an established connection can wedge the stream once the
    // originally-advertised window's worth of data is in flight. Accepted
    // sockets inherit these from the listener; the client side is set in
    // make_link before connect().
    set_buffer_sizes(listen_fd_, socket_buffer_bytes_);
  }
}

LoopbackSocketTransport::~LoopbackSocketTransport() {
  if (listen_fd_ >= 0) (void)::close(listen_fd_);
}

bool LoopbackSocketTransport::available() noexcept {
  std::uint16_t port = 0;
  const int fd = make_loopback_listener(port);
  if (fd < 0) return false;
  (void)::close(fd);
  return true;
}

Link LoopbackSocketTransport::make_link() {
  const int client = ::socket(AF_INET, SOCK_STREAM, 0);
  if (client < 0) throw_errno(NetErrorKind::kSetup, "socket");
  if (socket_buffer_bytes_ > 0) {
    set_buffer_sizes(client, socket_buffer_bytes_);  // before connect(): see ctor
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  if (::connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    (void)::close(client);
    throw_errno(NetErrorKind::kSetup, "connect(127.0.0.1)");
  }

  // The handshake already completed (loopback), so accept is immediate;
  // poll defensively so a broken stack cannot hang link construction.
  pollfd p{listen_fd_, POLLIN, 0};
  if (::poll(&p, 1, 5'000) <= 0) {
    (void)::close(client);
    throw NetError(NetErrorKind::kSetup, "accept: connection did not arrive");
  }
  const int server = ::accept(listen_fd_, nullptr, nullptr);
  if (server < 0) {
    (void)::close(client);
    throw_errno(NetErrorKind::kSetup, "accept");
  }

  auto duplex = std::make_shared<SocketDuplex>();
  duplex->client_fd = client;
  duplex->server_fd = server;
  set_nonblocking(client);
  set_nonblocking(server);
  set_nodelay(client);
  set_nodelay(server);

  Link link;
  link.data = std::make_unique<SocketPipe>(duplex, client, server);
  link.ack = std::make_unique<SocketPipe>(duplex, server, client);
  return link;
}

}  // namespace tft::net

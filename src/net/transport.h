#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

/// \file transport.h
/// Byte-stream transports for the executed runtime.
///
/// A `Pipe` is one direction of a link: an ordered, bounded byte stream
/// whose calls never block. A `Link` bundles the data direction with the
/// reverse acknowledgement direction. `Transport` mints links; the two
/// implementations — `InProcTransport` (lock-protected rings) and
/// `LoopbackSocketTransport` (TCP on 127.0.0.1) — sit behind the same API,
/// so the servicer, the fault injector and the protocols above never know
/// which wire they are on. The servicer's poller moves every link of its
/// shard on one thread, so no pipe call may make it wait.

namespace tft::net {

using Clock = std::chrono::steady_clock;

/// One direction of a link. Single producer, single consumer; no call
/// blocks.
class Pipe {
 public:
  virtual ~Pipe() = default;

  /// Write as many of `bytes` as fit right now; returns the count written
  /// (0 when the buffer is full). Throws NetError(kClosed) on a closed
  /// pipe.
  virtual std::size_t write_some(std::span<const std::uint8_t> bytes) = 0;

  /// Read up to `buf.size()` bytes. Returns the count read (> 0), 0 when
  /// nothing is buffered, or -1 once the pipe is closed *and* drained
  /// (buffered bytes are always delivered first).
  virtual int read_some(std::span<std::uint8_t> buf) = 0;

  /// Close both ends: later writes throw kClosed, reads drain what is
  /// buffered and then see -1. Idempotent, thread-safe.
  virtual void close() = 0;
};

/// A directed link: framed data one way, acknowledgements the other.
struct Link {
  std::unique_ptr<Pipe> data;  ///< sender -> receiver frame bytes
  std::unique_ptr<Pipe> ack;   ///< receiver -> sender acknowledgement bytes

  void close() {
    if (data) data->close();
    if (ack) ack->close();
  }
};

class Transport {
 public:
  virtual ~Transport() = default;
  [[nodiscard]] virtual Link make_link() = 0;
  [[nodiscard]] virtual const char* name() const noexcept = 0;
};

/// Bounded SPSC byte ring under one mutex. The in-process wire — bytes are
/// memcpy'd through a fixed circular buffer, so a frame really is
/// serialized, chunked and reassembled even when both actors live in one
/// process.
class ByteRing final : public Pipe {
 public:
  explicit ByteRing(std::size_t capacity);

  std::size_t write_some(std::span<const std::uint8_t> bytes) override;
  int read_some(std::span<std::uint8_t> buf) override;
  void close() override;

 private:
  std::mutex mu_;
  std::vector<std::uint8_t> ring_;
  std::size_t head_ = 0;  // next byte to read
  std::size_t size_ = 0;  // bytes buffered
  bool closed_ = false;
};

class InProcTransport final : public Transport {
 public:
  explicit InProcTransport(std::size_t ring_capacity = std::size_t{1} << 16)
      : ring_capacity_(ring_capacity) {}

  [[nodiscard]] Link make_link() override;
  [[nodiscard]] const char* name() const noexcept override { return "inproc"; }

 private:
  std::size_t ring_capacity_;
};

/// TCP over 127.0.0.1: one real kernel socket pair per link (data flows
/// client->server, acks server->client on the same connection, Nagle off).
/// Construction throws NetError(kSetup) when loopback networking is
/// unavailable; tests skip in that case.
class LoopbackSocketTransport final : public Transport {
 public:
  /// `socket_buffer_bytes` > 0 shrinks SO_SNDBUF/SO_RCVBUF on every link
  /// (clamped upward by the kernel minimum) — the partial-write/short-read
  /// regression surface; 0 keeps the kernel defaults.
  explicit LoopbackSocketTransport(int socket_buffer_bytes = 0);
  ~LoopbackSocketTransport() override;

  [[nodiscard]] Link make_link() override;
  [[nodiscard]] const char* name() const noexcept override { return "socket"; }

  /// True iff a LoopbackSocketTransport can be constructed here.
  [[nodiscard]] static bool available() noexcept;

 private:
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  int socket_buffer_bytes_ = 0;
};

}  // namespace tft::net

#include "net/transport.h"

#include <algorithm>
#include <cstring>

#include "net/error.h"

namespace tft::net {

ByteRing::ByteRing(std::size_t capacity) : ring_(std::max<std::size_t>(capacity, 1)) {}

std::size_t ByteRing::write_some(std::span<const std::uint8_t> bytes) {
  const std::lock_guard lock(mu_);
  if (closed_) {
    throw NetError(NetErrorKind::kClosed, "pipe write: closed");
  }
  std::size_t written = 0;
  while (!bytes.empty() && size_ < ring_.size()) {
    const std::size_t tail = (head_ + size_) % ring_.size();
    const std::size_t room = ring_.size() - size_;
    const std::size_t contiguous = std::min(room, ring_.size() - tail);
    const std::size_t take = std::min(bytes.size(), contiguous);
    std::memcpy(ring_.data() + tail, bytes.data(), take);
    size_ += take;
    written += take;
    bytes = bytes.subspan(take);
  }
  return written;
}

int ByteRing::read_some(std::span<std::uint8_t> buf) {
  if (buf.empty()) return 0;
  const std::lock_guard lock(mu_);
  if (size_ == 0) {
    return closed_ ? -1 : 0;  // drained-and-closed vs nothing yet
  }
  const std::size_t contiguous = std::min(size_, ring_.size() - head_);
  const std::size_t take = std::min(buf.size(), contiguous);
  std::memcpy(buf.data(), ring_.data() + head_, take);
  head_ = (head_ + take) % ring_.size();
  size_ -= take;
  return static_cast<int>(take);
}

void ByteRing::close() {
  const std::lock_guard lock(mu_);
  closed_ = true;
}

Link InProcTransport::make_link() {
  Link link;
  link.data = std::make_unique<ByteRing>(ring_capacity_);
  link.ack = std::make_unique<ByteRing>(ring_capacity_);
  return link;
}

}  // namespace tft::net

#include "net/reliable.h"

#include <thread>

#include "net/error.h"

namespace tft::net {

bool ReliableSender::await_ack(std::uint32_t seq, Clock::time_point deadline) {
  for (;;) {
    // Drain anything already parsed (a late ack from a previous attempt of
    // this very frame counts — recovery via delayed delivery).
    Frame ack;
    while (ack_parser_.next(ack)) {
      if (ack.header.type != FrameType::kAck) continue;
      ++stats_.acks_received;
      if (ack.header.seq == seq) return true;
      // Stale ack for an already-completed frame: ignore.
    }
    const int n = link_.ack->read_some(ack_buf_, deadline);
    if (n < 0) throw NetError(NetErrorKind::kClosed, "ack stream closed");
    if (n == 0) return false;  // attempt deadline passed
    ack_parser_.feed(std::span<const std::uint8_t>(ack_buf_.data(), static_cast<std::size_t>(n)));
  }
}

void ReliableSender::send(Frame f) {
  f.header.seq = next_seq_++;
  const std::vector<std::uint8_t> wire = serialize_frame(f);

  for (std::uint32_t attempt = 0;; ++attempt) {
    const FaultDecision d = injector_.decide(f.header.seq, attempt);
    if (d.delay) {
      std::this_thread::sleep_for(std::chrono::microseconds(injector_.plan().delay_us));
    }
    const auto deadline = Clock::now() + policy_.timeout_for(attempt);
    if (!d.drop) {
      std::vector<std::uint8_t> bytes = wire;
      if (d.bit_flip) {
        // Flip one bit of the body/CRC region; the 4-byte length prefix is
        // sacred (it is the parser's resynchronization anchor).
        const std::uint64_t body_bits = (bytes.size() - 4) * std::uint64_t{8};
        const std::uint64_t bit = 32 + d.flip_bit % body_bits;
        bytes[bit / 8] ^= static_cast<std::uint8_t>(1U << (7 - bit % 8));
      }
      link_.data->write(bytes, deadline);
      stats_.wire_bytes += bytes.size();
      if (d.duplicate) {
        link_.data->write(wire, deadline);
        stats_.wire_bytes += wire.size();
        ++stats_.duplicates_sent;
      }
    }
    if (await_ack(f.header.seq, deadline)) {
      ++stats_.frames_sent;
      return;
    }
    if (attempt >= policy_.max_retries) {
      throw NetError(NetErrorKind::kTimeout,
                     "no ack for seq " + std::to_string(f.header.seq) + " after " +
                         std::to_string(attempt + 1) + " attempts");
    }
    ++stats_.retransmissions;
  }
}

void LinkServicer::send_ack(std::uint32_t seq) {
  Frame ack;
  ack.header.type = FrameType::kAck;
  ack.header.src = dst_;  // the ack travels the reverse direction
  ack.header.dst = src_;
  ack.header.seq = seq;
  const std::vector<std::uint8_t> bytes = serialize_frame(ack);
  link_.ack->write(bytes, Clock::now() + std::chrono::seconds(5));
}

void LinkServicer::accept(const Frame& f) {
  stats_.payload_bits += f.header.payload_bits;
  ++stats_.frames;
  ++stats_.messages;  // stop-and-wait never coalesces: one charge per frame
  if (stats_.phase_bits.size() <= f.header.phase) {
    stats_.phase_bits.resize(static_cast<std::size_t>(f.header.phase) + 1, 0);
  }
  stats_.phase_bits[static_cast<std::size_t>(f.header.phase)] += f.header.payload_bits;
}

void LinkServicer::run() noexcept {
  std::vector<std::uint8_t> buf(4096);
  FrameParser parser;
  try {
    for (;;) {
      const int n = link_.data->read_some(buf, Clock::now() + std::chrono::milliseconds(200));
      if (n < 0) break;  // closed and drained
      if (n == 0) continue;
      stats_.bytes_read += static_cast<std::uint64_t>(n);
      parser.feed(std::span<const std::uint8_t>(buf.data(), static_cast<std::size_t>(n)));
      Frame f;
      while (parser.next(f)) {
        if (f.header.type == FrameType::kAck) continue;  // not ours
        if (f.header.src != src_ || f.header.dst != dst_) {
          ++stats_.corrupt;  // CRC-valid but misaddressed: broken peer
          continue;
        }
        if (f.header.seq < next_expected_) {
          // Retransmit of an already-accepted frame (our ack was lost or
          // late): discard, but re-ack so the sender can move on.
          ++stats_.duplicates;
          send_ack(f.header.seq);
          continue;
        }
        if (f.header.seq > next_expected_) {
          // Stop-and-wait cannot legally skip ahead.
          throw NetError(NetErrorKind::kProtocol,
                         "future seq " + std::to_string(f.header.seq) + " (expected " +
                             std::to_string(next_expected_) + ")");
        }
        if (f.header.type == FrameType::kData && !verify_filler_payload(f)) {
          ++stats_.corrupt;  // defense in depth behind the CRC
          continue;
        }
        accept(f);
        next_expected_ = f.header.seq + 1;
        // Ack first, then deliver: the sender is released while a relay
        // hook forwards, and a retransmit racing the hook is seq-deduped.
        send_ack(f.header.seq);
        if (deliver_) deliver_(f);
      }
    }
  } catch (const std::exception& e) {
    error_ = e.what();
    link_.close();  // unblock the peer; it sees a typed kClosed/kTimeout
  }
  stats_.corrupt += parser.corrupt_frames();
}

}  // namespace tft::net

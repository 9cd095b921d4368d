#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <string_view>
#include <thread>
#include <vector>

#include "net/arq.h"
#include "net/error.h"
#include "net/frame.h"
#include "net/servicer.h"
#include "net/transport.h"
#include "reseal_pipe.h"

namespace tft::net {
namespace {

using namespace std::chrono_literals;

std::vector<std::unique_ptr<Transport>> all_transports() {
  std::vector<std::unique_ptr<Transport>> v;
  v.push_back(std::make_unique<InProcTransport>(std::size_t{1} << 12));
  if (LoopbackSocketTransport::available()) {
    v.push_back(std::make_unique<LoopbackSocketTransport>());
  }
  return v;
}

/// Run `charges` (bits, all upstream from player 0 in `phase`) through a
/// one-player session on `transport`, and return the closed session's
/// stats.
WireStats run_session(Transport& transport, SharedServicer::Options opts,
                      const std::vector<std::uint64_t>& charges, std::uint64_t phase = 0) {
  opts.timed_recheck = std::string_view(transport.name()) == "socket";
  SharedServicer svc(opts);
  SharedServicer::SessionOptions so;
  so.num_players = 1;
  const std::size_t session = svc.open_session(transport, so);
  svc.start();
  for (const std::uint64_t bits : charges) {
    svc.session_charge(session, /*player=*/0, /*upstream=*/true, bits, phase);
  }
  const WireStats w = svc.close_session(session);
  svc.finish();
  svc.rethrow_error();
  svc.rethrow_session_error(session);
  return w;
}

TEST(NetRing, WriteThenReadRoundTrips) {
  ByteRing ring(64);
  const std::vector<std::uint8_t> data = {1, 2, 3, 4, 5};
  ASSERT_EQ(ring.write_some(data), 5u);
  std::vector<std::uint8_t> buf(16);
  const int n = ring.read_some(buf);
  ASSERT_EQ(n, 5);
  buf.resize(5);
  EXPECT_EQ(buf, data);
}

/// An empty ring's read returns 0 at once; after close, buffered bytes
/// still arrive before the -1.
TEST(NetRing, ReadTimesOutEmptyAndDrainsAfterClose) {
  ByteRing ring(16);
  std::vector<std::uint8_t> buf(4);
  EXPECT_EQ(ring.read_some(buf), 0);

  ASSERT_EQ(ring.write_some(std::vector<std::uint8_t>{9, 8}), 2u);
  ring.close();
  EXPECT_EQ(ring.read_some(buf), 2);   // buffered survives close
  EXPECT_EQ(ring.read_some(buf), -1);  // then closed
}

/// Backpressure without blocking: a write takes only what fits, and the
/// writer gets further only as the reader drains.
TEST(NetRing, WriteBlocksOnBackpressureUntilReaderDrains) {
  ByteRing ring(8);
  std::vector<std::uint8_t> big(64);
  std::iota(big.begin(), big.end(), 0);
  EXPECT_EQ(ring.write_some(big), 8u);
  EXPECT_EQ(ring.write_some(big), 0u) << "a full ring takes nothing";
  std::vector<std::uint8_t> got(3);
  ASSERT_EQ(ring.read_some(got), 3);
  EXPECT_EQ(ring.write_some(std::span<const std::uint8_t>(big).subspan(8)), 3u)
      << "a read of 3 makes room for 3";
  std::vector<std::uint8_t> chunk(16);
  for (int n = 0; (n = ring.read_some(chunk)) > 0;) {
    got.insert(got.end(), chunk.begin(), chunk.begin() + n);
  }
  EXPECT_EQ(got, std::vector<std::uint8_t>(big.begin(), big.begin() + 11));

  // 64 bytes through the 8-byte ring, writer and reader on two threads.
  got.clear();
  std::thread reader([&] {
    while (got.size() < big.size()) {
      const int n = ring.read_some(chunk);
      if (n < 0) break;
      if (n == 0) std::this_thread::yield();
      got.insert(got.end(), chunk.begin(), chunk.begin() + n);
    }
  });
  std::span<const std::uint8_t> left(big);
  while (!left.empty()) {
    const std::size_t n = ring.write_some(left);
    if (n == 0) std::this_thread::yield();
    left = left.subspan(n);
  }
  reader.join();
  EXPECT_EQ(got, big);
}

TEST(NetRing, WriteIntoFullClosedRingIsTyped) {
  ByteRing ring(4);
  ASSERT_EQ(ring.write_some(std::vector<std::uint8_t>{1, 2, 3, 4}), 4u);
  EXPECT_EQ(ring.write_some(std::vector<std::uint8_t>{5}), 0u) << "full: nothing taken";
  ring.close();
  try {
    (void)ring.write_some(std::vector<std::uint8_t>{5});
    FAIL() << "write into a closed ring succeeded";
  } catch (const NetError& e) {
    EXPECT_EQ(e.kind(), NetErrorKind::kClosed);
  }
}

TEST(NetTransport, SocketAvailabilityIsReported) {
  if (!LoopbackSocketTransport::available()) {
    GTEST_SKIP() << "no loopback networking in this environment";
  }
  LoopbackSocketTransport transport;
  Link link = transport.make_link();
  const std::vector<std::uint8_t> probe = {42, 43};
  ASSERT_EQ(link.data->write_some(probe), 2u);
  std::vector<std::uint8_t> buf(8);
  int n = 0;
  // TCP may deliver with latency; poll until a deadline.
  const auto deadline = Clock::now() + 2s;
  while ((n = link.data->read_some(buf)) == 0 && Clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(n, 2);
  EXPECT_EQ(buf[0], 42);
  EXPECT_EQ(buf[1], 43);
  link.close();
}

/// Stop-and-wait frames through the servicer on every transport: each
/// charge is one frame and one ack, and the receiver tallies the charged
/// bits per phase.
TEST(NetTransport, ReliableDeliveryTalliesChargedBits) {
  for (const auto& transport : all_transports()) {
    SCOPED_TRACE(transport->name());
    SharedServicer::Options opts;
    opts.arq = ArqPolicy::stop_and_wait();
    const WireStats w = run_session(*transport, opts, {0, 1, 13, 4096}, /*phase=*/2);
    const std::uint64_t total = 0 + 1 + 13 + 4096;
    EXPECT_EQ(w.frames_delivered, 4u);
    EXPECT_EQ(w.up_bits[0], total);
    EXPECT_EQ(w.up_msgs[0], 4u);
    ASSERT_EQ(w.phase_bits.size(), 3u);
    EXPECT_EQ(w.phase_bits[2], total);
    EXPECT_EQ(w.duplicates, 0u);
    EXPECT_EQ(w.corrupt_frames, 0u);
    EXPECT_EQ(w.retransmissions, 0u);
    EXPECT_EQ(w.acks, 4u);
  }
}

TEST(NetTransport, LargeFrameCrossesSmallRing) {
  InProcTransport transport(/*ring_capacity=*/256);
  // ~12.5 KB through 256-byte rings: the frame crosses in partial writes.
  const WireStats w = run_session(transport, SharedServicer::Options{}, {100'000});
  EXPECT_EQ(w.frames_delivered, 1u);
  EXPECT_EQ(w.up_bits[0], 100'000u);
  EXPECT_EQ(w.corrupt_frames, 0u);
}

/// Partial-I/O regression: shrink SO_SNDBUF/SO_RCVBUF to the kernel floor so
/// a multi-KB frame is forced through many short send()/recv() calls in both
/// directions; the pipes must never truncate, and the stop-and-wait policy
/// on top must deliver and tally every charged bit. The retransmit timeout
/// is far longer than a frame takes to trickle through, so any
/// retransmission means a frame that crossed was not reassembled and acked.
TEST(NetTransport, LargeFramesSurviveTinySocketBuffers) {
  if (!LoopbackSocketTransport::available()) {
    GTEST_SKIP() << "no loopback networking in this environment";
  }
  LoopbackSocketTransport transport(/*socket_buffer_bytes=*/4096);
  SharedServicer::Options opts;
  opts.arq = ArqPolicy::stop_and_wait();
  opts.retry.base_timeout = 5s;
  opts.retry.max_timeout = 5s;
  const std::vector<std::uint64_t> charges = {400'000, 7, 250'000};  // ~50 KB, tiny, ~31 KB
  const WireStats w = run_session(transport, opts, charges);
  EXPECT_EQ(w.frames_delivered, 3u);
  EXPECT_EQ(w.up_bits[0], std::accumulate(charges.begin(), charges.end(), std::uint64_t{0}));
  EXPECT_EQ(w.corrupt_frames, 0u) << "short reads must reassemble, not corrupt";
  EXPECT_EQ(w.retransmissions, 0u) << "no timeout while a frame trickles";
  EXPECT_EQ(w.acks, 3u);
}

/// The same squeezed buffers under the windowed policy: the servicer's
/// write path is non-blocking write_some with parked out-buffers, so several
/// frames larger than the socket buffer in flight at once exercise the
/// partial-write resume path.
TEST(NetTransport, SharedServicerDrainsPartialSocketWrites) {
  if (!LoopbackSocketTransport::available()) {
    GTEST_SKIP() << "no loopback networking in this environment";
  }
  LoopbackSocketTransport transport(/*socket_buffer_bytes=*/4096);
  SharedServicer::Options opts;
  opts.arq = ArqPolicy::windowed(8);
  opts.arq.coalesce = false;
  // ~37 KB, tiny, ~37 KB, a single bit.
  const std::vector<std::uint64_t> charges = {300'000, 64, 300'000, 1};
  const WireStats w = run_session(transport, opts, charges);
  EXPECT_EQ(w.frames_delivered, charges.size());
  EXPECT_EQ(w.up_bits[0], std::accumulate(charges.begin(), charges.end(), std::uint64_t{0}));
  EXPECT_EQ(w.corrupt_frames, 0u) << "short reads must reassemble, not corrupt";
}

/// A CRC-valid frame whose header names the wrong sender is a broken peer:
/// the receiver counts it corrupt and neither acks nor tallies it, so the
/// sender's retransmission (sealed intact) is the one delivered.
TEST(NetTransport, ServicerRejectsMisaddressedFrames) {
  ResealTransport transport([](Frame& f) {
    if (f.header.type != FrameType::kData) return false;
    f.header.src = 5;  // the link carries player 0's frames
    return true;
  });
  SharedServicer::Options opts;
  opts.virtual_clock = true;
  const WireStats w = run_session(transport, opts, {4});
  ASSERT_TRUE(transport.resealed());
  EXPECT_EQ(w.corrupt_frames, 1u);
  EXPECT_EQ(w.retransmissions, 1u);
  EXPECT_EQ(w.acks, 1u);
  EXPECT_EQ(w.frames_delivered, 1u);
  EXPECT_EQ(w.up_bits[0], 4u);
}

}  // namespace
}  // namespace tft::net

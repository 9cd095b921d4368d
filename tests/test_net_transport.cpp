#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "net/arq.h"
#include "net/error.h"
#include "net/frame.h"
#include "net/reliable.h"
#include "net/servicer.h"
#include "net/transport.h"

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

TEST(NetRing, WriteThenReadRoundTrips) {
  ByteRing ring(64);
  const std::vector<std::uint8_t> data = {1, 2, 3, 4, 5};
  ring.write(data, Clock::now() + 1s);
  std::vector<std::uint8_t> buf(16);
  const int n = ring.read_some(buf, Clock::now() + 1s);
  ASSERT_EQ(n, 5);
  buf.resize(5);
  EXPECT_EQ(buf, data);
}

TEST(NetRing, ReadTimesOutEmptyAndDrainsAfterClose) {
  ByteRing ring(16);
  std::vector<std::uint8_t> buf(4);
  EXPECT_EQ(ring.read_some(buf, Clock::now() + 5ms), 0);  // deadline tick

  ring.write(std::vector<std::uint8_t>{9, 8}, Clock::now() + 1s);
  ring.close();
  EXPECT_EQ(ring.read_some(buf, Clock::now() + 1s), 2);   // buffered survives close
  EXPECT_EQ(ring.read_some(buf, Clock::now() + 1s), -1);  // then closed
}

TEST(NetRing, WriteBlocksOnBackpressureUntilReaderDrains) {
  ByteRing ring(8);
  std::vector<std::uint8_t> big(64);
  std::iota(big.begin(), big.end(), 0);

  std::vector<std::uint8_t> got;
  std::thread reader([&] {
    std::vector<std::uint8_t> buf(16);
    for (;;) {
      const int n = ring.read_some(buf, Clock::now() + 2s);
      if (n < 0) break;
      got.insert(got.end(), buf.begin(), buf.begin() + n);
      if (got.size() == big.size()) break;
    }
  });
  ring.write(big, Clock::now() + 2s);  // 64 bytes through an 8-byte ring
  reader.join();
  EXPECT_EQ(got, big);
}

TEST(NetRing, WriteIntoFullClosedRingIsTyped) {
  ByteRing ring(4);
  ring.write(std::vector<std::uint8_t>{1, 2, 3, 4}, Clock::now() + 1s);
  try {
    ring.write(std::vector<std::uint8_t>{5}, Clock::now() + 10ms);
    FAIL() << "write into a full ring did not time out";
  } catch (const NetError& e) {
    EXPECT_EQ(e.kind(), NetErrorKind::kTimeout);
  }
  ring.close();
  try {
    ring.write(std::vector<std::uint8_t>{5}, Clock::now() + 1s);
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
  link.data->write(probe, Clock::now() + 1s);
  std::vector<std::uint8_t> buf(8);
  int n = 0;
  // TCP may deliver with latency; poll within the deadline.
  const auto deadline = Clock::now() + 2s;
  while ((n = link.data->read_some(buf, deadline)) == 0 && Clock::now() < deadline) {
  }
  ASSERT_EQ(n, 2);
  EXPECT_EQ(buf[0], 42);
  EXPECT_EQ(buf[1], 43);
  link.close();
}

/// One frame through the full ARQ stack (sender thread = this thread,
/// servicer on its own), for every transport.
TEST(NetTransport, ReliableDeliveryTalliesChargedBits) {
  for (const auto& transport : all_transports()) {
    SCOPED_TRACE(transport->name());
    Link link = transport->make_link();
    ReliableSender sender(link, /*link_id=*/7, RetryPolicy{}, FaultPlan{});
    LinkServicer servicer(link, /*src=*/1, /*dst=*/3);
    std::thread actor([&] { servicer.run(); });

    const std::uint64_t payloads[] = {0, 1, 13, 4096};
    for (std::uint64_t bits : payloads) {
      Frame f;
      f.header.src = 1;
      f.header.dst = 3;
      f.header.phase = 2;
      f.header.payload_bits = bits;
      f.header.seq = sender.next_seq();
      f.payload = make_filler_payload(f.header);
      sender.send(std::move(f));
    }
    link.close();
    actor.join();

    ASSERT_FALSE(servicer.error().has_value()) << *servicer.error();
    EXPECT_EQ(servicer.stats().frames, 4u);
    EXPECT_EQ(servicer.stats().payload_bits, 0u + 1 + 13 + 4096);
    ASSERT_EQ(servicer.stats().phase_bits.size(), 3u);
    EXPECT_EQ(servicer.stats().phase_bits[2], 0u + 1 + 13 + 4096);
    EXPECT_EQ(servicer.stats().duplicates, 0u);
    EXPECT_EQ(servicer.stats().corrupt, 0u);
    EXPECT_EQ(sender.stats().frames_sent, 4u);
    EXPECT_EQ(sender.stats().retransmissions, 0u);
    EXPECT_EQ(sender.stats().acks_received, 4u);
  }
}

TEST(NetTransport, LargeFrameCrossesSmallRing) {
  InProcTransport transport(/*ring_capacity=*/256);
  Link link = transport.make_link();
  ReliableSender sender(link, 0, RetryPolicy{}, FaultPlan{});
  LinkServicer servicer(link, 0, 1);
  std::thread actor([&] { servicer.run(); });

  Frame f;
  f.header.src = 0;
  f.header.dst = 1;
  f.header.payload_bits = 100'000;  // ~12.5 KB through a 256-byte ring
  f.payload = make_filler_payload(f.header);
  sender.send(std::move(f));
  link.close();
  actor.join();

  ASSERT_FALSE(servicer.error().has_value()) << *servicer.error();
  EXPECT_EQ(servicer.stats().frames, 1u);
  EXPECT_EQ(servicer.stats().payload_bits, 100'000u);
}

TEST(NetTransport, SenderTimesOutTypedWhenNobodyListens) {
  InProcTransport transport(/*ring_capacity=*/1 << 16);
  Link link = transport.make_link();  // no servicer: acks never come
  RetryPolicy fast;
  fast.base_timeout = 2ms;
  fast.max_retries = 3;
  ReliableSender sender(link, 0, fast, FaultPlan{});

  Frame f;
  f.header.payload_bits = 8;
  f.payload = make_filler_payload(f.header);
  const auto start = Clock::now();
  try {
    sender.send(std::move(f));
    FAIL() << "send without a receiver did not time out";
  } catch (const NetError& e) {
    EXPECT_EQ(e.kind(), NetErrorKind::kTimeout);
  }
  EXPECT_LT(Clock::now() - start, 5s) << "timeout-and-retry must be bounded";
  EXPECT_EQ(sender.stats().retransmissions, 3u);
}

/// Partial-I/O regression: shrink SO_SNDBUF/SO_RCVBUF to the kernel floor so
/// a multi-KB frame is forced through many short send()/recv() calls in both
/// directions; the pipes must loop (EINTR/EAGAIN aware), never truncate, and
/// the ARQ stack on top must deliver and tally every charged bit.
TEST(NetTransport, LargeFramesSurviveTinySocketBuffers) {
  if (!LoopbackSocketTransport::available()) {
    GTEST_SKIP() << "no loopback networking in this environment";
  }
  LoopbackSocketTransport transport(/*socket_buffer_bytes=*/4096);
  Link link = transport.make_link();
  ReliableSender sender(link, /*link_id=*/0, RetryPolicy{}, FaultPlan{});
  LinkServicer servicer(link, /*src=*/0, /*dst=*/1);
  std::thread actor([&] { servicer.run(); });

  const std::uint64_t payloads[] = {400'000, 7, 250'000};  // ~50 KB, tiny, ~31 KB
  std::uint64_t total = 0;
  for (const std::uint64_t bits : payloads) {
    Frame f;
    f.header.src = 0;
    f.header.dst = 1;
    f.header.payload_bits = bits;
    f.header.seq = sender.next_seq();
    f.payload = make_filler_payload(f.header);
    sender.send(std::move(f));
    total += bits;
  }
  link.close();
  actor.join();

  ASSERT_FALSE(servicer.error().has_value()) << *servicer.error();
  EXPECT_EQ(servicer.stats().frames, 3u);
  EXPECT_EQ(servicer.stats().payload_bits, total);
  EXPECT_EQ(servicer.stats().corrupt, 0u) << "short reads must reassemble, not corrupt";
  EXPECT_EQ(sender.stats().retransmissions, 0u) << "no timeout while a frame trickles";
}

/// The same squeezed buffers under the shared event-driven servicer: its
/// write path is non-blocking write_some with parked out-buffers, so a frame
/// larger than the socket buffer exercises the partial-write resume path.
TEST(NetTransport, SharedServicerDrainsPartialSocketWrites) {
  if (!LoopbackSocketTransport::available()) {
    GTEST_SKIP() << "no loopback networking in this environment";
  }
  LoopbackSocketTransport transport(/*socket_buffer_bytes=*/4096);
  SharedServicer::Options opts;
  opts.arq = ArqPolicy::windowed(8);
  opts.arq.coalesce = false;
  opts.timed_recheck = true;  // kernel-buffered transport
  SharedServicer svc(opts);
  SharedServicer::SessionOptions so;
  so.num_players = 1;
  const std::size_t session = svc.open_session(transport, so);
  svc.start();
  std::uint64_t total = 0;
  for (const std::uint64_t bits : {300'000u, 64u, 300'000u, 1u}) {
    svc.session_charge(session, /*player=*/0, /*upstream=*/true, bits, /*phase=*/0);
    total += bits;
  }
  const WireStats w = svc.close_session(session);
  svc.finish();
  svc.rethrow_error();
  svc.rethrow_session_error(session);
  EXPECT_EQ(w.frames_delivered, 4u);
  EXPECT_EQ(w.up_bits[0], total);
  EXPECT_EQ(w.corrupt_frames, 0u);
}

TEST(NetTransport, ServicerRejectsMisaddressedFrames) {
  InProcTransport transport;
  Link link = transport.make_link();
  RetryPolicy fast;
  fast.base_timeout = 5ms;
  fast.max_retries = 1;
  ReliableSender sender(link, 0, fast, FaultPlan{});
  LinkServicer servicer(link, /*src=*/0, /*dst=*/1);
  std::thread actor([&] { servicer.run(); });

  Frame f;
  f.header.src = 5;  // wrong endpoint for this link
  f.header.dst = 1;
  f.header.payload_bits = 4;
  f.payload = make_filler_payload(f.header);
  EXPECT_THROW(sender.send(std::move(f)), NetError);  // never acked
  link.close();
  actor.join();
  EXPECT_EQ(servicer.stats().frames, 0u);
  EXPECT_GE(servicer.stats().corrupt, 1u);
}

}  // namespace
}  // namespace tft::net

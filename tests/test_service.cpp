// The service layer (src/service/): spec/reply codecs, the coordinator's
// scheduling and admission control, graceful drain, and the TCP daemon.
// Plus the transport-name registry the service surfaces through its CLIs.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "comm/wire.h"
#include "net/error.h"
#include "net/frame.h"
#include "net/runtime.h"
#include "net/transport.h"
#include "service/coordinator.h"
#include "service/daemon.h"
#include "service/spec.h"

namespace tft::service {
namespace {

using net::NetError;
using net::NetErrorKind;

SessionSpec small_spec(std::uint64_t seed, std::string tenant = "") {
  SessionSpec spec;
  spec.family = InstanceFamily::kPlanted;
  spec.n = 200;
  spec.k = 4;
  spec.seed = seed;
  spec.tenant = std::move(tenant);
  return spec;
}

ServiceConfig inproc_config(std::size_t live, std::size_t pending) {
  ServiceConfig cfg;
  cfg.net.transport = net::TransportKind::kInProc;
  cfg.net.virtual_clock = true;
  cfg.max_live_sessions = live;
  cfg.max_pending = pending;
  return cfg;
}

// ---- codecs -----------------------------------------------------------------

TEST(ServiceSpec, CodecRoundTripsEveryField) {
  SessionSpec spec;
  spec.protocol = ProtocolKind::kUnrestricted;
  spec.family = InstanceFamily::kMu;
  spec.n = 99'991;
  spec.k = 17;
  spec.seed = 0xDEADBEEFCAFEull;
  spec.eps_micro = 250'000;
  spec.param = 85;
  spec.tenant = "team-rocket";
  EXPECT_EQ(decode_spec(encode_spec(spec)), spec);
  EXPECT_EQ(decode_spec(encode_spec(SessionSpec{})), SessionSpec{});
}

TEST(ServiceSpec, DecodeRejectsCorruptBytesTyped) {
  const std::vector<std::uint8_t> good = encode_spec(small_spec(1, "t"));
  const auto expect_corrupt = [](std::span<const std::uint8_t> bytes) {
    try {
      (void)decode_spec(bytes);
      FAIL() << "malformed spec bytes must throw";
    } catch (const NetError& e) {
      EXPECT_EQ(e.kind(), NetErrorKind::kCorrupt);
    }
  };
  expect_corrupt({});                                             // empty
  expect_corrupt(std::span(good).first(good.size() / 2));         // truncated
  std::vector<std::uint8_t> bad_version = good;
  bad_version[0] = 0xFF;                                          // unknown version
  expect_corrupt(bad_version);
}

TEST(ServiceReplyCodec, RoundTripsVerdictAndAccounting) {
  ServiceReply reply;
  reply.status = ReplyStatus::kTriangle;
  reply.session_id = 42;
  reply.triangle = Triangle{3, 7, 11};
  reply.charged_bits = 123'456;
  reply.payload_bits = 123'456;
  reply.messages = 78;
  reply.frames = 31;
  reply.wire_bytes = 20'000;
  reply.accounting_exact = true;
  reply.conformance_ok = true;
  EXPECT_EQ(decode_reply(encode_reply(reply)), reply);

  ServiceReply busy;
  busy.status = ReplyStatus::kBusy;
  busy.error = "service at capacity";
  EXPECT_EQ(decode_reply(encode_reply(busy)), busy);
}

TEST(ServiceSpec, BuildPlayersIsAPureFunctionOfTheSpec) {
  const SessionSpec spec = small_spec(7);
  const auto a = build_players(spec);
  const auto b = build_players(spec);
  ASSERT_EQ(a.size(), spec.k);
  ASSERT_EQ(b.size(), spec.k);
  for (std::size_t j = 0; j < a.size(); ++j) {
    const auto ea = a[j].local.edges();
    const auto eb = b[j].local.edges();
    ASSERT_EQ(ea.size(), eb.size()) << "player " << j;
    EXPECT_TRUE(std::equal(ea.begin(), ea.end(), eb.begin())) << "player " << j;
  }
}

// ---- transport registry (CLI surface) ---------------------------------------

TEST(ServiceTransports, NameRegistryRoundTrips) {
  for (const auto kind : {net::TransportKind::kSim, net::TransportKind::kInProc,
                          net::TransportKind::kSocket}) {
    const auto parsed = net::parse_transport(net::to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << net::to_string(kind);
    EXPECT_EQ(*parsed, kind);
  }
}

TEST(ServiceTransports, UnknownNamesParseToNullopt) {
  for (const char* bogus : {"", "tcp", "SIM", "in-proc", "socket "}) {
    EXPECT_FALSE(net::parse_transport(bogus).has_value()) << "'" << bogus << "'";
  }
}

// ---- coordinator ------------------------------------------------------------

TEST(ServiceCoordinatorTest, RunsConcurrentSessionsWithExactAccounting) {
  ServiceCoordinator coordinator(inproc_config(/*live=*/2, /*pending=*/8));
  std::vector<std::future<SessionOutcome>> futures;
  futures.reserve(4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    futures.push_back(coordinator.submit(small_spec(100 + i)));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const SessionOutcome out = futures[i].get();
    SCOPED_TRACE(i);
    EXPECT_NE(out.status, ReplyStatus::kError) << out.error;
    EXPECT_TRUE(out.accounting_exact);
    EXPECT_TRUE(out.conformance_ok);
    // Wire ids are minted at submission, in submission order, from 1.
    EXPECT_EQ(out.session_id, static_cast<std::uint32_t>(i + 1));
  }
  EXPECT_EQ(coordinator.sessions_completed(), 4u);
  EXPECT_EQ(coordinator.sessions_rejected(), 0u);
}

TEST(ServiceCoordinatorTest, RejectsPastCapacityWithTypedBusy) {
  // One worker, one admitted slot total: the second immediate submit must
  // bounce while the first still occupies admission.
  ServiceCoordinator coordinator(inproc_config(/*live=*/1, /*pending=*/1));
  SessionSpec slow = small_spec(1);
  slow.n = 4000;  // keep the single slot occupied across the second submit
  auto first = coordinator.submit(slow);
  try {
    (void)coordinator.submit(small_spec(2));
    FAIL() << "submit past max_pending must throw kServiceBusy";
  } catch (const NetError& e) {
    EXPECT_EQ(e.kind(), NetErrorKind::kServiceBusy);
  }
  EXPECT_GE(coordinator.sessions_rejected(), 1u);
  const SessionOutcome out = first.get();
  EXPECT_NE(out.status, ReplyStatus::kError) << out.error;
}

/// A gate a test closes on the coordinator's worker and opens from the test
/// thread: `wait_entered` returns once the worker is inside, and the worker
/// stays there until `open` (or the gate's end, so a failing test cannot
/// leave the worker stuck).
class WorkerGate {
 public:
  WorkerGate() = default;
  WorkerGate(const WorkerGate&) = delete;
  WorkerGate& operator=(const WorkerGate&) = delete;
  ~WorkerGate() { open(); }

  void hold() {
    entered_.set_value();
    opened_.wait();
  }
  void wait_entered() { entered_future_.wait(); }
  void open() {
    if (!is_open_.exchange(true)) open_.set_value();
  }

 private:
  std::promise<void> entered_;
  std::shared_future<void> entered_future_ = entered_.get_future().share();
  std::promise<void> open_;
  std::shared_future<void> opened_ = open_.get_future().share();
  std::atomic<bool> is_open_{false};
};

TEST(ServiceCoordinatorTest, FairSharePickRoundRobinsAcrossTenants) {
  using Queued = std::vector<std::string_view>;
  const std::vector<std::string> ab{"a", "b"};
  // Tenant a was just served (cursor past a), then a, a, b queued: the lone
  // b goes next, and a's oldest after it.
  FairSharePick pick = fair_share_pick(Queued{"a", "a", "b"}, ab, 1);
  EXPECT_EQ(pick.queue_index, 2u);
  EXPECT_EQ(pick.cursor, 0u);
  pick = fair_share_pick(Queued{"a", "a"}, ab, pick.cursor);
  EXPECT_EQ(pick.queue_index, 0u);
  EXPECT_EQ(pick.cursor, 1u);
  // The cursor's tenant has nothing queued: the scan wraps to the next one.
  pick = fair_share_pick(Queued{"a", "a"}, ab, 1);
  EXPECT_EQ(pick.queue_index, 0u);
  EXPECT_EQ(pick.cursor, 1u);
  // FIFO within a tenant: b's oldest item, not its newest.
  pick = fair_share_pick(Queued{"c", "b", "a", "b"}, std::vector<std::string>{"a", "b", "c"}, 1);
  EXPECT_EQ(pick.queue_index, 1u);
  EXPECT_EQ(pick.cursor, 2u);
  // Three tenants from the last: c, then the scan wraps to a.
  pick = fair_share_pick(Queued{"a", "c"}, std::vector<std::string>{"a", "b", "c"}, 2);
  EXPECT_EQ(pick.queue_index, 1u);
  EXPECT_EQ(pick.cursor, 0u);
  // No rotation at all: the oldest item, cursor unchanged.
  pick = fair_share_pick(Queued{"x", "y"}, std::vector<std::string>{}, 3);
  EXPECT_EQ(pick.queue_index, 0u);
  EXPECT_EQ(pick.cursor, 3u);
}

TEST(ServiceCoordinatorTest, FairShareRoundRobinsAcrossTenants) {
  ServiceConfig cfg = inproc_config(/*live=*/1, /*pending=*/8);
  cfg.scheduler = SchedulerKind::kFairShare;
  ServiceCoordinator coordinator(cfg);

  // Hold the single worker inside a tenant-a session while a, a, b queue up,
  // and record the order in which the worker takes sessions.
  WorkerGate gate;
  std::mutex order_mu;
  std::vector<std::uint64_t> served;
  coordinator.set_before_execute([&](const SessionSpec& spec) {
    {
      const std::lock_guard lock(order_mu);
      served.push_back(spec.seed);
    }
    if (spec.seed == 1) gate.hold();
  });
  auto pin = coordinator.submit(small_spec(1, "a"));
  gate.wait_entered();
  auto a1 = coordinator.submit(small_spec(2, "a"));
  auto a2 = coordinator.submit(small_spec(3, "a"));
  auto b1 = coordinator.submit(small_spec(4, "b"));
  gate.open();

  for (auto* f : {&pin, &a1, &a2, &b1}) {
    const SessionOutcome out = f->get();
    EXPECT_NE(out.status, ReplyStatus::kError) << out.error;
    EXPECT_TRUE(out.accounting_exact);
  }
  ASSERT_EQ(served.size(), 4u);
  EXPECT_EQ(served.front(), 1u);
  const auto turn = [&served](std::uint64_t seed) {
    return std::find(served.begin(), served.end(), seed) - served.begin();
  };
  EXPECT_LT(turn(4), turn(3)) << "fair-share must not serve tenant a twice before b";
  EXPECT_LT(turn(2), turn(3)) << "FIFO within tenant a";
}

TEST(ServiceCoordinatorTest, DrainStopsAdmissionTyped) {
  ServiceCoordinator coordinator(inproc_config(/*live=*/1, /*pending=*/2));
  auto f = coordinator.submit(small_spec(5));
  coordinator.drain();
  EXPECT_TRUE(f.wait_for(std::chrono::seconds(0)) == std::future_status::ready)
      << "drain must wait for admitted sessions";
  EXPECT_NE(f.get().status, ReplyStatus::kError);
  try {
    (void)coordinator.submit(small_spec(6));
    FAIL() << "submit after drain must throw kClosed";
  } catch (const NetError& e) {
    EXPECT_EQ(e.kind(), NetErrorKind::kClosed);
  }
}

TEST(ServiceCoordinatorTest, RejectsSimTransportAndZeroWorkers) {
  ServiceConfig sim;
  sim.net.transport = net::TransportKind::kSim;
  EXPECT_THROW(ServiceCoordinator{sim}, NetError);
  ServiceConfig none = inproc_config(1, 1);
  none.max_live_sessions = 0;
  EXPECT_THROW(ServiceCoordinator{none}, NetError);
  ServiceConfig starved = inproc_config(4, 2);  // pending < live idles workers
  EXPECT_THROW(ServiceCoordinator{starved}, NetError);
}

// ---- daemon -----------------------------------------------------------------

TEST(ServiceDaemonTest, ServesSpecsOverLoopbackTcp) {
  if (!net::LoopbackSocketTransport::available()) {
    GTEST_SKIP() << "no loopback networking in this environment";
  }
  ServiceDaemon daemon(inproc_config(/*live=*/2, /*pending=*/8));
  ASSERT_NE(daemon.port(), 0);

  const ServiceReply r1 = request(daemon.port(), small_spec(11));
  const ServiceReply r2 = request(daemon.port(), small_spec(12));
  for (const ServiceReply& r : {r1, r2}) {
    EXPECT_NE(r.status, ReplyStatus::kError) << r.error;
    EXPECT_NE(r.status, ReplyStatus::kBusy);
    EXPECT_TRUE(r.accounting_exact);
    EXPECT_TRUE(r.conformance_ok);
    EXPECT_GT(r.charged_bits, 0u);
    EXPECT_GT(r.wire_bytes, 0u);
  }
  EXPECT_NE(r1.session_id, r2.session_id);
  if (r1.status == ReplyStatus::kTriangle) {
    EXPECT_TRUE(r1.triangle.has_value()) << "a triangle verdict must carry its witness";
  }

  daemon.shutdown();
  EXPECT_EQ(daemon.coordinator().sessions_completed(), 2u);
  // Shutdown is idempotent and the port stops answering.
  daemon.shutdown();
  EXPECT_THROW((void)request(daemon.port(), small_spec(13)), NetError);
}

/// This process's VmSize in KiB, or -1 where /proc/self/status has none.
std::int64_t vm_size_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoll(line.substr(7));
  }
  return -1;
}

/// A long-running daemon must join its finished handler threads: each one
/// left unjoined pins its whole stack mapping (8 MiB by default), so 200
/// sequential requests would add about 1.6 GB of address space.
TEST(ServiceDaemonTest, ReapsFinishedHandlerThreads) {
  if (!net::LoopbackSocketTransport::available()) {
    GTEST_SKIP() << "no loopback networking in this environment";
  }
  if (vm_size_kib() < 0) GTEST_SKIP() << "no VmSize in /proc/self/status";
  ServiceDaemon daemon(inproc_config(/*live=*/1, /*pending=*/4));
  SessionSpec spec = small_spec(0);
  spec.n = 60;
  spec.k = 2;
  for (std::uint64_t i = 0; i < 10; ++i) {  // warm up pools, arenas and the stack cache
    spec.seed = 500 + i;
    (void)request(daemon.port(), spec);
  }
  const std::int64_t before = vm_size_kib();
  constexpr std::int64_t kRequests = 200;
  for (std::int64_t i = 0; i < kRequests; ++i) {
    spec.seed = 1000 + static_cast<std::uint64_t>(i);
    const ServiceReply r = request(daemon.port(), spec);
    ASSERT_EQ(r.error, "");
  }
  const std::int64_t growth_kib = vm_size_kib() - before;
  EXPECT_LT(growth_kib, kRequests * 1024) << "VmSize grew by " << growth_kib / 1024
                                          << " MiB over " << kRequests << " requests";
  daemon.shutdown();
}

// ---- spec versioning: the shard-affinity field ------------------------------

/// The default (affinity 0) spec must stay byte-identical to the pre-shard
/// v1 wire: reconstruct the v1 encoder's byte string field by field and
/// demand equality. A pre-shard peer decodes today's default specs, and
/// vice versa.
TEST(ServiceSpec, AffinityZeroKeepsTheV1WireBytes) {
  const SessionSpec spec = small_spec(9, "acme");
  BitWriter w;
  w.put_gamma(1);  // the pre-shard version tag
  w.put_gamma(static_cast<std::uint64_t>(spec.protocol));
  w.put_gamma(static_cast<std::uint64_t>(spec.family));
  w.put_gamma(spec.n);
  w.put_gamma(spec.k);
  w.put_bits(spec.seed, 64);
  w.put_gamma(spec.eps_micro);
  w.put_gamma(spec.param);
  w.put_gamma(spec.tenant.size());
  for (const char c : spec.tenant) w.put_bits(static_cast<std::uint8_t>(c), 8);
  EXPECT_EQ(encode_spec(spec), w.bytes());
}

TEST(ServiceSpec, AffinityRoundTripsThroughTheV2Wire) {
  SessionSpec spec = small_spec(10, "acme");
  spec.shard_affinity = 3;
  EXPECT_EQ(decode_spec(encode_spec(spec)), spec);
  spec.shard_affinity = UINT32_MAX;
  EXPECT_EQ(decode_spec(encode_spec(spec)), spec);
}

/// Canonicality: one value, one byte string. A v2 encoding carrying
/// affinity 0 (which should have been v1) is rejected, so nobody can mint
/// two distinct byte strings for the same spec.
TEST(ServiceSpec, RejectsNonCanonicalV2WithZeroAffinity) {
  const SessionSpec spec;  // all defaults, affinity 0
  BitWriter w;
  w.put_gamma(2);  // v2 tag on a spec that must encode as v1
  w.put_gamma(static_cast<std::uint64_t>(spec.protocol));
  w.put_gamma(static_cast<std::uint64_t>(spec.family));
  w.put_gamma(spec.n);
  w.put_gamma(spec.k);
  w.put_bits(spec.seed, 64);
  w.put_gamma(spec.eps_micro);
  w.put_gamma(spec.param);
  w.put_gamma(0);  // empty tenant
  w.put_gamma(0);  // the non-canonical zero affinity
  try {
    (void)decode_spec(w.bytes());
    FAIL() << "a v2 spec with affinity 0 must be rejected as non-canonical";
  } catch (const NetError& e) {
    EXPECT_EQ(e.kind(), NetErrorKind::kCorrupt);
  }
}

// ---- client retry -----------------------------------------------------------

/// request_with_retry against a capacity-1 daemon: while a held occupant
/// keeps the only admission slot, a zero-budget call surfaces the typed
/// kBusy reply (the exit-2 path); once the hold is released, a budgeted
/// call outlasts the busy window and lands a real verdict.
TEST(ServiceDaemonTest, RetryOutlastsABusyWindow) {
  if (!net::LoopbackSocketTransport::available()) {
    GTEST_SKIP() << "no loopback networking in this environment";
  }
  ServiceDaemon daemon(inproc_config(/*live=*/1, /*pending=*/1));
  WorkerGate gate;
  daemon.coordinator().set_before_execute([&](const SessionSpec& spec) {
    if (spec.seed == 31) gate.hold();
  });

  ServiceReply occupant_reply;
  std::thread occupant([&] { occupant_reply = request(daemon.port(), small_spec(31)); });
  gate.wait_entered();

  // retries=0 is a plain request: the busy window is observable, typed.
  const ServiceReply busy = request_with_retry(daemon.port(), small_spec(32), 0, 1);
  EXPECT_EQ(busy.status, ReplyStatus::kBusy);
  EXPECT_FALSE(busy.error.empty()) << "a busy reply should say what was full";
  gate.open();

  // A budgeted retry converges once the occupant completes.
  const ServiceReply ok = request_with_retry(daemon.port(), small_spec(33), 400, 5);
  EXPECT_NE(ok.status, ReplyStatus::kBusy) << ok.error;
  EXPECT_NE(ok.status, ReplyStatus::kError) << ok.error;
  EXPECT_TRUE(ok.accounting_exact);

  occupant.join();
  EXPECT_NE(occupant_reply.status, ReplyStatus::kBusy) << occupant_reply.error;
  EXPECT_NE(occupant_reply.status, ReplyStatus::kError) << occupant_reply.error;
}

/// A loopback server speaking the daemon's blob framing
/// (`[u32 LE len] [bytes] [u32 LE crc32(bytes)]`) that answers its first
/// `busy` requests with kBusy and every later one with a verdict.
class ScriptedBusyServer {
 public:
  explicit ScriptedBusyServer(std::size_t busy) : busy_(busy) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (listen_fd_ < 0 || ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len) < 0 ||
        ::listen(listen_fd_, 8) < 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
      if (listen_fd_ >= 0) (void)::close(listen_fd_);
      throw std::runtime_error("scripted server: cannot listen on loopback");
    }
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { serve(); });
  }
  ScriptedBusyServer(const ScriptedBusyServer&) = delete;
  ScriptedBusyServer& operator=(const ScriptedBusyServer&) = delete;
  ~ScriptedBusyServer() {
    (void)::shutdown(listen_fd_, SHUT_RDWR);  // fails a blocked accept(2)
    thread_.join();
    (void)::close(listen_fd_);
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] std::size_t requests() const { return requests_.load(); }

 private:
  static bool read_exact(int fd, std::uint8_t* data, std::size_t len) {
    while (len > 0) {
      const ssize_t n = ::read(fd, data, len);
      if (n <= 0) return false;
      data += n;
      len -= static_cast<std::size_t>(n);
    }
    return true;
  }

  static std::uint32_t le32(const std::uint8_t* p) {
    return p[0] | (p[1] << 8) | (p[2] << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
  }

  static void put_le32(std::vector<std::uint8_t>& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void serve() {
    while (true) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      std::uint8_t prefix[4];
      std::vector<std::uint8_t> spec;
      std::uint8_t trailer[4];
      if (read_exact(fd, prefix, 4)) {
        spec.resize(le32(prefix));
        if (read_exact(fd, spec.data(), spec.size()) && read_exact(fd, trailer, 4) &&
            le32(trailer) == net::crc32(spec)) {
          (void)decode_spec(spec);
          ServiceReply reply;
          if (requests_.fetch_add(1) < busy_) {
            reply.status = ReplyStatus::kBusy;
            reply.error = "scripted busy";
          } else {
            reply.status = ReplyStatus::kTriangleFree;
            reply.accounting_exact = true;
          }
          const std::vector<std::uint8_t> body = encode_reply(reply);
          std::vector<std::uint8_t> out;
          put_le32(out, static_cast<std::uint32_t>(body.size()));
          out.insert(out.end(), body.begin(), body.end());
          put_le32(out, net::crc32(body));
          (void)::write(fd, out.data(), out.size());
        }
      }
      (void)::close(fd);
    }
  }

  std::size_t busy_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<std::size_t> requests_{0};
  std::thread thread_;
};

/// request_with_retry converges on the first non-busy reply, after exactly
/// as many re-requests as the server said busy; a budget too small for the
/// busy run hands back the last kBusy reply.
TEST(ServiceClientTest, RetryConvergesAfterAFixedBusyRun) {
  if (!net::LoopbackSocketTransport::available()) {
    GTEST_SKIP() << "no loopback networking in this environment";
  }
  {
    ScriptedBusyServer server(/*busy=*/3);
    const ServiceReply ok = request_with_retry(server.port(), small_spec(1), 10, 1);
    EXPECT_EQ(ok.status, ReplyStatus::kTriangleFree) << ok.error;
    EXPECT_TRUE(ok.accounting_exact);
    EXPECT_EQ(server.requests(), 4u);
  }
  {
    ScriptedBusyServer server(/*busy=*/5);
    const ServiceReply busy = request_with_retry(server.port(), small_spec(2), 2, 1);
    EXPECT_EQ(busy.status, ReplyStatus::kBusy);
    EXPECT_EQ(busy.error, "scripted busy");
    EXPECT_EQ(server.requests(), 3u);
  }
}

}  // namespace
}  // namespace tft::service

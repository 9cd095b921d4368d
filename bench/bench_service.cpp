// Experiment E-SERVICE: multi-session service throughput. A
// ServiceCoordinator multiplexes S concurrent testing sessions over ONE
// shared transport and a sharded servicer (N poller threads); the
// closed-loop load generator keeps exactly S sessions in flight and
// reports sessions/sec plus p50/p99/p999 session latency as S sweeps
// toward saturation. The S=1 row also runs the same workload on a bare
// NetSession (no coordinator, no scheduler, no session table) and reports
// the service/bare wall-clock ratio — the acceptance bound is 1.15x.
//
// Sections (E-SERVICE-SHARD rides on the same binary):
//   --sweep=1       (default) the single-shard S sweep, rows "sweep"
//   --shard_rows=1  shard scaling N in {1,2,4} x S in {1..16}, rows
//                   "shard_sweep", plus a "shard_identity" A/B row: the
//                   same fleet at N=1 and N=4 must produce per-session
//                   outcomes that match field for field (`match`=1).
//   --contention_rows=1
//                   charge contention on one shard, rows "charge_contention"
//                   for 1 and 4 driving threads: chatty-shaped sessions
//                   (k = 4, 3700 charges of 1-4 bits over 10 phases, crash
//                   tolerance on, in-proc, real clock) charged straight into
//                   a SharedServicer, with the process CPU per charge.
//
// Determinism: each session's spec is a pure function of its (worker, iter)
// slot, every session runs fault-free under the virtual clock, and the
// summed charged/payload/wire totals are order-fixed sums over independent
// sessions — so the structured rows are byte-stable in BENCH_baseline.json
// (wall-clock fields are TIME_KEY-stripped by check_baseline.py as usual).
// Latency quantiles come from a preallocated log-bucket histogram
// (bench_common.h) — no allocation on the submit/collect hot path.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "comm/channel.h"
#include "comm/conformance.h"
#include "net/executed.h"
#include "net/runtime.h"
#include "net/servicer.h"
#include "net/transport.h"
#include "runner.h"
#include "service/coordinator.h"
#include "util/flags.h"
#include "util/rng.h"

using namespace tft;
using Clock = std::chrono::steady_clock;

namespace {

service::SessionSpec slot_spec(std::uint32_t n, std::uint32_t k, std::uint64_t slot) {
  service::SessionSpec spec;
  spec.family = service::InstanceFamily::kPlanted;
  spec.n = n;
  spec.k = k;
  spec.seed = 1000 + slot;
  return spec;
}

struct LoadResult {
  std::uint64_t sessions = 0;
  std::uint64_t charged_bits = 0;
  std::uint64_t payload_bits = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t frames = 0;
  bool all_exact = true;
  double seconds = 0.0;
  bench::LatencyHistogram latency;
  /// Per-session (charged_bits, payload_bits, wire_bytes, frames) in
  /// submission order — the shard_identity row compares these across shard
  /// counts session by session, so compensating drifts can't hide in sums.
  std::vector<std::array<std::uint64_t, 4>> per_session;
};

/// Saturating load: a bounded submission ring of depth S+1 against a pool
/// of S workers, so S sessions always execute while the one extra admitted
/// spec hides the submit/collect thread hops. Latency is submit-to-reply at
/// that saturation depth.
LoadResult drive_service(service::ServiceCoordinator& coordinator, std::size_t inflight,
                         std::size_t total_sessions, std::uint32_t n, std::uint32_t k) {
  LoadResult total;
  const std::size_t depth = inflight + 1;
  std::vector<std::future<service::SessionOutcome>> futures(total_sessions);
  std::vector<Clock::time_point> submitted(total_sessions);
  std::vector<service::SessionOutcome> outcomes(total_sessions);
  const auto t0 = Clock::now();
  for (std::size_t step = 0; step < total_sessions + depth; ++step) {
    if (step >= depth) {
      const std::size_t i = step - depth;
      outcomes[i] = futures[i].get();
      total.latency.record(std::chrono::duration<double>(Clock::now() - submitted[i]).count());
    }
    if (step < total_sessions) {
      submitted[step] = Clock::now();
      futures[step] = coordinator.submit(slot_spec(n, k, step));
    }
  }
  total.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  // Aggregate in submission order: the sums are order-fixed regardless of
  // how the scheduler interleaved the sessions.
  total.per_session.reserve(outcomes.size());
  for (const auto& out : outcomes) {
    ++total.sessions;
    total.charged_bits += out.charged_bits;
    total.payload_bits += out.wire.payload_bits();
    total.wire_bytes += out.wire.wire_bytes;
    total.frames += out.wire.frames_delivered;
    total.all_exact = total.all_exact && out.accounting_exact && out.conformance_ok &&
                      out.status != service::ReplyStatus::kError;
    total.per_session.push_back(
        {out.charged_bits, out.wire.payload_bits(), out.wire.wire_bytes,
         out.wire.frames_delivered});
  }
  return total;
}

/// The same workload with no service in the way: one bare NetSession per
/// spec, sequential (a bare session IS the S=1 configuration). Runs the
/// identical per-session contract — instance build, executed run, exact
/// accounting, conformance referee — so the ratio isolates pure service
/// overhead (scheduler, worker hop, session table).
double drive_bare(std::size_t iters, std::uint32_t n, std::uint32_t k, const net::NetConfig& cfg) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    const service::SessionSpec spec = slot_spec(n, k, i);
    const auto players = service::build_players(spec);
    TranscriptCapture capture;
    net::NetSession session(k, cfg);
    {
      const ChannelSinkScope scope(&session);
      (void)test_triangle_freeness(players, service::tester_options(spec));
    }
    const net::WireStats wire = session.finish();
    net::ChargedTotals charged(k);
    for (const auto& run : capture.runs()) charged.add(run.transcript);
    net::verify_accounting(charged, wire);
    for (const auto& run : capture.runs()) {
      if (auto r = check_conformance(run.model, run.transcript); !r.ok()) {
        throw ConformanceError(std::move(r));
      }
    }
  }
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

LoadResult run_config(std::size_t shards, std::size_t inflight, std::size_t sessions,
                      std::uint32_t n, std::uint32_t k, const net::NetConfig& net_cfg) {
  service::ServiceConfig cfg;
  cfg.net = net_cfg;
  cfg.net.num_shards = shards;
  cfg.max_live_sessions = inflight;
  cfg.max_pending = inflight + 1;  // the ring's depth: S running + 1 queued
  service::ServiceCoordinator coordinator(cfg);
  return drive_service(coordinator, inflight, sessions, n, k);
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The chatty session shape of the contention rows: serve_chatty's
/// unrestricted estimator sends about this many 1-4 bit messages per
/// session, over this many phase barriers. Every row charges the same
/// sessions, split evenly over its drivers.
constexpr std::size_t kContentionPlayers = 4;
constexpr std::uint64_t kContentionCharges = 3700;
constexpr std::uint64_t kContentionPhases = 10;
constexpr std::size_t kContentionSessions = 256;

struct ContentionResult {
  std::uint64_t sessions = 0;
  std::uint64_t charges = 0;
  std::uint64_t charged_bits = 0;
  std::uint64_t payload_bits = 0;
  std::uint64_t messages = 0;
  std::uint64_t frames = 0;
  bool all_exact = true;
  double cpu_seconds = 0.0;
  double seconds = 0.0;
};

/// `drivers` threads, each charging its share of kContentionSessions
/// sessions one after another into one real-clock shard. Every count but
/// the CPU and wall time is a pure function of the session slots, so both
/// rows read the same counts: a frame's contents follow from its link's
/// charge sequence, and retransmissions move no field kept here.
ContentionResult drive_contention(std::size_t drivers) {
  net::InProcTransport transport;
  net::SharedServicer servicer(net::SharedServicer::Options{});
  servicer.start();
  std::vector<ContentionResult> per_driver(drivers);
  const std::size_t share = kContentionSessions / drivers;
  const auto drive = [&](std::size_t d) {
    ContentionResult& r = per_driver[d];
    for (std::size_t i = 0; i < share; ++i) {
      const std::uint64_t slot = d * share + i;
      net::SharedServicer::SessionOptions so;
      so.num_players = kContentionPlayers;
      so.session_id = static_cast<std::uint32_t>(slot + 1);
      so.crash_tolerance = true;
      const std::size_t sidx = servicer.open_session(transport, so);
      std::uint64_t charged = 0;
      {
        net::SessionSink sink(&servicer, sidx);
        for (std::uint64_t c = 0; c < kContentionCharges; ++c) {
          const std::uint64_t bits = 1 + (fmix64(slot * kContentionCharges + c) & 3);
          const auto dir = (c / kContentionPlayers) % 2 == 0 ? Direction::kPlayerToCoordinator
                                                             : Direction::kCoordinatorToPlayer;
          sink.on_charge(c % kContentionPlayers, dir, bits,
                         c * kContentionPhases / kContentionCharges);
          charged += bits;
        }
      }
      const net::WireStats w = servicer.close_session(sidx);
      servicer.rethrow_session_error(sidx);
      ++r.sessions;
      r.charges += kContentionCharges;
      r.charged_bits += charged;
      r.payload_bits += w.payload_bits();
      r.messages += w.messages();
      r.frames += w.frames_delivered;
      r.all_exact = r.all_exact && w.payload_bits() == charged &&
                    w.messages() == kContentionCharges;
    }
  };
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(drivers);
  for (std::size_t d = 0; d < drivers; ++d) threads.emplace_back(drive, d);
  for (auto& t : threads) t.join();
  ContentionResult total;
  total.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  total.cpu_seconds = process_cpu_seconds() - cpu0;
  servicer.finish();
  servicer.rethrow_error();
  for (const ContentionResult& r : per_driver) {
    total.sessions += r.sessions;
    total.charges += r.charges;
    total.charged_bits += r.charged_bits;
    total.payload_bits += r.payload_bits;
    total.messages += r.messages;
    total.frames += r.frames;
    total.all_exact = total.all_exact && r.all_exact;
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::configure_threads(flags);
  const auto n = static_cast<std::uint32_t>(flags.get_int("n", 600));
  const auto k = static_cast<std::uint32_t>(flags.get_int("k", 4));
  const auto iters = static_cast<std::size_t>(flags.get_int("iters", 4));
  const bool vclock = flags.get_bool("vclock", true);
  const bool sweep = flags.get_bool("sweep", true);
  const bool shard_rows = flags.get_bool("shard_rows", false);
  const bool contention_rows = flags.get_bool("contention_rows", false);
  bench::JsonRows json(flags, "bench_service");

  bench::header("E-SERVICE bench_service",
                "S concurrent sessions over one shared servicer: per-session "
                "accounting stays exact at every S, and S=1 service throughput "
                "is within 1.15x of a bare NetSession");

  net::NetConfig net_cfg;
  net_cfg.transport = net::TransportKind::kInProc;
  net_cfg.virtual_clock = vclock;

  if (sweep) {
    const double bare_secs = drive_bare(iters, n, k, net_cfg);
    const double bare_rate = static_cast<double>(iters) / bare_secs;
    std::printf("\nbare NetSession reference: %zu sessions, %.3f/s\n", iters, bare_rate);

    std::printf("\n-- service sweep (k=%u, n=%u, %zu sessions per worker) --\n", k, n, iters);
    for (const std::size_t inflight : {1u, 2u, 4u, 8u, 16u}) {
      const LoadResult r = run_config(1, inflight, inflight * iters, n, k, net_cfg);
      const double rate = static_cast<double>(r.sessions) / r.seconds;
      const double p50 = r.latency.quantile(0.50);
      const double p99 = r.latency.quantile(0.99);
      const double p999 = r.latency.quantile(0.999);
      const double over_bare = bare_rate / rate;  // S=1: the 1.15x acceptance ratio
      bench::row({{"inflight", static_cast<double>(inflight)},
                  {"sessions", static_cast<double>(r.sessions)},
                  {"sessions_per_s", rate},
                  {"p50_latency_s", p50},
                  {"p99_latency_s", p99},
                  {"p999_latency_s", p999},
                  {"all_exact", r.all_exact ? 1.0 : 0.0}});
      if (inflight == 1) {
        std::printf("     S=1 service/bare time ratio: %.3fx (bound 1.15x)\n", over_bare);
      }
      json.row("sweep", {{"k", static_cast<std::uint64_t>(k)},
                         {"n", static_cast<std::uint64_t>(n)},
                         {"inflight", static_cast<std::uint64_t>(inflight)},
                         {"sessions", r.sessions},
                         {"charged_bits", r.charged_bits},
                         {"payload_bits", r.payload_bits},
                         {"wire_bytes", r.wire_bytes},
                         {"frames", r.frames},
                         {"all_exact", static_cast<std::uint64_t>(r.all_exact ? 1 : 0)},
                         {"sessions_per_s", rate},
                         {"p50_latency_s", p50},
                         {"p99_latency_s", p99},
                         {"p999_latency_s", p999},
                         {"service_over_bare_time", over_bare}});
    }
  }

  if (shard_rows) {
    // E-SERVICE-SHARD: the same closed-loop load against N poller shards.
    // sessions/sec should scale with N once S saturates one poller; every
    // row re-checks exactness, and the identity rows demand the N=4 fleet's
    // per-session outcomes equal the N=1 fleet's field for field.
    std::printf("\n-- shard sweep (k=%u, n=%u, %zu sessions per worker) --\n", k, n, iters);
    double rate_at[5] = {0, 0, 0, 0, 0};  // indexed by shard count
    for (const std::size_t shards : {1u, 2u, 4u}) {
      for (const std::size_t inflight : {1u, 2u, 4u, 8u, 16u}) {
        const LoadResult r = run_config(shards, inflight, inflight * iters, n, k, net_cfg);
        const double rate = static_cast<double>(r.sessions) / r.seconds;
        if (inflight == 16) rate_at[shards] = rate;
        const double p50 = r.latency.quantile(0.50);
        const double p99 = r.latency.quantile(0.99);
        const double p999 = r.latency.quantile(0.999);
        bench::row({{"shards", static_cast<double>(shards)},
                    {"inflight", static_cast<double>(inflight)},
                    {"sessions", static_cast<double>(r.sessions)},
                    {"sessions_per_s", rate},
                    {"p50_latency_s", p50},
                    {"p99_latency_s", p99},
                    {"p999_latency_s", p999},
                    {"all_exact", r.all_exact ? 1.0 : 0.0}});
        json.row("shard_sweep", {{"k", static_cast<std::uint64_t>(k)},
                                 {"n", static_cast<std::uint64_t>(n)},
                                 {"shards", static_cast<std::uint64_t>(shards)},
                                 {"inflight", static_cast<std::uint64_t>(inflight)},
                                 {"sessions", r.sessions},
                                 {"charged_bits", r.charged_bits},
                                 {"payload_bits", r.payload_bits},
                                 {"wire_bytes", r.wire_bytes},
                                 {"frames", r.frames},
                                 {"all_exact", static_cast<std::uint64_t>(r.all_exact ? 1 : 0)},
                                 {"sessions_per_s", rate},
                                 {"p50_latency_s", p50},
                                 {"p99_latency_s", p99},
                                 {"p999_latency_s", p999}});
      }
    }
    if (rate_at[1] > 0.0) {
      std::printf("     N=1 -> 4 speedup at S=16: %.2fx\n", rate_at[4] / rate_at[1]);
    }

    // The A/B identity row: one fleet, two shard counts, per-session
    // outcomes compared field for field. TIME_KEY stripping leaves every
    // field below, so a baseline diff would flag any drift too.
    const std::size_t id_sessions = 4 * iters;
    const LoadResult one = run_config(1, 4, id_sessions, n, k, net_cfg);
    const LoadResult four = run_config(4, 4, id_sessions, n, k, net_cfg);
    bool match = one.per_session.size() == four.per_session.size() && one.all_exact &&
                 four.all_exact;
    for (std::size_t s = 0; match && s < one.per_session.size(); ++s) {
      match = one.per_session[s] == four.per_session[s];
    }
    std::printf("     shard identity (N=1 vs N=4, %zu sessions): %s\n", id_sessions,
                match ? "bit-identical" : "MISMATCH");
    json.row("shard_identity", {{"k", static_cast<std::uint64_t>(k)},
                                {"n", static_cast<std::uint64_t>(n)},
                                {"sessions", one.sessions},
                                {"charged_bits", one.charged_bits},
                                {"payload_bits", one.payload_bits},
                                {"wire_bytes", one.wire_bytes},
                                {"frames", one.frames},
                                {"all_exact", static_cast<std::uint64_t>(
                                                  (one.all_exact && four.all_exact) ? 1 : 0)},
                                {"match", static_cast<std::uint64_t>(match ? 1 : 0)}});
    if (!match) return 1;  // the determinism contract is the bench's point
  }

  if (contention_rows) {
    // E-SERVICE-CONTENTION: what driving threads pay for sharing one shard.
    // A charge that only grows an open batch takes no lock, so 4 drivers
    // should use little more CPU per charge than one.
    std::printf("\n-- charge contention (1 shard, k=%zu, %llu charges over %llu phases) --\n",
                kContentionPlayers, static_cast<unsigned long long>(kContentionCharges),
                static_cast<unsigned long long>(kContentionPhases));
    double one_driver_us = 0.0;
    bool all_exact = true;
    for (const std::size_t drivers : {1u, 4u}) {
      const ContentionResult r = drive_contention(drivers);
      const double us_per_charge = r.cpu_seconds * 1e6 / static_cast<double>(r.charges);
      const double rate = static_cast<double>(r.sessions) / r.seconds;
      if (drivers == 1) one_driver_us = us_per_charge;
      const double ratio = one_driver_us > 0.0 ? us_per_charge / one_driver_us : 0.0;
      all_exact = all_exact && r.all_exact;
      bench::row({{"drivers", static_cast<double>(drivers)},
                  {"sessions", static_cast<double>(r.sessions)},
                  {"cpu_us_per_charge", us_per_charge},
                  {"vs_one_driver", ratio},
                  {"sessions_per_s", rate},
                  {"all_exact", r.all_exact ? 1.0 : 0.0}});
      json.row("charge_contention",
               {{"k", static_cast<std::uint64_t>(kContentionPlayers)},
                {"shards", std::uint64_t{1}},
                {"drivers", static_cast<std::uint64_t>(drivers)},
                {"sessions", r.sessions},
                {"charges", r.charges},
                {"charged_bits", r.charged_bits},
                {"payload_bits", r.payload_bits},
                {"messages", r.messages},
                {"frames", r.frames},
                {"all_exact", static_cast<std::uint64_t>(r.all_exact ? 1 : 0)},
                {"cpu_time_us_per_charge", us_per_charge},
                {"cpu_time_vs_one_driver", ratio},
                {"sessions_per_s", rate}});
    }
    if (!all_exact) return 1;  // wire bits must equal charged bits, as in every row
  }
  return 0;
}

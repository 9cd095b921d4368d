#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "checks.h"
#include "comm/conformance.h"
#include "core/tester.h"
#include "graph/triangles.h"
#include "lower_bounds/mu_distribution.h"
#include "measure.h"
#include "net/runtime.h"
#include "net/servicer.h"
#include "service/daemon.h"
#include "util/arena.h"
#include "util/mem.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using tft::service::ReplyStatus;
using tft::service::ServiceReply;
using tft::service::SessionSpec;

/// How a serve workload loads the daemon.
struct ServeShape {
  std::size_t clients = 1;
  std::size_t shapes = 1;       ///< distinct spec shapes; set-up warms each once
  std::size_t rss_ops = 0;      ///< peak_rss_mb is read when this many timed ops have replied
  std::size_t counted_ops = 0;  ///< the traced run's counts cover this many first ops
};

// serve_bulk keeps ONE session in flight: two concurrent sessions that reach
// the triangle kernels race inside ThreadPool::run_on_workers
// (util/parallel.cpp) and can crash the process. See perfbench/README.md.
// rss_ops is about a fifth of a 25 s run's ops, so a slower program still
// reaches it.
ServeShape serve_shape(const std::string& workload) {
  if (workload == "serve_chatty") return {4, 1, 1000, 64};
  return {1, 2, 32, 16};
}

// Every workload reports p90 as latency_tail_ms. serve_chatty's ~5k samples
// would allow p99, but its p99 follows hypervisor steal (quartile spread over
// ten seeds 0.33-0.38 on a contended host, 0.10 on a quiet one), wider than
// any bound the benchmark may set.
constexpr double kTailQ = 0.9;

// sweep_far: op i is one mu_farness_stats point at seed base + i.
constexpr tft::Vertex kSweepSide = 1000;
constexpr double kSweepGamma = 0.9;
constexpr std::size_t kSweepTrials = 8;
constexpr double kSweepCoefficient = 1.0 / 48.0;
constexpr std::size_t kSweepRssOps = 64;  ///< peak_rss_mb is read after this many timed ops
// The traced sweep spends this share of --seconds on its pooled pass; the
// serial replay of those ops then takes about four times as long.
constexpr double kSweepPooledShare = 0.2;
constexpr std::size_t kSweepTracedMinOps = 8;

/// The seed of every warm-up input, whatever the workload seed.
constexpr std::uint64_t kWarmupSeed = 0xC0FFEE;

// Set-up is repeated in two batches, one before and one after the timed
// phase, so that its median does not hang on the host's state in one moment.
constexpr std::size_t kMinSetupReps = 4;  ///< per batch
constexpr std::size_t kMaxSetupReps = 20;  ///< per batch
constexpr std::int64_t kSetupBudgetNs = 750'000'000;  ///< per batch, past the minimum

/// The layer spans must account for all but this share of the root spans.
constexpr double kSelfTimeTolerance = 1e-3;

/// tft_serviced's defaults: max-live 4, max-pending 16, fifo, 1 shard,
/// in-proc links, real clock.
tft::service::ServiceConfig serviced_defaults() {
  tft::service::ServiceConfig cfg;
  cfg.net.transport = tft::net::TransportKind::kInProc;
  cfg.net.num_shards = 1;
  cfg.max_live_sessions = 4;
  cfg.max_pending = 16;
  cfg.scheduler = tft::service::SchedulerKind::kFifo;
  return cfg;
}

std::uint64_t sweep_base_seed(std::uint64_t seed) { return tft::derive_rng(seed, 0x5eed)(); }

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double peak_rss_mb() { return static_cast<double>(tft::peak_rss_kb()) / 1024.0; }

/// Runs check(i) for i in [0, n) on up to four threads and returns what each
/// reported: empty when op i passed, else why it failed (an exception counts
/// as a failure). The kernel pool is at one thread meanwhile, so concurrent
/// callers never enter ThreadPool::run_on_workers; results are thread-count
/// independent by the library's determinism contract. Each thread releases
/// its arena after every op: the arena keeps what distance_lower_bound
/// appends (see README), and every op of a run is recomputed.
template <typename Check>
std::vector<std::string> check_all(std::size_t n, Check&& check) {
  tft::set_default_threads(1);
  (void)tft::ThreadPool::global();
  std::vector<std::string> why(n);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  const std::size_t width = std::min<std::size_t>(4, std::max(1, tft::hardware_threads()));
  for (std::size_t t = 0; t < width; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) {
        try {
          why[i] = check(i);
        } catch (const std::exception& e) {
          why[i] = std::string("check threw: ") + e.what();
        }
        tft::thread_arena().release_all();
      }
    });
  }
  for (auto& t : threads) t.join();
  tft::set_default_threads(0);
  (void)tft::ThreadPool::global();
  return why;
}

struct HostReading {
  double probe_ms = 0.0;
  CpuTicks ticks;
};

HostReading host_before() { return {probe_loop_ms(), read_cpu_ticks()}; }

void log_host(RunResult& res, const HostReading& before) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "host: steal_share=%.4f probe_ms=%.2f (diagnostic, not a metric)",
                steal_share(before.ticks, read_cpu_ticks()), before.probe_ms);
  res.log.emplace_back(buf);
}

void add(RunResult& res, const std::string& name, double value, const std::string& unit) {
  res.metrics.push_back({name, value, unit});
}

/// What a timed phase measured: every op's latency, and the phase's wall
/// and CPU time.
struct TimedPhase {
  std::vector<double> latency_ms;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;  ///< the process high-water mark after a fixed number of ops
};

/// Appends the durations (s) of repeated set-ups: at least kMinSetupReps,
/// more while the batch is under kSetupBudgetNs, at most kMaxSetupReps.
/// `tear_down` runs untimed before each `set_up`; the batch ends set up.
template <typename TearDown, typename SetUp>
void repeat_setup(std::vector<double>& setup_s, TearDown&& tear_down, SetUp&& set_up) {
  const std::int64_t begin = now_ns();
  for (std::size_t r = 0;
       r < kMaxSetupReps && (r < kMinSetupReps || now_ns() - begin < kSetupBudgetNs); ++r) {
    tear_down();
    const std::int64_t t0 = now_ns();
    set_up();
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
}

/// peak_rss_mb covers the same work on every commit: the high-water mark
/// once `rss_ops` timed ops have finished. A run too short to get there
/// reports the mark at its end instead.
void finish_rss(RunResult& res, TimedPhase& ph, std::size_t rss_ops) {
  if (ph.latency_ms.size() >= rss_ops) return;
  ph.peak_rss_mb = peak_rss_mb();
  res.log.push_back("warning: only " + std::to_string(ph.latency_ms.size()) + " of the " +
                    std::to_string(rss_ops) +
                    " ops peak_rss_mb is read after finished; this run's peak is not comparable");
}

/// The end-to-end metrics every timed run reports.
void add_end_to_end(RunResult& res, const std::vector<double>& setup_s, const TimedPhase& ph) {
  const std::vector<double>& lat = ph.latency_ms;
  const auto ops = static_cast<double>(lat.size());
  const std::size_t beyond = samples_beyond(lat.size(), kTailQ);
  res.log.push_back("ops=" + std::to_string(lat.size()) + " tail=" + quantile_name(kTailQ) +
                    " samples_beyond=" + std::to_string(beyond) +
                    " setup_reps=" + std::to_string(setup_s.size()));
  if (select_tail_quantile(lat.size()) < kTailQ) {
    res.log.push_back("warning: fewer than 10 samples lie beyond " + quantile_name(kTailQ) +
                      "; this run's tail is not comparable");
  }
  add(res, "setup_s", median(setup_s), "s");
  add(res, "ops_per_s", ops / ph.wall_s, "1/s");
  add(res, "latency_p50_ms", percentile(lat, 0.5), "ms");
  add(res, "latency_tail_ms", percentile(lat, kTailQ), "ms");
  add(res, "cpu_ms_per_op", ph.cpu_s * 1e3 / ops, "ms");
  add(res, "peak_rss_mb", ph.peak_rss_mb, "MB");
  add(res, "ok_share",
      res.attempted == 0
          ? 0.0
          : static_cast<double>(res.attempted - res.failed) / static_cast<double>(res.attempted),
      "ratio");
}

void note_failure(RunResult& res, const std::string& what) {
  ++res.failed;
  if (res.failed <= 5) res.log.push_back("check failed: " + what);
}

// ---- serve: timed ---------------------------------------------------------

struct OpRecord {
  std::size_t index = 0;  ///< the op's spec is op_spec(workload, seed, index)
  double latency_ms = 0.0;
  std::optional<ServiceReply> reply;
  std::string error;  ///< set when request() threw
};

RunResult timed_serve(const RunArgs& a) {
  const ServeShape shape = serve_shape(a.workload);
  std::vector<SessionSpec> warmups;
  for (std::size_t s = 0; s < shape.shapes; ++s) warmups.push_back(warmup_spec(a.workload, s));
  RunResult res;
  const HostReading host = host_before();

  // Set-up: daemon construction until one warm-up session of each spec
  // shape has replied. The last daemon of the first batch serves the timed
  // phase; teardown is never timed.
  std::vector<double> setup_s;
  std::unique_ptr<tft::service::ServiceDaemon> daemon;
  const auto set_up = [&] {
    daemon = std::make_unique<tft::service::ServiceDaemon>(serviced_defaults());
    for (const SessionSpec& w : warmups) {
      const ServiceReply r = tft::service::request(daemon->port(), w);
      if (r.status == ReplyStatus::kBusy || r.status == ReplyStatus::kError) {
        res.correct = false;
        res.log.push_back("warm-up session failed: " + r.error);
      }
    }
  };
  const auto tear_down = [&] { daemon.reset(); };
  repeat_setup(setup_s, tear_down, set_up);

  // Timed phase: closed loop, each client sends its next request only after
  // its previous reply. Op i sends op_spec(workload, seed, i).
  const std::uint16_t port = daemon->port();
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> replied{0};
  TimedPhase ph;
  std::vector<std::vector<OpRecord>> records(shape.clients);
  std::vector<std::int64_t> last_reply(shape.clients, 0);
  const double cpu0 = process_cpu_s();
  const std::int64_t start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(a.seconds * 1e9);
  {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < shape.clients; ++c) {
      clients.emplace_back([&, c] {
        while (now_ns() < deadline) {
          OpRecord r;
          r.index = next++;
          const SessionSpec spec = op_spec(a.workload, a.seed, r.index);
          const std::int64_t t0 = now_ns();
          try {
            r.reply = tft::service::request(port, spec);
          } catch (const std::exception& e) {
            r.error = e.what();
          }
          const std::int64_t t1 = now_ns();
          // Exactly one client sees the count reach rss_ops; the joins below
          // publish its write.
          if (++replied == shape.rss_ops) ph.peak_rss_mb = peak_rss_mb();
          r.latency_ms = ms(t1 - t0);
          records[c].push_back(std::move(r));
          last_reply[c] = t1;
        }
      });
    }
    for (auto& t : clients) t.join();
  }
  ph.wall_s =
      static_cast<double>(*std::max_element(last_reply.begin(), last_reply.end()) - start) / 1e9;
  ph.cpu_s = process_cpu_s() - cpu0;
  log_host(res, host);
  repeat_setup(setup_s, tear_down, set_up);
  daemon.reset();

  // Output checks, outside the timed phase: every reply against the
  // simulated run of its spec and against the spec's instance.
  std::vector<const OpRecord*> ops;
  std::vector<std::vector<double>> by_shape(shape.shapes);
  for (const auto& client : records) {
    for (const OpRecord& r : client) {
      ops.push_back(&r);
      by_shape[r.index % shape.shapes].push_back(r.latency_ms);
      ph.latency_ms.push_back(r.latency_ms);
    }
  }
  finish_rss(res, ph, shape.rss_ops);
  res.attempted = ops.size();
  const std::vector<std::string> failures = check_all(ops.size(), [&](std::size_t j) {
    const OpRecord& r = *ops[j];
    if (!r.reply) return r.error;
    const SessionSpec spec = op_spec(a.workload, a.seed, r.index);
    const auto players = tft::service::build_players(spec);
    return check_reply(*r.reply, simulate(spec, players), players);
  });
  for (std::size_t j = 0; j < ops.size(); ++j) {
    if (!failures[j].empty()) {
      note_failure(res, "op " + std::to_string(ops[j]->index) + ": " + failures[j]);
    }
  }
  if (shape.shapes > 1) {
    for (std::size_t s = 0; s < shape.shapes; ++s) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "latency of %s sessions: p50=%.3f ms p90=%.3f ms (n=%zu)",
                    tft::to_string(warmups[s].protocol), percentile(by_shape[s], 0.5),
                    percentile(by_shape[s], 0.9), by_shape[s].size());
      res.log.emplace_back(buf);
    }
  }
  add_end_to_end(res, setup_s, ph);
  return res;
}

// ---- traced runs ------------------------------------------------------------

/// What the traced ops count besides span times. The counts cover the first
/// counted ops only, so that they are exact functions of the seed whatever
/// the run's length.
struct LayerTotals {
  std::size_t ops = 0;
  std::size_t counted_ops = 0;
  tft::net::WireStats wire;
  std::uint64_t events = 0;
  std::uint64_t charged_bits = 0;
  // process counters across the span on the timed path (service.request /
  // the pooled sweep call)
  std::uint64_t ctx_switches = 0;
  std::vector<double> rss_deltas_kb;
};

/// Reads the process counters before the span on the timed path and adds
/// their growth across it afterwards. Both readings sit outside every span:
/// getrusage walks every thread of the process, which the daemon's unjoined
/// handler threads make slow.
class ProcessCounters {
 public:
  explicit ProcessCounters(LayerTotals& t)
      : t_(t), ctx0_(process_ctx_switches()), rss0_(tft::current_rss_kb()) {}
  ~ProcessCounters() {
    t_.ctx_switches += process_ctx_switches() - ctx0_;
    t_.rss_deltas_kb.push_back(static_cast<double>(tft::current_rss_kb()) -
                               static_cast<double>(rss0_));
  }
  ProcessCounters(const ProcessCounters&) = delete;
  ProcessCounters& operator=(const ProcessCounters&) = delete;

 private:
  LayerTotals& t_;
  std::uint64_t ctx0_;
  std::uint64_t rss0_;
};

/// Adds the counts the per-layer metrics read from one session's stats.
void fold_wire(tft::net::WireStats& acc, const tft::net::WireStats& w) {
  const auto fold = [](std::vector<std::uint64_t>& into, const std::vector<std::uint64_t>& from) {
    if (into.size() < from.size()) into.resize(from.size());
    for (std::size_t i = 0; i < from.size(); ++i) into[i] += from[i];
  };
  fold(acc.up_msgs, w.up_msgs);
  fold(acc.down_msgs, w.down_msgs);
  acc.wire_bytes += w.wire_bytes;
  acc.retransmissions += w.retransmissions;
  acc.acks += w.acks;
  acc.frames_delivered += w.frames_delivered;
}

/// Referee switch off for one scope (the simulated core.protocol span).
struct RefereeOff {
  RefereeOff() { tft::set_conformance_checking(false); }
  ~RefereeOff() { tft::set_conformance_checking(true); }
  RefereeOff(const RefereeOff&) = delete;
  RefereeOff& operator=(const RefereeOff&) = delete;
};

/// Where a traced serve op runs: the daemon for its request, and a servicer
/// of its own, configured the way ServiceCoordinator configures the
/// daemon's, for the executed replay.
struct ServeTarget {
  std::uint16_t port = 0;
  tft::net::SharedServicer* servicer = nullptr;
  tft::net::Transport* transport = nullptr;
  bool crash_tolerance = false;
};

/// One op in two roots, one span per layer call:
///   request root:
///     service.request     the real round trip through the daemon
///   replay root, the same op through each layer's public entry point:
///     service.codec       spec + reply encode/decode
///     graph.build_players instance generation and partition
///     core.protocol       the protocol in simulated mode, referee off
///     net.session         open_session + the protocol executed over the
///                         servicer, as a daemon worker runs it (referee on)
///     net.finish          close_session
///     net.accounting      verify_accounting
///     comm.referee        the post-session conformance replay
/// Checks and counting run after the roots, so that only layer calls lie
/// inside them.
std::string trace_serve_op(Tracer& tr, std::uint64_t op, const SessionSpec& spec,
                           const ServeTarget& at, bool count, LayerTotals& t) {
  ServiceReply reply;
  {
    const ProcessCounters counters(t);
    const ScopedSpan root(tr, "op", op, -1);
    const ScopedSpan s(tr, "service.request", op, root.index());
    reply = tft::service::request(at.port, spec);
  }

  SessionSpec decoded;
  ServiceReply reply_rt;
  std::vector<tft::PlayerInput> players;
  Expected want;
  tft::net::SharedServicer::SessionOptions so;
  so.num_players = spec.k;
  so.session_id = static_cast<std::uint32_t>(op + 1);
  so.seed = spec.seed;
  so.crash_tolerance = at.crash_tolerance;
  std::optional<tft::TranscriptCapture> capture;  // outlives the root: its teardown is not a layer
  std::size_t sidx = 0;
  tft::TestReport executed;
  tft::net::WireStats wire;
  bool conforming = true;
  {
    const ScopedSpan root(tr, "op", op, -1);
    const int parent = root.index();
    {
      const ScopedSpan s(tr, "service.codec", op, parent);
      decoded = tft::service::decode_spec(tft::service::encode_spec(spec));
      reply_rt = tft::service::decode_reply(tft::service::encode_reply(reply));
    }
    {
      const ScopedSpan s(tr, "graph.build_players", op, parent);
      players = tft::service::build_players(decoded);
    }
    {
      const ScopedSpan s(tr, "core.protocol", op, parent);
      const RefereeOff off;
      want = simulate(spec, players);
    }
    // Capture from here on only: an active capture records events even
    // with the referee off, which would change core.protocol.
    capture.emplace();
    {
      const ScopedSpan s(tr, "net.session", op, parent);
      sidx = at.servicer->open_session(*at.transport, so);
      try {
        tft::net::SessionSink sink(at.servicer, sidx);
        const tft::ChannelSinkScope scope(&sink);
        executed = tft::test_triangle_freeness(players, tft::service::tester_options(spec));
      } catch (...) {
        (void)at.servicer->close_session(sidx);  // release the links on every path
        throw;
      }
    }
    {
      const ScopedSpan s(tr, "net.finish", op, parent);
      wire = at.servicer->close_session(sidx);
      at.servicer->rethrow_session_error(sidx);
    }
    {
      const ScopedSpan s(tr, "net.accounting", op, parent);
      tft::net::ChargedTotals charged(spec.k);
      for (const auto& run : capture->runs()) charged.add(run.transcript);
      tft::net::verify_accounting(charged, wire);
    }
    {
      const ScopedSpan s(tr, "comm.referee", op, parent);
      for (const auto& run : capture->runs()) {
        conforming = conforming && tft::check_conformance(run.model, run.transcript).ok();
      }
    }
  }
  if (count) {
    ++t.counted_ops;
    t.charged_bits += want.charged_bits;
    fold_wire(t.wire, wire);
    for (const auto& run : capture->runs()) t.events += run.transcript.events().size();
  }

  if (!(decoded == spec) || !(reply_rt == reply)) return "codec round trip changed a value";
  if (std::string why = check_reply(reply, want, players); !why.empty()) return "reply: " + why;
  ServiceReply replayed;
  replayed.status = executed.triangle ? ReplyStatus::kTriangle : ReplyStatus::kTriangleFree;
  replayed.triangle = executed.triangle;
  replayed.charged_bits = executed.bits;
  replayed.accounting_exact = true;  // verify_accounting throws otherwise
  replayed.conformance_ok = conforming;
  if (std::string why = check_reply(replayed, want, players); !why.empty()) {
    return "executed replay: " + why;
  }
  return {};
}

void add_per_layer(RunResult& res, const LayerTotals& L, const std::vector<Span>& spans) {
  const double n = L.ops == 0 ? 1.0 : static_cast<double>(L.ops);
  const double counted = L.counted_ops == 0 ? 1.0 : static_cast<double>(L.counted_ops);
  const auto per_op_ms = [&](const char* name) { return ms(total_ns(spans, name)) / n; };
  const double request = per_op_ms("service.request");
  const double codec = per_op_ms("service.codec");
  const double protocol = per_op_ms("core.protocol");
  const double session = per_op_ms("net.session");
  const double finish = per_op_ms("net.finish");
  const double accounting = per_op_ms("net.accounting");
  const double referee = per_op_ms("comm.referee");
  const double build = per_op_ms("graph.build_players");
  const double sample_mu = per_op_ms("lower_bounds.sample_mu");
  const double packing = per_op_ms("graph.packing");
  const double pooled = per_op_ms("lower_bounds.mu_farness_stats");
  const tft::net::WireStats& w = L.wire;
  add(res, "service.overhead_ms",
      request == 0 ? 0.0 : request - (codec + build + session + finish + accounting + referee),
      "ms");
  add(res, "service.codec_us", codec * 1e3, "us");
  add(res, "graph.build_players_ms", build, "ms");
  add(res, "core.protocol_ms", protocol, "ms");
  // The executed run also replays the referee once inside the protocol
  // call (run_checked); the post-session pass costs the same, so it is
  // taken out of the wire's share.
  add(res, "net.wire_ms", session == 0 ? 0.0 : session - protocol - referee, "ms");
  add(res, "net.finish_ms", finish, "ms");
  add(res, "net.accounting_ms", accounting, "ms");
  add(res, "comm.referee_ms", referee, "ms");
  add(res, "net.messages_per_op", static_cast<double>(w.messages()) / counted, "count");
  add(res, "net.frames_per_op", static_cast<double>(w.frames_delivered) / counted, "count");
  add(res, "net.msgs_per_frame",
      w.frames_delivered == 0
          ? 0.0
          : static_cast<double>(w.messages()) / static_cast<double>(w.frames_delivered),
      "ratio");
  add(res, "net.wire_bytes_per_op", static_cast<double>(w.wire_bytes) / counted, "bytes");
  add(res, "net.acks_per_op", static_cast<double>(w.acks) / counted, "count");
  add(res, "net.retransmissions_per_op", static_cast<double>(w.retransmissions) / counted,
      "count");
  add(res, "comm.events_per_op", static_cast<double>(L.events) / counted, "count");
  add(res, "comm.charged_bits_per_op", static_cast<double>(L.charged_bits) / counted, "bits");
  add(res, "proc.ctx_switches_per_op", static_cast<double>(L.ctx_switches) / n, "count");
  add(res, "proc.rss_kb_per_op", median(L.rss_deltas_kb), "KB");
  add(res, "lower_bounds.sample_mu_ms", sample_mu, "ms");
  add(res, "graph.packing_ms", packing, "ms");
  add(res, "util.pool_speedup", pooled == 0 ? 0.0 : (sample_mu + packing) / pooled, "x");
}

/// Self-check and trace file shared by both traced workloads.
void finish_trace(RunResult& res, const RunArgs& a, const Tracer& tr) {
  const SelfCheck c = self_check(tr.spans());
  const bool ok = c.passes(kSelfTimeTolerance);
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "self-check %s: layer spans leave %.4f%% of %zu root spans uncovered "
                "(tolerance %.1f%%), %zu misshapen spans",
                ok ? "passed" : "FAILED",
                c.root_ns == 0 ? 0.0
                               : 100.0 * static_cast<double>(c.self_ns) /
                                     static_cast<double>(c.root_ns),
                c.roots, kSelfTimeTolerance * 100.0, c.misshapen);
  res.log.emplace_back(buf);
  if (!ok) res.correct = false;
  const std::string path = a.trace_dir + "/" + a.workload + ".trace.json";
  if (!write_chrome_trace(path, tr.spans())) {
    res.correct = false;
    res.log.push_back("could not write " + path);
  } else {
    res.log.push_back("trace: " + path + " (" + std::to_string(tr.spans().size()) + " spans)");
  }
}

RunResult traced_serve(const RunArgs& a) {
  const ServeShape shape = serve_shape(a.workload);
  RunResult res;
  const HostReading host = host_before();

  const tft::service::ServiceConfig cfg = serviced_defaults();
  tft::service::ServiceDaemon daemon(cfg);
  for (std::size_t s = 0; s < shape.shapes; ++s) {
    (void)tft::service::request(daemon.port(), warmup_spec(a.workload, s));
  }
  const auto transport = tft::net::make_transport(cfg.net);
  tft::net::SharedServicer::Options opts;
  opts.arq = cfg.net.arq;
  opts.retry = cfg.net.retry;
  opts.faults = cfg.net.faults;
  opts.crash_tolerance = cfg.net.crash_tolerance;
  opts.num_shards = cfg.net.num_shards;
  tft::net::SharedServicer servicer(opts);
  servicer.start();
  const ServeTarget at{daemon.port(), &servicer, transport.get(), cfg.net.crash_tolerance};

  Tracer tr;
  LayerTotals L;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(a.seconds * 1e9);
  for (std::size_t op = 0; op < shape.counted_ops || now_ns() < deadline; ++op) {
    std::string why;
    try {
      why = trace_serve_op(tr, op, op_spec(a.workload, a.seed, op), at,
                           op < shape.counted_ops, L);
    } catch (const std::exception& e) {
      why = e.what();
    }
    ++res.attempted;
    ++L.ops;
    if (!why.empty()) note_failure(res, "op " + std::to_string(op) + ": " + why);
  }
  servicer.finish();
  log_host(res, host);
  finish_trace(res, a, tr);
  add_per_layer(res, L, tr.spans());
  return res;
}

// ---- sweep ----------------------------------------------------------------

/// mu_farness_stats recomputed one trial at a time on the calling thread,
/// folded as the library folds, so the result must match the pooled call
/// bit for bit. With a tracer, each layer call gets a span under `parent`.
tft::FarnessStats serial_farness(std::uint64_t seed, Tracer* tr = nullptr, std::uint64_t op = 0,
                                 int parent = -1) {
  const auto layer = [&](const char* name, auto&& body) {
    std::optional<ScopedSpan> span;
    if (tr != nullptr) span.emplace(*tr, name, op, parent);
    return body();
  };
  tft::FarnessStats stats;
  stats.trials = kSweepTrials;
  stats.threshold = kSweepCoefficient * std::pow(kSweepGamma, 3.0) *
                    std::pow(static_cast<double>(kSweepSide), 1.5);
  for (std::size_t t = 0; t < kSweepTrials; ++t) {
    tft::Rng rng = tft::derive_rng(seed, t);
    std::optional<tft::MuInstance> mu = layer(
        "lower_bounds.sample_mu", [&] { return tft::sample_mu(kSweepSide, kSweepGamma, rng); });
    // The packing span also frees the instance, which is the trial's last step.
    const auto packing = static_cast<double>(layer("graph.packing", [&] {
      const std::uint64_t p = tft::distance_lower_bound(mu->graph, rng);
      mu.reset();
      return p;
    }));
    stats.mean_packing += packing / static_cast<double>(kSweepTrials);
    if (packing >= stats.threshold) ++stats.far_count;
  }
  return stats;
}

tft::FarnessStats pooled_farness(std::uint64_t seed) {
  return tft::mu_farness_stats(kSweepSide, kSweepGamma, kSweepTrials, kSweepCoefficient, seed);
}

RunResult timed_sweep(const RunArgs& a) {
  const std::uint64_t base = sweep_base_seed(a.seed);
  RunResult res;
  const HostReading host = host_before();

  // Set-up: kernel pool creation plus one untimed op on the warm-up seed.
  // Dropping to a one-thread pool first (untimed) makes the set-up build the
  // wide pool anew.
  std::vector<double> setup_s;
  const auto tear_down_pool = [] {
    tft::set_default_threads(1);
    (void)tft::ThreadPool::global();
  };
  const auto set_up = [&] {
    tft::set_default_threads(0);
    (void)tft::ThreadPool::global();
    (void)pooled_farness(kWarmupSeed);
  };
  repeat_setup(setup_s, tear_down_pool, set_up);

  std::vector<tft::FarnessStats> got;
  TimedPhase ph;
  const double cpu0 = process_cpu_s();
  const std::int64_t start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(a.seconds * 1e9);
  std::int64_t last = start;
  for (std::size_t op = 0; now_ns() < deadline; ++op) {
    const std::int64_t t0 = now_ns();
    got.push_back(pooled_farness(base + op));
    last = now_ns();
    ph.latency_ms.push_back(ms(last - t0));
    if (op + 1 == kSweepRssOps) ph.peak_rss_mb = peak_rss_mb();
  }
  ph.wall_s = static_cast<double>(last - start) / 1e9;
  ph.cpu_s = process_cpu_s() - cpu0;
  log_host(res, host);
  repeat_setup(setup_s, tear_down_pool, set_up);
  finish_rss(res, ph, kSweepRssOps);

  const std::vector<std::string> failures = check_all(
      got.size(), [&](std::size_t i) { return check_sweep(got[i], serial_farness(base + i)); });
  res.attempted = got.size();
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!failures[i].empty()) note_failure(res, "op " + std::to_string(i) + ": " + failures[i]);
  }
  add_end_to_end(res, setup_s, ph);
  return res;
}

/// Two passes over the same ops. The pooled pass runs each op as the timed
/// run does, on the warm default-width pool, with one root per op around the
/// call. The serial pass then replays every op's trials one at a time under
/// a root of its own, with the pool at one thread: in the timed run each
/// trial runs inside a pool worker, where nested kernels run serially. The
/// pool is switched once per pass, not per op.
RunResult traced_sweep(const RunArgs& a) {
  const std::uint64_t base = sweep_base_seed(a.seed);
  RunResult res;
  const HostReading host = host_before();
  (void)pooled_farness(kWarmupSeed);  // pool creation and first touch, untraced

  Tracer tr;
  LayerTotals L;
  std::vector<tft::FarnessStats> got;
  const std::int64_t start = now_ns();
  const auto pooled_budget = static_cast<std::int64_t>(a.seconds * kSweepPooledShare * 1e9);
  for (std::size_t op = 0; op < kSweepTracedMinOps || now_ns() - start < pooled_budget; ++op) {
    tft::FarnessStats stats;
    {
      const ProcessCounters counters(L);
      const ScopedSpan root(tr, "op", op, -1);
      const ScopedSpan s(tr, "lower_bounds.mu_farness_stats", op, root.index());
      stats = pooled_farness(base + op);
    }
    got.push_back(stats);
  }

  tft::set_default_threads(1);
  (void)tft::ThreadPool::global();
  for (std::size_t op = 0; op < got.size(); ++op) {
    tft::FarnessStats want;
    {
      const ScopedSpan root(tr, "op", op, -1);
      want = serial_farness(base + op, &tr, op, root.index());
    }
    ++res.attempted;
    ++L.ops;
    if (std::string why = check_sweep(got[op], want); !why.empty()) {
      note_failure(res, "op " + std::to_string(op) + ": " + why);
    }
  }
  tft::set_default_threads(0);
  (void)tft::ThreadPool::global();

  log_host(res, host);
  finish_trace(res, a, tr);
  add_per_layer(res, L, tr.spans());
  return res;
}

}  // namespace

SessionSpec op_spec(const std::string& workload, std::uint64_t seed, std::size_t i) {
  tft::Rng rng = tft::derive_rng(seed, i);
  SessionSpec s;
  s.k = 4;
  s.seed = rng();
  if (workload == "serve_chatty") {
    s.protocol = tft::ProtocolKind::kUnrestricted;
    s.family = tft::service::InstanceFamily::kPlanted;
    s.n = 2000 + static_cast<std::uint32_t>(rng.below(3001));
  } else {
    s.family = tft::service::InstanceFamily::kGnp;
    s.n = 20000;
    const bool exact = i % 2 == 0;
    s.protocol = exact ? tft::ProtocolKind::kExact : tft::ProtocolKind::kSimOblivious;
    s.param = exact ? 2000 : 3000;
  }
  return s;
}

SessionSpec warmup_spec(const std::string& workload, std::size_t shape) {
  return op_spec(workload, kWarmupSeed, shape);
}

RunResult run_workload(const RunArgs& a) {
  if (a.workload != "serve_chatty" && a.workload != "serve_bulk" && a.workload != "sweep_far") {
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  }
  if (a.workload == "sweep_far") return a.trace ? traced_sweep(a) : timed_sweep(a);
  return a.trace ? traced_serve(a) : timed_serve(a);
}

}  // namespace perfbench

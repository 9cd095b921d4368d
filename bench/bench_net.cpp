// Experiment E-NET: the Section 2 message-passing -> coordinator overhead,
// measured on real relayed frames instead of synthetic arithmetic. Each
// point-to-point message is framed (payload + fixed-width recipient id),
// shipped player -> coordinator over a live transport, decoded and forwarded
// by the coordinator's servicer actors; the table compares the bits that
// crossed the wire against MessagePassingSimulator and against the
// worst-case bound 2 + ceil(log k)/b. Further tables report raw transport
// throughput, the stop-and-wait vs windowed-ARQ pipelining ablation, and a
// virtual-clock fault grid whose retransmission counts are exactly
// reproducible (which is what lets those rows live in BENCH_baseline.json).

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "comm/channel.h"
#include "comm/message_passing.h"
#include "net/executed.h"
#include "net/runtime.h"
#include "runner.h"
#include "util/bits.h"
#include "util/flags.h"
#include "util/rng.h"

using namespace tft;
using namespace tft::net;

namespace {

std::vector<MpMessage> random_batch(std::size_t k, std::size_t count, std::uint64_t b,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<MpMessage> messages;
  messages.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto from = static_cast<std::size_t>(rng.below(k));
    auto to = static_cast<std::size_t>(rng.below(k - 1));
    if (to >= from) ++to;
    messages.push_back({from, to, b});
  }
  return messages;
}

/// --transports=inproc restricts the grid (the baseline run: socket
/// availability varies across machines and would change the row count).
std::vector<TransportKind> live_transports(const Flags& flags) {
  std::vector<TransportKind> kinds = {TransportKind::kInProc};
  if (flags.get_string("transports", "all") == "all" &&
      LoopbackSocketTransport::available()) {
    kinds.push_back(TransportKind::kSocket);
  }
  return kinds;
}

/// The pipelining A/B workload: `count` round-robin 64-bit charges through a
/// NetSession, verified against the transcript. Best-of-3 wall-clock seconds
/// (the min cuts 1-core scheduler noise out of the speedup ratio).
double timed_session(std::size_t k, std::size_t count, const NetConfig& cfg) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    NetSession session(k, cfg);
    Transcript t(k, 4096);
    {
      const ChannelSinkScope scope(&session);
      Channel ch(t);
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t player = i % k;
        const Direction dir = (i / k) % 2 == 0 ? Direction::kPlayerToCoordinator
                                               : Direction::kCoordinatorToPlayer;
        ch.charge(player, dir, 64, 0);
      }
    }
    const WireStats wire = session.finish();
    verify_accounting(t, wire);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (rep == 0 || secs < best) best = secs;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::configure_threads(flags);
  const auto count = static_cast<std::size_t>(flags.get_int("messages", 200));
  const auto window = static_cast<std::uint32_t>(flags.get_int("window", 32));
  bench::JsonRows json(flags, "bench_net");

  ArqPolicy grid_arq = ArqPolicy::windowed(window);
  if (flags.get_string("arq", "windowed") == "stopwait") grid_arq = ArqPolicy::stop_and_wait();

  bench::header("E-NET bench_net",
                "Section 2 message-passing -> coordinator overhead on real relayed "
                "frames: measured == simulated, both <= 2 + log(k)/b");

  std::printf("\n-- relay overhead (%zu messages per cell) --\n", count);
  for (const TransportKind kind : live_transports(flags)) {
    for (const std::size_t k : {3u, 8u, 32u}) {
      for (const std::uint64_t b : {1u, 8u, 64u, 512u}) {
        NetConfig cfg;
        cfg.transport = kind;
        cfg.arq = grid_arq;
        const auto messages = random_batch(k, count, b, 17 * k + b);
        const auto t0 = std::chrono::steady_clock::now();
        const RelayReport r = relay_messages(k, 4096, messages, cfg);
        const double secs = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
        const bool exact = r.measured_bits == r.simulated_bits;
        bench::row({{"k", static_cast<double>(k)},
                    {"b", static_cast<double>(b)},
                    {"measured_overhead", r.measured_overhead},
                    {"bound", r.bound},
                    {"wire_bytes", static_cast<double>(r.wire.wire_bytes)},
                    {"measured_eq_sim", exact ? 1.0 : 0.0}});
        json.row(to_string(kind), {{"k", static_cast<std::uint64_t>(k)},
                                   {"b", b},
                                   {"mp_bits", r.mp_bits},
                                   {"measured_bits", r.measured_bits},
                                   {"simulated_bits", r.simulated_bits},
                                   {"measured_overhead", r.measured_overhead},
                                   {"bound", r.bound},
                                   {"wire_bytes", r.wire.wire_bytes},
                                   {"seconds", secs}});
        if (!exact) {
          std::fprintf(stderr, "BUG: wire bits %llu != simulator bits %llu\n",
                       static_cast<unsigned long long>(r.measured_bits),
                       static_cast<unsigned long long>(r.simulated_bits));
          return 1;
        }
      }
    }
  }

  std::printf("\n-- ARQ throughput (1000 x 64-bit frames, one link) --\n");
  for (const TransportKind kind : live_transports(flags)) {
    NetConfig cfg;
    cfg.transport = kind;
    cfg.arq = grid_arq;
    const auto messages = random_batch(2, 1000, 64, 5);
    const auto t0 = std::chrono::steady_clock::now();
    const RelayReport r = relay_messages(2, 4096, messages, cfg);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    const double fps = 2000.0 / secs;  // each message = up frame + forwarded frame
    bench::row({{"frames_per_s", fps},
                {"wire_bytes", static_cast<double>(r.wire.wire_bytes)}});
    json.row(std::string("throughput-") + to_string(kind),
             {{"frames_per_s", fps}, {"wire_bytes", r.wire.wire_bytes}});
    std::printf("   (%s)\n", to_string(kind));
  }

  // The tentpole ablation: the same charge stream through the legacy
  // stop-and-wait discipline (one frame in flight, enqueue blocks for the
  // ack) vs the pipelined window. Identical accounting — verify_accounting
  // passes inside timed_session for both — the only difference is when the
  // driving thread blocks.
  std::printf("\n-- pipelining A/B (k=8, %zu x 64-bit charges, inproc) --\n", 4 * count);
  {
    const std::size_t k = 8;
    const std::size_t charges = 4 * count;
    NetConfig sw;
    sw.arq = ArqPolicy::stop_and_wait();
    NetConfig win;
    win.arq = ArqPolicy::windowed(window);
    const double sw_secs = timed_session(k, charges, sw);
    const double win_secs = timed_session(k, charges, win);
    const double speedup = win_secs > 0 ? sw_secs / win_secs : 0.0;
    bench::row({{"stopwait_s", sw_secs},
                {"windowed_s", win_secs},
                {"window", static_cast<double>(window)},
                {"speedup", speedup}});
    json.row("ab-pipelining", {{"charges", static_cast<std::uint64_t>(charges)},
                               {"window", static_cast<std::uint64_t>(window)},
                               {"stopwait_s", sw_secs},
                               {"windowed_s", win_secs},
                               {"speedup_time", speedup}});
  }

  // Virtual-clock fault grid: logical time makes the retransmission /
  // duplicate / corrupt / ack counts pure functions of the fault seed, so
  // these rows are byte-reproducible run to run and live in the committed
  // baseline. (Wall-clock and wire_bytes under faults are NOT deterministic
  // — SACK payload sizes depend on interleaving — so they stay out.)
  if (!flags.get_bool("vclock", true)) {
    std::printf("\n-- virtual-clock fault grid skipped (--vclock=0) --\n");
    return bench::finish(flags);
  }
  std::printf("\n-- virtual-clock fault grid (inproc, %zu messages per cell) --\n", count);
  for (const double drop : {0.05, 0.2}) {
    for (const std::size_t k : {3u, 8u}) {
      NetConfig cfg;
      cfg.transport = TransportKind::kInProc;
      cfg.arq = grid_arq;
      cfg.virtual_clock = true;
      cfg.faults.seed = 99;
      cfg.faults.drop = drop;
      cfg.faults.bit_flip = drop / 2;
      cfg.faults.duplicate = drop / 2;
      const auto messages = random_batch(k, count, 64, 23 * k);
      const RelayReport r = relay_messages(k, 4096, messages, cfg);
      bench::row({{"k", static_cast<double>(k)},
                  {"drop", drop},
                  {"retransmissions", static_cast<double>(r.wire.retransmissions)},
                  {"duplicates", static_cast<double>(r.wire.duplicates)},
                  {"corrupt", static_cast<double>(r.wire.corrupt_frames)},
                  {"acks", static_cast<double>(r.wire.acks)}});
      json.row("vclock-faults", {{"k", static_cast<std::uint64_t>(k)},
                                 {"drop", drop},
                                 {"messages", r.wire.messages()},
                                 {"payload_bits", r.wire.payload_bits()},
                                 {"retransmissions", r.wire.retransmissions},
                                 {"duplicates", r.wire.duplicates},
                                 {"corrupt", r.wire.corrupt_frames},
                                 {"acks", r.wire.acks}});
      if (r.measured_bits != r.simulated_bits) {
        std::fprintf(stderr, "BUG: faulted relay lost charged bits\n");
        return 1;
      }
    }
  }

  // Crash-recovery overhead: one deterministic charge stream, run clean and
  // with a single surgical mid-phase crash (barrier checkpoint + charge-log
  // replay). Under the virtual clock every field is a pure function of the
  // schedule, so both rows live in the committed baseline; the wire-byte
  // delta IS the cost of dying once — control frames plus the replayed
  // span the receiver dedups. The row runs on the windowed policy whatever
  // --arq says, as the A/B row pins its two: stop-and-wait does not coalesce,
  // so its wire bytes differ by design. Stop-and-wait recovery is covered by
  // the crash-coin chaos matrix and NetChaos.*.
  std::printf("\n-- crash-recovery overhead (k=4, 4 phases x %zu charges, vclock) --\n",
              count);
  {
    const std::size_t k = 4;
    const std::size_t phases = 4;
    const auto session_stats = [&](const NetConfig& cfg) {
      NetSession session(k, cfg);
      Transcript t(k, 4096);
      {
        const ChannelSinkScope scope(&session);
        Channel ch(t);
        for (std::size_t ph = 0; ph < phases; ++ph) {
          for (std::size_t i = 0; i < count; ++i) {
            const std::size_t player = i % k;
            const Direction dir = (i / k) % 2 == 0 ? Direction::kPlayerToCoordinator
                                                   : Direction::kCoordinatorToPlayer;
            ch.charge(player, dir, 64, ph);
          }
        }
      }
      const WireStats wire = session.finish();
      verify_accounting(t, wire);
      return wire;
    };
    NetConfig clean;
    clean.transport = TransportKind::kInProc;
    clean.virtual_clock = true;
    clean.arq = ArqPolicy::windowed(window);
    NetConfig crashed = clean;
    // Kill player 0 mid-phase 2, half its share of the phase already in the
    // pipeline (count/k charges per player per phase by construction).
    crashed.faults.crash_schedule = {CrashEvent{0, 2, count / k / 2}};
    const WireStats w0 = session_stats(clean);
    const WireStats w1 = session_stats(crashed);
    if (w1.crashes != 1 || w0.payload_bits() != w1.payload_bits()) {
      std::fprintf(stderr, "BUG: crash never fired or recovery lost charged bits\n");
      return 1;
    }
    const double ratio =
        w0.wire_bytes > 0 ? static_cast<double>(w1.wire_bytes) /
                                static_cast<double>(w0.wire_bytes)
                          : 0.0;
    bench::row({{"wire_bytes_clean", static_cast<double>(w0.wire_bytes)},
                {"wire_bytes_crashed", static_cast<double>(w1.wire_bytes)},
                {"replayed", static_cast<double>(w1.replayed_charges)},
                {"overhead_ratio", ratio}});
    json.row("recovery-overhead",
             {{"charges", static_cast<std::uint64_t>(phases * count)},
              {"wire_bytes_clean", w0.wire_bytes},
              {"wire_bytes_crashed", w1.wire_bytes},
              {"crashes", w1.crashes},
              {"replayed", w1.replayed_charges},
              {"extra_wire_bytes", w1.wire_bytes - w0.wire_bytes},
              {"overhead_ratio", ratio}});
  }

  std::printf(
      "\nReading: measured_overhead climbs toward the bound as b shrinks —\n"
      "at b=1 every payload bit pays the full ceil(log k) recipient header\n"
      "twice-over; at b=512 the relay is within a whisker of the factor-2\n"
      "forwarding floor. measured_eq_sim = 1 everywhere: the simulator's\n"
      "arithmetic is backed by bytes on a live transport. The A/B row shows\n"
      "the sliding window amortizing the per-frame handshake the legacy\n"
      "stop-and-wait paid per message; the vclock grid's retransmission\n"
      "counts are deterministic and checked against the committed baseline.\n");
  return bench::finish(flags);
}

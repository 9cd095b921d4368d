#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "comm/channel.h"
#include "comm/transcript.h"
#include "net/arq.h"
#include "net/checkpoint.h"
#include "net/servicer.h"
#include "net/session.h"
#include "net/transport.h"

/// \file runtime.h
/// The executed-mode session: one ChannelSink whose on_charge ships a real
/// frame per charged message (or coalesces several charges into one frame
/// under the windowed ARQ policy).
///
/// Topology: 2k directed links — player j -> coordinator (upstream, link id
/// j) and coordinator -> player j (downstream, link id k+1+j; the ids seed
/// the fault injector, so they are part of the reproducibility contract).
/// All 2k links are drained by ONE SharedServicer thread; on_charge is
/// enqueue-mostly and the driving thread blocks only at phase barriers
/// (every phase change flushes the pipeline end to end), on queue
/// backpressure, or at session close. The protocol itself stays
/// single-threaded on the driving thread, exactly as in simulated mode, so
/// transcripts and verdicts are bit-identical across transports, ArqPolicy
/// choices and thread counts.
///
/// NetSession is the *single-session* view of the multiplexed runtime: it
/// owns a private transport + servicer and opens exactly one session with
/// the reserved wire id 0, so its frames carry the v1 header and every
/// pre-session byte stream is reproduced exactly. The per-session state
/// itself (phase cursor, crash controller, error containment, folded
/// stats) lives in the servicer's SessionState table (net/session.h); the
/// service layer (src/service/) opens many such sessions, ids >= 1, over
/// one shared servicer.

namespace tft::net {

enum class TransportKind {
  kSim,     ///< legacy simulated mode: no frames, Transcript-only
  kInProc,  ///< ByteRing SPSC queues + condvars
  kSocket,  ///< TCP on 127.0.0.1
};

[[nodiscard]] constexpr const char* to_string(TransportKind k) noexcept {
  switch (k) {
    case TransportKind::kSim: return "sim";
    case TransportKind::kInProc: return "inproc";
    case TransportKind::kSocket: return "socket";
  }
  // Out-of-range values can only come from casts; make them loud in debug
  // builds instead of silently labelling runs "?".
  assert(!"to_string(TransportKind): value outside the enum");
  return "?";
}

[[nodiscard]] std::optional<TransportKind> parse_transport(std::string_view s) noexcept;

struct NetConfig {
  TransportKind transport = TransportKind::kInProc;
  FaultPlan faults;     ///< applied to every data link
  RetryPolicy retry;
  std::size_t ring_capacity = std::size_t{1} << 16;
  ArqPolicy arq = ArqPolicy::windowed();  ///< stop_and_wait() for the A/B reference
  /// Deterministic logical time for timeouts/backoff (in-proc only):
  /// retransmission counts become exactly reproducible under a fixed fault
  /// seed. Throws NetError(kSetup) when combined with kSocket.
  bool virtual_clock = false;
  /// Carried inside every PlayerCheckpoint so a respawned process could
  /// rebuild its inputs; otherwise inert.
  std::uint64_t session_seed = 0;
  /// Barrier checkpoints + the crash controller (net/recovery.h). On by
  /// default: a crash-free plan costs one charge-log append per charge and
  /// a per-player checkpoint refresh per phase. Crashes themselves come
  /// from faults.crash_schedule / faults.crash.
  bool crash_tolerance = true;
  /// Servicer poller shards (SharedServicer::Options::num_shards). 1 keeps
  /// the classic single-threaded servicer; a solo NetSession never benefits
  /// from more (all its links share one shard by design), so this mainly
  /// serves the service layer and A/B tests.
  std::size_t num_shards = 1;
};

[[nodiscard]] std::unique_ptr<Transport> make_transport(const NetConfig& cfg);

// WireStats lives in net/session.h (included above): it is the per-session
// result type of the multiplexed runtime, folded by close_session.

/// The charged side of the cross-check, summable over several transcripts
/// (an executed body may run more than one checked protocol).
struct ChargedTotals {
  std::vector<std::uint64_t> up_bits;
  std::vector<std::uint64_t> down_bits;
  std::vector<std::uint64_t> up_msgs;
  std::vector<std::uint64_t> down_msgs;
  std::vector<std::uint64_t> phase_bits;

  explicit ChargedTotals(std::size_t num_players)
      : up_bits(num_players), down_bits(num_players), up_msgs(num_players),
        down_msgs(num_players) {}

  /// Fold one transcript's tallies in. Throws AccountingError if it names
  /// a different player count than the wire topology.
  void add(const Transcript& t);
};

/// Throws AccountingError unless the delivered-on-wire totals equal the
/// charged totals exactly: per player, per direction, per message count,
/// and per phase. The paper's cost model, enforced at the byte level.
void verify_accounting(const ChargedTotals& charged, const WireStats& w);

/// Convenience: one transcript against the wire.
void verify_accounting(const Transcript& t, const WireStats& w);

/// The ChannelSink of executed mode. Single driving thread; on_charge
/// enqueues onto the shared servicer and blocks only at phase barriers,
/// queue backpressure, or (under ArqPolicy::block_per_frame) per frame.
///
/// Thin wrapper since the multi-session refactor: it owns a private
/// transport + servicer and forwards everything to session 0, whose v1
/// frame encoding keeps classic runs byte-identical to pre-session builds.
class NetSession final : public ChannelSink {
 public:
  NetSession(std::size_t num_players, const NetConfig& cfg);
  ~NetSession() override;

  NetSession(const NetSession&) = delete;
  NetSession& operator=(const NetSession&) = delete;

  void on_charge(std::size_t player, Direction dir, std::uint64_t bits,
                 std::uint64_t phase) override;

  /// Phase barrier: seal open batches and drain the pipeline end to end.
  /// Called automatically whenever a charge's phase differs from the
  /// previous charge's, and by Channel::flush().
  void on_flush() override;

  /// Drain the pipeline, stop the servicer, aggregate its tallies.
  /// Idempotent; a servicer-recorded failure rethrows as NetError.
  WireStats finish();

  [[nodiscard]] std::size_t num_players() const noexcept { return k_; }

  /// The player's latest barrier checkpoint, as stored: the exact bytes a
  /// recovery would decode. Refreshed at every phase barrier.
  [[nodiscard]] const std::vector<std::uint8_t>& checkpoint_bytes(std::size_t player) const {
    return servicer_->session_checkpoint_bytes(sid_, player);
  }
  /// Decoded convenience view of checkpoint_bytes.
  [[nodiscard]] PlayerCheckpoint checkpoint(std::size_t player) const {
    return decode_checkpoint(checkpoint_bytes(player));
  }

 private:
  std::size_t k_;
  std::unique_ptr<Transport> transport_;
  std::unique_ptr<SharedServicer> servicer_;
  std::size_t sid_ = 0;  ///< servicer table index of our session (wire id 0)
  bool finished_ = false;
  WireStats result_;
};

}  // namespace tft::net

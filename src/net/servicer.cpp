#include "net/servicer.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <unordered_set>
#include <utility>

#include "net/vclock_hub.h"
#include "util/bits.h"

namespace tft::net {

namespace {

/// Hand the lane's open batch to `seal` and start an empty one.
template <class Seal>
void close_batch(DriverLane& lane, Seal&& seal) {
  seal(lane.open_batch);
  lane.open_batch.clear();
  lane.open_batch_bits = 0;
}

/// The coalescing rule, the one body behind live charges and recovery
/// replay: the charge joins the lane's open batch, and `seal` receives each
/// batch the charge closes — the open one when the charge does not fit
/// beside it, then the charge's own once it fills (at once when the policy
/// does not coalesce). The frame stream is a pure function of the lane's
/// charge sequence, whichever thread runs this and whenever it seals.
template <class Seal>
void coalesce_charge(const ArqPolicy& arq, DriverLane& lane, std::uint64_t phase,
                     std::uint64_t bits, Seal&& seal) {
  const bool fits = lane.open_batch.empty() ||
                    (lane.open_batch.size() < arq.max_batch_msgs &&
                     lane.open_batch_bits + bits <= arq.max_batch_bits &&
                     lane.open_batch.front().phase == phase);
  if (!fits) close_batch(lane, seal);
  lane.open_batch.push_back({phase, bits});
  lane.open_batch_bits += bits;
  if (!arq.coalesce || lane.open_batch.size() >= arq.max_batch_msgs ||
      lane.open_batch_bits >= arq.max_batch_bits) {
    close_batch(lane, seal);
  }
}

/// Compact an out-buffer once its consumed prefix dominates.
void compact(std::vector<std::uint8_t>& buf, std::size_t& pos) {
  if (pos == buf.size()) {
    buf.clear();
    pos = 0;
  } else if (pos > (std::size_t{1} << 16) && pos >= buf.size() / 2) {
    buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(pos));
    pos = 0;
  }
}

}  // namespace

/// Everything the poller shares about one directed link: the sealed-frame
/// queue, the sender window with its pending out-bytes, and the receiving
/// state machine with its ack out-bytes. All of it guarded by the owning
/// shard's mutex. The link's open batch and charge log are not here: they
/// belong to the session's driving thread (SessionState::lanes).
struct SharedServicer::LinkState {
  LinkState(Link l, std::uint32_t id, std::uint32_t s, std::uint32_t d, const Options& opts,
            const FaultPlan& faults, std::uint32_t sess_id, std::size_t sess_index)
      : link(std::move(l)),
        link_id(id),
        src(s),
        dst(d),
        injector(faults, id, sess_id),
        session_id(sess_id),
        session(sess_index),
        window(opts.arq),
        rcv(opts.arq) {}

  Link link;  ///< minted by open_session; closed at close_session
  std::uint32_t link_id;
  std::uint32_t src;
  std::uint32_t dst;
  FaultInjector injector;
  std::uint32_t session_id;  ///< wire session id stamped on every frame
  std::size_t session;       ///< shard-local session index
  /// Cleared when the owning session closes or fails: an inactive link
  /// counts as drained, is skipped by the sweep, and holds no deadlines.
  bool active = true;

  // Sealed frames, numbered and queued under the shard mutex.
  std::uint32_t next_seq = 0;
  std::deque<Frame> queue;  ///< sealed, awaiting window admission

  // Sender half.
  ArqSenderWindow window;
  std::vector<std::uint8_t> out_data;  ///< bytes pending on link.data
  std::size_t out_data_pos = 0;
  std::vector<std::uint8_t> wire_scratch;  ///< pooled serialization buffer
  FrameParser ack_parser;
  SenderStats sstats;

  // Receiver half.
  ArqReceiverWindow rcv;
  FrameParser data_parser;
  std::vector<std::uint8_t> out_ack;  ///< bytes pending on link.ack
  std::size_t out_ack_pos = 0;
  ReceiverStats rstats;
  std::vector<ChargeRec> batch_scratch;

  // Crash tolerance (SessionOptions::crash_tolerance). `barrier` and the
  // lane's charge log are the recovery pair: the link state at the last
  // flush and the charges made since — replaying the log from the barrier
  // regenerates the frame stream bit for bit.
  LinkCheckpoint barrier;
  bool src_down = false;   ///< this link's sender died (a dead player's up link)
  bool dst_down = false;   ///< this link's receiver died (a dead player's down link)
  std::uint64_t down_deadline_us = 0;  ///< resume-or-fail deadline while down
  std::uint32_t ctrl_seq = 0;          ///< out-of-band control frame ordinal
  std::uint64_t epoch = 0;  ///< ack fence: bumped each time the receiver dies

  /// Nothing sealed is left to send or acknowledge. An open batch is the
  /// driver's, not the poller's: a barrier or close seals it first.
  [[nodiscard]] bool drained() const noexcept {
    return !active || (queue.empty() && window.empty());
  }
};

/// One self-contained servicer engine: the pre-shard SharedServicer's
/// entire mutable state, times num_shards. Sessions are pinned here for
/// life; nothing below is ever touched by another shard's poller.
struct SharedServicer::Shard {
  explicit Shard(std::size_t idx) : index(idx), read_buf(std::size_t{1} << 16) {}

  const std::size_t index;

  mutable std::mutex mu;
  std::condition_variable work_cv;   ///< wakes the poller (new work / stop)
  std::condition_variable space_cv;  ///< wakes driving waits (space / drain / error)
  bool stop = false;
  /// Raised with error_kind (under mu): charges read it without the lock.
  std::atomic<bool> failed{false};

  int driving_waiting = 0;  ///< driving threads blocked => quiescence may advance vclock
  /// Open sessions whose drivers may still act. The virtual clock advances
  /// only when every one of them is blocked (driving_waiting >=
  /// live_drivers): jumping while another session's driver is mid-compute
  /// would make retransmission fates depend on scheduling.
  int live_drivers = 0;
  std::optional<NetErrorKind> error_kind;
  std::string error_what;
  std::uint64_t vnow_us = 0;

  /// Link table. Slots are stable for the servicer's lifetime (link indices
  /// are handed out), but a closed session's slots are reset to null —
  /// reclaiming its rings and windows — and recorded in free_link_blocks
  /// for the next same-width session to reuse. Every scan must skip nulls.
  std::vector<std::unique_ptr<LinkState>> links;
  /// Reclaimed contiguous slot runs: (first slot, slot count). Bounds the
  /// link table by peak concurrency, not by total sessions ever served.
  std::vector<std::pair<std::size_t, std::size_t>> free_link_blocks;
  /// The session table, indexed by shard-local session index (deque: rows
  /// never move, so references into a row, such as its checkpoint bytes,
  /// stay valid while the table grows). Closed rows stay: their handles
  /// still answer rethrow_session_error.
  std::deque<SessionState> sessions;
  /// Wire ids of the sessions open on this shard (a failed session keeps
  /// its id until it is closed), so the duplicate-id check at open_session
  /// never walks the closed rows.
  std::unordered_set<std::uint32_t> open_ids;

  /// Shard-local frame buffers: each poller reads, parses and scratches in
  /// its own arenas, so shards share no hot memory.
  std::vector<std::uint8_t> read_buf;
  std::vector<ArqSenderWindow::Entry*> due_scratch;

  std::thread thread;
};

SharedServicer::SharedServicer(const Options& opts) : opts_(opts) {
  opts_.arq.validate();
  if (opts_.virtual_clock && opts_.timed_recheck) {
    throw NetError(NetErrorKind::kSetup,
                   "virtual clock requires an in-process transport (kernel-buffered "
                   "transports cannot reach quiescence deterministically)");
  }
  num_shards_ = std::max<std::size_t>(1, opts_.num_shards);
  shards_.reserve(num_shards_);
  for (std::size_t i = 0; i < num_shards_; ++i) {
    shards_.push_back(std::make_unique<Shard>(i));
  }
  if (opts_.virtual_clock) {
    hub_ = std::make_unique<VClockHub>(num_shards_);
    for (std::size_t i = 0; i < num_shards_; ++i) {
      hub_->attach(i, &shards_[i]->work_cv);
    }
  }
}

SharedServicer::~SharedServicer() {
  for (auto& shp : shards_) {
    {
      const std::lock_guard lock(shp->mu);
      shp->stop = true;
    }
    shp->work_cv.notify_all();
  }
  for (auto& shp : shards_) {
    if (shp->thread.joinable()) shp->thread.join();
  }
}

std::size_t SharedServicer::shard_for(std::uint32_t session_id,
                                      std::uint32_t affinity) const noexcept {
  if (affinity != 0) return (affinity - 1) % num_shards_;
  return session_id % num_shards_;
}

std::size_t SharedServicer::open_session(Transport& transport, const SessionOptions& so) {
  if (so.num_players == 0) {
    throw NetError(NetErrorKind::kSetup, "open_session requires at least one player");
  }
  // Mint links outside the lock: socket transports block in connect/accept,
  // and the shard's poller must keep draining other sessions meanwhile.
  std::vector<Link> minted;
  minted.reserve(2 * so.num_players);
  for (std::size_t j = 0; j < 2 * so.num_players; ++j) {
    minted.push_back(transport.make_link());
  }

  const std::size_t shard_idx = shard_for(so.session_id, so.shard_affinity);
  Shard& sh = *shards_[shard_idx];
  const std::lock_guard lock(sh.mu);
  if (!sh.open_ids.insert(so.session_id).second) {
    throw NetError(NetErrorKind::kSetup,
                   "session id " + std::to_string(so.session_id) + " already open");
  }
  const std::size_t local = sh.sessions.size();
  SessionState& ss = sh.sessions.emplace_back();
  ss.id = so.session_id;
  ss.k = so.num_players;
  ss.shard = shard_idx;
  // Prefer a reclaimed slot run of the same width over growing the table:
  // a service that opens and closes sessions forever stays at its peak
  // footprint, and the reused slots' pages are already hot.
  ss.link_base = sh.links.size();
  bool grow = true;
  for (std::size_t b = 0; b < sh.free_link_blocks.size(); ++b) {
    if (sh.free_link_blocks[b].second == 2 * so.num_players) {
      ss.link_base = sh.free_link_blocks[b].first;
      sh.free_link_blocks[b] = sh.free_link_blocks.back();
      sh.free_link_blocks.pop_back();
      grow = false;
      break;
    }
  }
  ss.seed = so.seed;
  ss.crash_tolerance = so.crash_tolerance;
  ss.faults = so.faults ? *so.faults : opts_.faults;
  ss.ckpts = CheckpointStore(so.num_players);
  ss.lanes.resize(2 * so.num_players);
  ss.charge_counts.resize(so.num_players);

  const std::uint32_t coord = static_cast<std::uint32_t>(so.num_players);
  // The solo-session numbering, per session: up link j has id j, down link
  // j has id k+1+j. Fault and filler keying add the session id on top, so
  // a multiplexed session's byte stream equals the same session run alone.
  for (std::size_t j = 0; j < 2 * so.num_players; ++j) {
    const bool up = j < so.num_players;
    const std::uint32_t pj = static_cast<std::uint32_t>(up ? j : j - so.num_players);
    auto ls = std::make_unique<LinkState>(
        std::move(minted[j]), /*link_id=*/up ? pj : coord + 1 + pj, /*src=*/up ? pj : coord,
        /*dst=*/up ? coord : pj, opts_, ss.faults, ss.id, local);
    if (grow) {
      sh.links.push_back(std::move(ls));
    } else {
      sh.links[ss.link_base + j] = std::move(ls);
    }
  }

  ++sh.live_drivers;
  // The start-of-run checkpoint: all-zero barriers, phase 0.
  if (ss.crash_tolerance) refresh_session_checkpoints_locked(sh, ss);
  if (hub_ != nullptr) hub_->publish_active(sh.index);
  sh.work_cv.notify_one();
  return local * num_shards_ + shard_idx;
}

void SharedServicer::start() {
  if (started_) return;
  started_ = true;
  epoch_ = Clock::now();
  for (auto& shp : shards_) {
    Shard& sh = *shp;
    sh.thread = std::thread([this, &sh] { run(sh); });
  }
}

std::uint64_t SharedServicer::now_us(const Shard& sh) const noexcept {
  if (opts_.virtual_clock) return sh.vnow_us;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - epoch_).count());
}

std::size_t SharedServicer::num_links() const noexcept {
  std::size_t n = 0;
  for (const auto& shp : shards_) n += shp->links.size();
  return n;
}

void SharedServicer::record_error(Shard& sh, NetErrorKind kind, std::string what) noexcept {
  if (!sh.error_kind) {
    sh.error_kind = kind;
    sh.error_what = std::move(what);
    sh.failed.store(true);
  }
}

void SharedServicer::throw_if_error_locked(const Shard& sh) const {
  if (sh.error_kind) throw NetError(*sh.error_kind, sh.error_what);
}

void SharedServicer::rethrow_error() const {
  for (const auto& shp : shards_) {
    const std::lock_guard lock(shp->mu);
    throw_if_error_locked(*shp);
  }
}

bool SharedServicer::all_drained(const Shard& sh) const noexcept {
  for (const auto& link : sh.links) {
    if (link && !link->drained()) return false;
  }
  return true;
}

bool SharedServicer::anything_unacked(const Shard& sh) const noexcept {
  for (const auto& link : sh.links) {
    if (!link || !link->active) continue;
    if (!link->queue.empty() || !link->window.empty() ||
        link->out_data_pos < link->out_data.size() || link->out_ack_pos < link->out_ack.size()) {
      return true;
    }
  }
  return false;
}

// ---- sealing (driving thread or poller, under the shard mutex) --------------

void SharedServicer::seal_data_frame(LinkState& link, std::uint64_t phase, std::uint64_t bits) {
  Frame f;
  f.header.type = FrameType::kData;
  f.header.src = link.src;
  f.header.dst = link.dst;
  f.header.seq = link.next_seq;
  f.header.phase = phase;
  f.header.payload_bits = bits;
  f.header.session = link.session_id;
  f.payload = make_filler_payload(f.header);
  link.next_seq = (link.next_seq + 1) % opts_.arq.seq_modulus;
  link.queue.push_back(std::move(f));
}

void SharedServicer::seal_batch_locked(LinkState& link, const std::vector<ChargeRec>& batch) {
  if (batch.size() == 1) {
    // A batch of one is emitted as a plain kData frame: byte-identical to
    // the uncoalesced encoding, and a solo oversized charge keeps the
    // full kMaxPayloadBits headroom.
    seal_data_frame(link, batch.front().phase, batch.front().bits);
    return;
  }
  link.queue.push_back(
      make_batch_frame(link.src, link.dst, link.next_seq, batch, link.session_id));
  link.next_seq = (link.next_seq + 1) % opts_.arq.seq_modulus;
}

void SharedServicer::replay_lane_locked(LinkState& link, DriverLane& lane) {
  lane.open_batch.clear();
  lane.open_batch_bits = 0;
  for (const ChargeRec& rec : lane.charge_log) {
    coalesce_charge(opts_.arq, lane, rec.phase, rec.bits,
                    [&](const std::vector<ChargeRec>& batch) { seal_batch_locked(link, batch); });
  }
}

void SharedServicer::wait_for_space(Shard& sh, std::unique_lock<std::mutex>& lock,
                                    LinkState& link) {
  // Backpressure: cap the sealed-but-unadmitted queue. The wait also
  // breaks on *its own* session failing — another session's trouble never
  // wakes (or wedges) this driver.
  const SessionState& ss = sh.sessions[link.session];
  const auto dead = [&] { return sh.error_kind.has_value() || ss.failed(); };
  ++sh.driving_waiting;
  while (!dead() && link.queue.size() > opts_.arq.pending_cap) {
    sh.space_cv.wait_for(lock, std::chrono::seconds(1));
  }
  if (opts_.arq.block_per_frame) {
    // Stop-and-wait discipline: this charge's frame must be acknowledged
    // before the protocol continues.
    while (!dead() && !link.drained()) {
      sh.space_cv.wait_for(lock, std::chrono::seconds(1));
    }
  }
  --sh.driving_waiting;
  if (hub_ != nullptr) hub_->publish_active(sh.index);
  throw_if_error_locked(sh);
  throw_if_session_failed_locked(ss);
}

// ---- sessions (driving threads, one per session) ----------------------------

void SharedServicer::throw_if_session_failed_locked(const SessionState& ss) const {
  if (ss.error_kind) throw NetError(*ss.error_kind, ss.error_what);
}

bool SharedServicer::session_drained_locked(const Shard& sh,
                                            const SessionState& ss) const noexcept {
  for (std::size_t i = ss.link_base; i < ss.link_base + 2 * ss.k; ++i) {
    if (sh.links[i] && !sh.links[i]->drained()) return false;
  }
  return true;
}

void SharedServicer::release_driver_locked(Shard& sh, SessionState& ss) noexcept {
  if (!ss.driver_released) {
    ss.driver_released = true;
    --sh.live_drivers;
  }
}

void SharedServicer::fail_session_locked(Shard& sh, const LinkState& link, NetErrorKind kind,
                                         std::string what) noexcept {
  SessionState& ss = sh.sessions[link.session];
  if (ss.failed()) return;
  ss.error_kind = kind;
  ss.error_what = std::move(what);
  ss.halted.store(true);
  // Retire the session's links so the sweep skips them, their deadlines
  // stop driving the clock, and drained() holds — other sessions and the
  // global finish() never wait on a corpse.
  for (std::size_t i = ss.link_base; i < ss.link_base + 2 * ss.k; ++i) {
    if (sh.links[i]) sh.links[i]->active = false;
  }
  release_driver_locked(sh, ss);
  sh.space_cv.notify_all();
}

void SharedServicer::drain_session_locked(Shard& sh, std::unique_lock<std::mutex>& lock,
                                          SessionState& ss) {
  for (std::size_t j = 0; j < 2 * ss.k; ++j) {
    if (ss.lanes[j].open_batch.empty()) continue;
    LinkState& link = *sh.links[ss.link_base + j];
    close_batch(ss.lanes[j],
                [&](const std::vector<ChargeRec>& batch) { seal_batch_locked(link, batch); });
  }
  ++sh.driving_waiting;
  while (!sh.error_kind && !ss.failed() && !session_drained_locked(sh, ss)) {
    sh.work_cv.notify_one();
    sh.space_cv.wait_for(lock, std::chrono::seconds(1));
  }
  --sh.driving_waiting;
  if (hub_ != nullptr) hub_->publish_active(sh.index);
}

void SharedServicer::session_barrier_locked(Shard& sh, std::unique_lock<std::mutex>& lock,
                                            SessionState& ss) {
  drain_session_locked(sh, lock, ss);
  throw_if_error_locked(sh);
  throw_if_session_failed_locked(ss);
  if (ss.crash_tolerance) {
    // The checkpoint instant, scoped to this session: its queues, windows
    // and out-buffers are drained end to end, so each of its links' state
    // is fully captured by this snapshot, and its charge logs restart
    // empty. Other sessions' pipelines are none of our business.
    for (std::size_t j = 0; j < 2 * ss.k; ++j) {
      LinkState& link = *sh.links[ss.link_base + j];
      link.barrier.next_seq = link.next_seq;
      link.barrier.next_expected = link.rcv.next_expected();
      link.barrier.frames = link.rstats.frames;
      link.barrier.messages = link.rstats.messages;
      link.barrier.payload_bits = link.rstats.payload_bits;
      link.barrier.phase_bits = link.rstats.phase_bits;
      ss.lanes[j].charge_log.clear();
    }
  }
}

void SharedServicer::refresh_session_checkpoints_locked(Shard& sh, SessionState& ss) {
  for (std::size_t j = 0; j < ss.k; ++j) {
    PlayerCheckpoint ck;
    ck.player = static_cast<std::uint32_t>(j);
    ck.seed = ss.seed;
    ck.phase = ss.last_phase;
    ck.up = sh.links[ss.link_base + j]->barrier;
    ck.down = sh.links[ss.link_base + ss.k + j]->barrier;
    ss.ckpts.put(static_cast<std::uint32_t>(j), encode_checkpoint(ck));
  }
}

void SharedServicer::maybe_crash(Shard& sh, std::unique_lock<std::mutex>& lock,
                                 SessionState& ss, std::size_t player, std::uint64_t phase) {
  auto& counts = ss.charge_counts[player];
  if (counts.size() <= phase) counts.resize(static_cast<std::size_t>(phase) + 1, 0);
  const std::uint64_t count = counts[static_cast<std::size_t>(phase)]++;
  const std::optional<std::uint64_t> off =
      crash_offset(ss.faults, static_cast<std::uint32_t>(player), phase, ss.id);
  if (!off || *off != count) return;
  if (!lock.owns_lock()) lock.lock();
  // The process dies between two charges — never mid-frame. The servicer
  // fences the corpse's links and announces the death...
  const std::size_t up = ss.link_base + player;
  const std::size_t down = ss.link_base + ss.k + player;
  crash_player_locked(sh, up, down, static_cast<std::uint32_t>(player), phase);
  ++ss.crashes;
  if (ss.faults.crash_resurrect) {
    // ...and the respawn recovers from the *stored bytes* of the last
    // barrier checkpoint — the serialized form is load-bearing, exactly as
    // it would be for a real process reading its checkpoint off disk.
    const std::vector<std::uint8_t>& bytes = ss.ckpts.bytes(static_cast<std::uint32_t>(player));
    recover_player_locked(sh, up, down, decode_checkpoint(bytes), bytes, ss);
  }
}

SessionState& SharedServicer::session_row(std::size_t session) {
  Shard& sh = *shards_[session % num_shards_];
  const std::lock_guard lock(sh.mu);
  return sh.sessions[session / num_shards_];
}

void SharedServicer::session_charge(std::size_t session, std::size_t player, bool upstream,
                                    std::uint64_t bits, std::uint64_t phase) {
  session_charge(session_row(session), player, upstream, bits, phase);
}

void SharedServicer::session_charge(SessionState& ss, std::size_t player, bool upstream,
                                    std::uint64_t bits, std::uint64_t phase) {
  Shard& sh = *shards_[ss.shard];
  // Only the session's driving thread charges it, so the phase cursor, the
  // crash counts, the charge logs and the open batches are its own. The
  // shard lock guards what the poller shares, and is taken only for that:
  // a frame this charge seals (with its backpressure wait), the phase
  // barrier, a scheduled crash, and the typed error of a halted session or
  // a failed shard.
  std::unique_lock lock(sh.mu, std::defer_lock);
  const auto hold = [&lock] {
    if (!lock.owns_lock()) lock.lock();
  };
  if (player >= ss.k || ss.halted.load() || sh.failed.load()) {
    hold();
    enter_session_locked(sh, ss, player);  // throws the typed error
  }
  // Phase barrier: the session's pipeline drains completely before the
  // first charge of a new phase, so frames never mix phases and the
  // executed run keeps the round structure the Transcript records.
  if (phase != ss.last_phase) {
    hold();
    session_barrier_locked(sh, lock, ss);
    ss.last_phase = phase;
    if (ss.crash_tolerance) refresh_session_checkpoints_locked(sh, ss);
  }
  if (ss.crash_tolerance && ss.faults.has_crashes()) maybe_crash(sh, lock, ss, player, phase);
  const std::size_t lane_index = upstream ? player : ss.k + player;
  DriverLane& lane = ss.lanes[lane_index];
  // The log, not the live queue, is recovery's source of truth: replaying
  // it through coalesce_charge reproduces the coalescing decisions and
  // hence the exact frame stream (which is a pure per-link function of the
  // per-link charge sequence).
  if (ss.crash_tolerance) lane.charge_log.push_back({phase, bits});
  LinkState* sealed = nullptr;
  coalesce_charge(opts_.arq, lane, phase, bits, [&](const std::vector<ChargeRec>& batch) {
    hold();
    sealed = sh.links[ss.link_base + lane_index].get();
    seal_batch_locked(*sealed, batch);
  });
  // A charge that merely grew the open batch gives the poller nothing to
  // do and takes no lock: this is the windowed pipeline's hot loop.
  if (sealed == nullptr) return;
  sh.work_cv.notify_one();
  wait_for_space(sh, lock, *sealed);
}

void SharedServicer::enter_session_locked(const Shard& sh, const SessionState& ss,
                                          std::size_t player) const {
  throw_if_error_locked(sh);
  throw_if_session_failed_locked(ss);
  if (ss.closed) {
    throw NetError(NetErrorKind::kClosed, "charge after the session closed");
  }
  if (player >= ss.k) {
    throw NetError(NetErrorKind::kProtocol, "charge names a player outside [0, k)");
  }
}

void SharedServicer::session_relay(std::size_t session, std::size_t player,
                                   std::size_t recipient, std::uint64_t bits) {
  Shard& sh = *shards_[session % num_shards_];
  std::unique_lock lock(sh.mu);
  SessionState& ss = sh.sessions[session / num_shards_];
  enter_session_locked(sh, ss, player);
  if (recipient >= ss.k) {
    throw NetError(NetErrorKind::kProtocol, "relay names a recipient outside [0, k)");
  }
  LinkState& link = *sh.links[ss.link_base + player];
  link.queue.push_back(
      make_relay_frame(link.src, link.next_seq, ss.k, recipient, bits, link.session_id));
  link.next_seq = (link.next_seq + 1) % opts_.arq.seq_modulus;
  sh.work_cv.notify_one();
  wait_for_space(sh, lock, link);
}

void SharedServicer::session_flush(std::size_t session) {
  Shard& sh = *shards_[session % num_shards_];
  std::unique_lock lock(sh.mu);
  SessionState& ss = sh.sessions[session / num_shards_];
  throw_if_error_locked(sh);
  throw_if_session_failed_locked(ss);
  if (ss.closed) return;
  session_barrier_locked(sh, lock, ss);
  if (ss.crash_tolerance) refresh_session_checkpoints_locked(sh, ss);
}

WireStats SharedServicer::close_session(std::size_t session) {
  Shard& sh = *shards_[session % num_shards_];
  std::unique_lock lock(sh.mu);
  SessionState& ss = sh.sessions[session / num_shards_];
  if (ss.closed) return ss.result;
  // Best-effort drain: a healthy session flushes end to end so its fold is
  // complete; a failed one skips straight to folding what crossed the wire.
  if (!ss.failed() && !sh.error_kind) drain_session_locked(sh, lock, ss);

  WireStats w;
  w.up_bits.resize(ss.k);
  w.down_bits.resize(ss.k);
  w.up_msgs.resize(ss.k);
  w.down_msgs.resize(ss.k);
  const auto fold = [&](const LinkState& link, std::uint64_t& bits_slot,
                        std::uint64_t& msgs_slot) {
    const ReceiverStats& r = link.rstats;
    const SenderStats& s = link.sstats;
    bits_slot += r.payload_bits;
    msgs_slot += r.messages;
    if (w.phase_bits.size() < r.phase_bits.size()) w.phase_bits.resize(r.phase_bits.size());
    for (std::size_t ph = 0; ph < r.phase_bits.size(); ++ph) w.phase_bits[ph] += r.phase_bits[ph];
    w.frames_delivered += r.frames;
    w.wire_bytes += s.wire_bytes;
    w.retransmissions += s.retransmissions;
    w.duplicates += r.duplicates + s.duplicates_sent;
    w.corrupt_frames += r.corrupt + link.data_parser.corrupt_frames();
    w.acks += s.acks_received;
    w.player_down_frames += r.player_down_frames;
    w.resume_frames += r.resume_frames;
  };
  for (std::size_t j = 0; j < ss.k; ++j) {
    fold(*sh.links[ss.link_base + j], w.up_bits[j], w.up_msgs[j]);
    fold(*sh.links[ss.link_base + ss.k + j], w.down_bits[j], w.down_msgs[j]);
  }
  w.virtual_time_us = sh.vnow_us;
  w.crashes = ss.crashes;
  w.replayed_charges = ss.replayed;

  ss.result = std::move(w);
  ss.closed = true;
  ss.halted.store(true);
  sh.open_ids.erase(ss.id);
  release_driver_locked(sh, ss);
  // Reclaim the session's link state — the rings, windows and scratch
  // buffers are the servicer's dominant per-session footprint, and the
  // stats they carried were just folded into ss.result. The slots go on
  // the free list so the next session of the same width reuses them. No
  // driver acts after close, so each link's driver lane goes with it.
  for (std::size_t j = 0; j < 2 * ss.k; ++j) {
    ss.lanes[j] = {};
    std::unique_ptr<LinkState>& link = sh.links[ss.link_base + j];
    link->active = false;
    link->link.close();
    link.reset();
  }
  ss.lanes = {};
  ss.charge_counts = {};
  sh.free_link_blocks.emplace_back(ss.link_base, 2 * ss.k);
  sh.work_cv.notify_one();
  sh.space_cv.notify_all();
  return ss.result;
}

void SharedServicer::rethrow_session_error(std::size_t session) const {
  const Shard& sh = *shards_[session % num_shards_];
  const std::lock_guard lock(sh.mu);
  throw_if_session_failed_locked(sh.sessions[session / num_shards_]);
}

const std::vector<std::uint8_t>& SharedServicer::session_checkpoint_bytes(
    std::size_t session, std::size_t player) const {
  const Shard& sh = *shards_[session % num_shards_];
  const std::lock_guard lock(sh.mu);
  return sh.sessions[session / num_shards_].ckpts.bytes(static_cast<std::uint32_t>(player));
}

void SharedServicer::append_control_frame(LinkState& link, const Frame& f) {
  serialize_frame_into(f, link.wire_scratch);
  link.out_data.insert(link.out_data.end(), link.wire_scratch.begin(), link.wire_scratch.end());
  link.sstats.wire_bytes += link.wire_scratch.size();
}

void SharedServicer::crash_player_locked(Shard& sh, std::size_t up_index,
                                         std::size_t down_index, std::uint32_t player,
                                         std::uint64_t phase) {
  LinkState& up = *sh.links[up_index];
  LinkState& down = *sh.links[down_index];
  up.src_down = true;    // the corpse sends nothing new and reads no acks
  down.dst_down = true;  // ...and consumes nothing from its data pipe
  const std::uint64_t deadline =
      now_us(sh) + static_cast<std::uint64_t>(opts_.retry.down_timeout.count());
  up.down_deadline_us = deadline;
  down.down_deadline_us = deadline;
  // Fence: acks the dead incarnation already emitted carry the old epoch;
  // the down-link sender drops them, because they acknowledge deliveries the
  // rewound receiver will no longer remember. The up link stays unfenced —
  // the coordinator's receiver is never rolled back, so its acks stay
  // truthful and correctly retire replayed entries.
  ++down.epoch;
  append_control_frame(
      down, make_player_down_frame(down.src, down.dst, down.ctrl_seq++, player, phase));
  sh.work_cv.notify_one();
}

void SharedServicer::restore_sender(LinkState& link, const LinkCheckpoint& ck) {
  // Replay aliasing guard: if the run sealed so many frames since the
  // barrier that replayed sequence numbers would fall into the receiver's
  // old-duplicate band, the rewound stream is ambiguous — refuse rather
  // than silently mis-deliver. (2^15 - window frames per link per phase
  // under the default modulus; a phase that big should raise max_batch
  // caps, not the modulus.)
  const std::uint32_t mod = opts_.arq.seq_modulus;
  const std::uint32_t since = seq_dist(ck.next_seq, link.next_seq, mod);
  if (since >= mod / 2 - opts_.arq.window) {
    throw NetError(NetErrorKind::kProtocol,
                   "too many frames since the last checkpoint to replay unambiguously");
  }
  link.queue.clear();
  link.window.reset(ck.next_seq);
  link.next_seq = ck.next_seq;
  // out_data survives deliberately: whole frames the dead incarnation
  // already handed to the transport ("bytes in the NIC") still arrive, and
  // the receiver's window deduplicates them against the replay.
}

void SharedServicer::restore_receiver(LinkState& link, const LinkCheckpoint& ck) {
  link.rcv.reset(ck.next_expected);
  // Roll the accounting tallies back to the barrier; the replay re-delivers
  // (and re-tallies) everything since. Wire-level counters (duplicates,
  // corrupt) stay monotonic — they describe the physical channel, not the
  // recovered state.
  link.rstats.frames = ck.frames;
  link.rstats.messages = ck.messages;
  link.rstats.payload_bits = ck.payload_bits;
  link.rstats.phase_bits = ck.phase_bits;
}

void SharedServicer::recover_player_locked(Shard& sh, std::size_t up_index,
                                           std::size_t down_index, const PlayerCheckpoint& ck,
                                           std::span<const std::uint8_t> checkpoint_bytes,
                                           SessionState& ss) {
  LinkState& up = *sh.links[up_index];
  LinkState& down = *sh.links[down_index];
  DriverLane& up_lane = ss.lanes[up_index - ss.link_base];
  DriverLane& down_lane = ss.lanes[down_index - ss.link_base];
  restore_sender(up, ck.up);      // the player's outbound link rewinds...
  restore_sender(down, ck.down);  // ...and the coordinator rewinds its link to match
  restore_receiver(down, ck.down);
  up.src_down = false;
  down.dst_down = false;
  up.down_deadline_us = 0;
  down.down_deadline_us = 0;
  append_control_frame(up, make_resume_frame(up.src, up.dst, up.ctrl_seq++, checkpoint_bytes));
  // Deterministic replay: re-seal the logged charges through the same
  // coalescing body that sealed them the first time. The logs are NOT
  // re-appended (coalesce_charge never touches them) and NOT cleared — a
  // second death in the same phase replays the same, still-growing log.
  ss.replayed += up_lane.charge_log.size() + down_lane.charge_log.size();
  replay_lane_locked(up, up_lane);
  replay_lane_locked(down, down_lane);
  sh.work_cv.notify_one();
}

void SharedServicer::finish() noexcept {
  if (finished_) return;
  // No driver acts after finish(), so every open session's driver slot is
  // released first, on every shard: the sessions then drain one at a time
  // below, and the virtual clock's quiescence rule (driving_waiting >=
  // live_drivers) must not wait on drivers that will never block.
  std::vector<std::size_t> open;
  for (std::size_t s = 0; s < num_shards_; ++s) {
    Shard& sh = *shards_[s];
    const std::lock_guard lock(sh.mu);
    for (std::size_t local = 0; local < sh.sessions.size(); ++local) {
      SessionState& ss = sh.sessions[local];
      if (ss.closed) continue;
      release_driver_locked(sh, ss);
      open.push_back(local * num_shards_ + s);
    }
  }
  for (const std::size_t session : open) (void)close_session(session);
  for (auto& shp : shards_) {
    {
      const std::lock_guard lock(shp->mu);
      shp->stop = true;
    }
    shp->work_cv.notify_all();
  }
  for (auto& shp : shards_) {
    if (shp->thread.joinable()) shp->thread.join();
  }
  finished_ = true;
}

// ---- servicer threads (one per shard) ---------------------------------------

void SharedServicer::transmit(LinkState& link, ArqSenderWindow::Entry& entry,
                              std::uint64_t now) {
  const FaultDecision d = link.injector.decide(entry.seq, entry.attempts);
  if (entry.attempts > 0) ++link.sstats.retransmissions;
  entry.deadline_us =
      now + static_cast<std::uint64_t>(opts_.retry.timeout_for(entry.attempts).count());
  ++entry.attempts;
  if (d.delay && !opts_.virtual_clock) {
    // Wire latency: the sweep stalls exactly as a slow link would. Under
    // the virtual clock delays are no-ops (they change no delivery fate).
    std::this_thread::sleep_for(std::chrono::microseconds(link.injector.plan().delay_us));
  }
  if (d.drop) return;
  serialize_frame_into(entry.frame, link.wire_scratch);
  const std::size_t start = link.out_data.size();
  link.out_data.insert(link.out_data.end(), link.wire_scratch.begin(), link.wire_scratch.end());
  link.sstats.wire_bytes += link.wire_scratch.size();
  if (d.bit_flip) {
    // Flip one bit of the body/CRC region in place; the 4-byte length
    // prefix is sacred (the parser's resynchronization anchor).
    const std::uint64_t body_bits = (link.wire_scratch.size() - 4) * std::uint64_t{8};
    const std::uint64_t bit = 32 + d.flip_bit % body_bits;
    link.out_data[start + bit / 8] ^= static_cast<std::uint8_t>(1U << (7 - bit % 8));
  }
  if (d.duplicate) {
    link.out_data.insert(link.out_data.end(), link.wire_scratch.begin(),
                         link.wire_scratch.end());
    link.sstats.wire_bytes += link.wire_scratch.size();
    ++link.sstats.duplicates_sent;
  }
}

void SharedServicer::accept_frame(Shard& sh, LinkState& link, const Frame& f) {
  ++link.rstats.frames;
  const auto tally = [&link](std::uint64_t phase, std::uint64_t bits) {
    ++link.rstats.messages;
    link.rstats.payload_bits += bits;
    if (link.rstats.phase_bits.size() <= phase) {
      link.rstats.phase_bits.resize(static_cast<std::size_t>(phase) + 1, 0);
    }
    link.rstats.phase_bits[static_cast<std::size_t>(phase)] += bits;
  };
  if (f.header.type == FrameType::kBatch) {
    // Its filler was checked on receipt; only the records are read here.
    if (!batch_frame_records(f, link.batch_scratch)) {
      throw NetError(NetErrorKind::kProtocol, "verified batch failed to re-decode");
    }
    for (const ChargeRec& rec : link.batch_scratch) tally(rec.phase, rec.bits);
  } else {
    tally(f.header.phase, f.header.payload_bits);
  }
  if (f.header.type == FrameType::kRelay) {
    // The coordinator's half of the Section 2 simulation: strip the
    // recipient id and forward the message as a solo kData frame. No
    // backpressure — the servicer must never wait on itself.
    const SessionState& ss = sh.sessions[link.session];
    const std::size_t to = decode_relay_recipient(f, ss.k);
    seal_data_frame(*sh.links[ss.link_base + ss.k + to], f.header.phase,
                    f.header.payload_bits - vertex_bits(static_cast<std::uint64_t>(ss.k)));
  }
}

void SharedServicer::handle_control_frame(LinkState& link, const Frame& f) {
  // Out of band: no sequence number, no ack, no accounting — just validate
  // and tally, so chaos tests can assert the control plane actually spoke.
  try {
    if (f.header.type == FrameType::kPlayerDown) {
      (void)decode_player_down(f);
      ++link.rstats.player_down_frames;
    } else {
      (void)decode_resume(f);
      ++link.rstats.resume_frames;
    }
  } catch (const NetError&) {
    ++link.rstats.corrupt;
  }
}

void SharedServicer::handle_data_frame(Shard& sh, LinkState& link, Frame f) {
  if (f.header.type == FrameType::kAck) return;  // not this pipe's traffic
  if (f.header.type == FrameType::kPlayerDown || f.header.type == FrameType::kResume) {
    handle_control_frame(link, f);
    return;
  }
  if (f.header.src != link.src || f.header.dst != link.dst ||
      f.header.session != link.session_id) {
    ++link.rstats.corrupt;  // CRC-valid but misaddressed (or cross-session): broken peer
    return;
  }
  // Integrity beyond the CRC before the frame can enter the window: every
  // charged bit of kData, kRelay and kBatch is compared with its filler.
  const bool intact = f.header.type == FrameType::kBatch
                          ? decode_batch_frame(f, link.batch_scratch)
                          : verify_filler_payload(f);
  if (!intact) {
    ++link.rstats.corrupt;
    return;
  }
  const auto verdict = link.rcv.on_frame(std::move(f));
  switch (verdict) {
    case ArqReceiverWindow::Verdict::kInOrder:
      for (const Frame& run : link.rcv.take_deliverable()) accept_frame(sh, link, run);
      break;
    case ArqReceiverWindow::Verdict::kBuffered:
      break;
    case ArqReceiverWindow::Verdict::kDuplicate:
      ++link.rstats.duplicates;
      break;
    case ArqReceiverWindow::Verdict::kOverrun:
      throw NetError(NetErrorKind::kProtocol,
                     "sender overran its window (seq far ahead of next_expected)");
  }
  // One ack per intact arrival — duplicates included, so a lost ack can
  // never wedge the sender, and the ack count stays a pure function of
  // the fault plan (the virtual-clock determinism contract).
  Frame ack = make_ack_frame(link.dst, link.src, link.rcv.ack(), opts_.arq.seq_modulus);
  // Epoch stamp in the otherwise-unused phase field: 0 on every clean run
  // (the bare stop-and-wait ack), the incarnation fence after a crash.
  ack.header.phase = link.epoch;
  serialize_frame_into(ack, link.wire_scratch);
  link.out_ack.insert(link.out_ack.end(), link.wire_scratch.begin(), link.wire_scratch.end());
}

bool SharedServicer::suppressed_sender(const LinkState& link) noexcept {
  // A dead sender emits nothing, and a sender whose *peer* is declared dead
  // stops at once instead of retransmitting into the void.
  return link.src_down || link.dst_down;
}

bool SharedServicer::sweep(Shard& sh, std::uint64_t now) {
  bool progress = false;
  for (auto& lp : sh.links) {
    if (!lp) continue;  // reclaimed slot: its session closed
    LinkState& link = *lp;
    if (!link.active) continue;  // closed or failed session: nothing to move
    // Admit sealed frames into the window and transmit them.
    while (!suppressed_sender(link) && !link.queue.empty() && link.window.has_space()) {
      ArqSenderWindow::Entry& e = link.window.admit(std::move(link.queue.front()));
      link.queue.pop_front();
      transmit(link, e, now);
      progress = true;
    }
    // Flush pending out-bytes (partial writes park here; never blocks).
    if (link.out_data_pos < link.out_data.size()) {
      const std::size_t n = link.link.data->write_some(std::span<const std::uint8_t>(
          link.out_data.data() + link.out_data_pos, link.out_data.size() - link.out_data_pos));
      link.out_data_pos += n;
      progress |= n > 0;
      compact(link.out_data, link.out_data_pos);
    }
    if (link.out_ack_pos < link.out_ack.size()) {
      const std::size_t n = link.link.ack->write_some(std::span<const std::uint8_t>(
          link.out_ack.data() + link.out_ack_pos, link.out_ack.size() - link.out_ack_pos));
      link.out_ack_pos += n;
      progress |= n > 0;
      compact(link.out_ack, link.out_ack_pos);
    }
    // Drain arrivals: data frames into the receiver, acks into the window.
    // A dead receiver (dst_down) reads nothing — the bytes wait in the pipe
    // and in the parser buffer until the player resumes; a dead sender
    // (src_down) likewise processes no acks.
    Frame f;
    if (!link.dst_down) {
      for (;;) {
        const int n = link.link.data->read_some(sh.read_buf);
        if (n <= 0) break;
        link.data_parser.feed(
            std::span<const std::uint8_t>(sh.read_buf.data(), static_cast<std::size_t>(n)));
        progress = true;
      }
      while (link.data_parser.next(f)) {
        progress = true;
        try {
          handle_data_frame(sh, link, std::move(f));
        } catch (const NetError& e) {
          // A protocol violation (window overrun, undecodable verified
          // batch, bad relay recipient) is contained to the link's session.
          fail_session_locked(sh, link, e.kind(), e.what());
          break;
        }
      }
      if (!link.active) continue;  // the failure above retired this link
    }
    if (!link.src_down) {
      for (;;) {
        const int n = link.link.ack->read_some(sh.read_buf);
        if (n <= 0) break;
        link.ack_parser.feed(
            std::span<const std::uint8_t>(sh.read_buf.data(), static_cast<std::size_t>(n)));
        progress = true;
      }
      while (link.ack_parser.next(f)) {
        progress = true;
        if (f.header.type != FrameType::kAck) continue;
        if (f.header.phase != link.epoch) continue;  // a dead incarnation's stale ack
        ++link.sstats.acks_received;
        if (link.window.on_ack(decode_ack_frame(f, opts_.arq.seq_modulus)) > 0) {
          sh.space_cv.notify_all();
        }
      }
    }
  }
  if (progress) sh.space_cv.notify_all();
  return progress;
}

bool SharedServicer::retransmit_due(Shard& sh, std::uint64_t now) {
  bool any = false;
  for (auto& lp : sh.links) {
    if (!lp) continue;
    LinkState& link = *lp;
    if (!link.active || suppressed_sender(link)) continue;
    link.window.due(now, sh.due_scratch);
    for (ArqSenderWindow::Entry* e : sh.due_scratch) {
      if (e->attempts > opts_.retry.max_retries) {
        fail_session_locked(sh, link, NetErrorKind::kTimeout,
                            "no ack for seq " + std::to_string(e->seq) + " after " +
                                std::to_string(e->attempts) + " attempts");
        any = true;  // the failure acted: drivers woke, the link retired
        break;
      }
      transmit(link, *e, now);
      any = true;
    }
  }
  return any;
}

void SharedServicer::check_down(Shard& sh, std::uint64_t now) {
  // A declared death that nobody resumed within down_timeout is a typed
  // session failure.
  for (const auto& lp : sh.links) {
    if (!lp) continue;
    LinkState& link = *lp;
    if (!link.active) continue;
    if (link.down_deadline_us != 0 && now >= link.down_deadline_us) {
      fail_session_locked(sh, link, NetErrorKind::kPlayerDown,
                          "player on link " + std::to_string(link.link_id) +
                              " declared down and did not resume within down_timeout");
    }
  }
}

bool SharedServicer::earliest_deadline(const Shard& sh, std::uint64_t& out) const noexcept {
  // The earliest *actionable* deadline: suppressed windows never act
  // (jumping to them would spin); a down deadline is where check_down
  // fails the session.
  std::uint64_t earliest = 0;
  bool found = false;
  const auto consider = [&](std::uint64_t d) {
    if (!found || d < earliest) earliest = d;
    found = true;
  };
  for (const auto& link : sh.links) {
    if (!link || !link->active) continue;
    if (!suppressed_sender(*link)) {
      std::uint64_t d = 0;
      if (link->window.next_deadline(d)) consider(d);
    }
    if (link->down_deadline_us != 0) consider(link->down_deadline_us);
  }
  out = earliest;
  return found;
}

void SharedServicer::advance_virtual_clock(Shard& sh, std::uint64_t t) {
  // The hub moved logical time to `t` at global quiescence: every readable
  // byte had been consumed, so ack knowledge is complete and any
  // still-unacked entry due by now truly needs another attempt.
  sh.vnow_us = std::max(sh.vnow_us, t);
  retransmit_due(sh, sh.vnow_us);
  check_down(sh, sh.vnow_us);  // fails the owning session if the jump landed on a down deadline
}

void SharedServicer::run(Shard& sh) noexcept {
  std::unique_lock lock(sh.mu);
  // Whether this shard currently holds an idle slot at the hub; used to
  // withdraw it the moment local work reappears.
  bool idle_published = false;
  try {
    for (;;) {
      // Another shard may have advanced the global clock while we slept;
      // act on the new time before anything else so our retransmits fire
      // at the same logical instant as everyone else's.
      if (hub_ != nullptr && hub_->now() > sh.vnow_us) {
        idle_published = false;  // the advance cleared every hub slot
        advance_virtual_clock(sh, hub_->now());
        if (sh.error_kind) break;
      }
      const std::uint64_t now = now_us(sh);
      bool progress = sweep(sh, now);
      if (sh.error_kind) break;
      if (!opts_.virtual_clock) {
        progress |= retransmit_due(sh, now);
        check_down(sh, now);
        if (sh.error_kind) break;
      }
      if (progress) {
        if (idle_published) {
          hub_->publish_active(sh.index);
          idle_published = false;
        }
        continue;
      }
      if (sh.stop && all_drained(sh)) break;
      if (hub_ != nullptr) {
        // Quiescence: locally idle means every live session's driver is
        // blocked (or none is live — an empty shard must not hold up its
        // siblings). A driver still computing may yet enqueue work or acks
        // that change retransmission fates, so jumping early would make the
        // clock scheduling-dependent. Publish to the hub; whichever shard
        // publishes the last missing slot performs the global jump and
        // pokes the rest.
        const bool quiescent = sh.stop || sh.live_drivers == 0 ||
                               (sh.driving_waiting > 0 && sh.driving_waiting >= sh.live_drivers);
        if (quiescent) {
          // Publish every quiescent lap (idempotent): an advance or a
          // driver's publish_active clears our hub slot behind our back,
          // and skipping the re-publish would wedge the barrier.
          std::uint64_t dl = 0;
          const bool has_dl = earliest_deadline(sh, dl);
          if (hub_->publish_idle(sh.index, has_dl, dl)) {
            idle_published = false;
            advance_virtual_clock(sh, hub_->now());
            if (sh.error_kind) break;
            continue;
          }
          idle_published = true;
        }
        sh.space_cv.notify_all();
        // The hub notifies our condvar without holding our mutex, so this
        // wait must be bounded: a lost cross-shard wakeup costs one lap of
        // the timeout, never a hang (and never a count). Every other wake
        // comes under our mutex, so the bound only caps that stall and sets
        // how often an idle shard re-checks; a tighter one buys nothing
        // but CPU.
        sh.work_cv.wait_for(lock, std::chrono::milliseconds(2));
      } else {
        sh.space_cv.notify_all();
        auto wake = Clock::now() + std::chrono::milliseconds(200);
        std::uint64_t d = 0;
        if (earliest_deadline(sh, d)) {
          wake = std::min(wake, epoch_ + std::chrono::microseconds(d));
        }
        if (opts_.timed_recheck && anything_unacked(sh)) {
          // Kernel-buffered transport: bytes may become readable without
          // any condvar signal; recheck soon.
          wake = std::min(wake, Clock::now() + std::chrono::microseconds(500));
        }
        sh.work_cv.wait_until(lock, wake);
      }
    }
  } catch (const NetError& e) {
    record_error(sh, e.kind(), e.what());
  } catch (const std::exception& e) {
    record_error(sh, NetErrorKind::kProtocol, e.what());
  }
  if (hub_ != nullptr) hub_->publish_exit(sh.index);
  sh.space_cv.notify_all();
}

}  // namespace tft::net

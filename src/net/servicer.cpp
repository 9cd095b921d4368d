#include "net/servicer.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <deque>
#include <utility>

#include "net/mpsc.h"
#include "net/vclock_hub.h"
#include "util/bits.h"

namespace tft::net {

namespace {

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

inline void cpu_pause() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

}  // namespace

/// Everything one directed link owns: the driving side's open batch and
/// sealed-frame queue, the sender window with its pending out-bytes, and
/// the receiving state machine with its ack out-bytes. All of it guarded
/// by the owning shard's mutex.
struct SharedServicer::LinkState {
  LinkState(Link l, std::uint32_t id, std::uint32_t s, std::uint32_t d, const Options& opts,
            const FaultPlan& faults, std::uint32_t sess_id, std::size_t sess_index, bool log)
      : link(std::move(l)),
        link_id(id),
        src(s),
        dst(d),
        injector(faults, id, sess_id),
        session_id(sess_id),
        session(sess_index),
        log_charges(log),
        window(opts.arq),
        rcv(opts.arq) {}

  Link link;  ///< minted by open_session; closed at close_session
  std::uint32_t link_id;
  std::uint32_t src;
  std::uint32_t dst;
  FaultInjector injector;
  std::uint32_t session_id;  ///< wire session id stamped on every frame
  std::size_t session;       ///< shard-local session index
  bool log_charges;          ///< append to charge_log (crash tolerance)
  /// Cleared when the owning session closes or fails: an inactive link
  /// counts as drained, is skipped by the sweep, and holds no deadlines.
  bool active = true;

  // Driving side (sealed under the shard mutex by the enqueue calls, or by
  // the poller draining the charge ring).
  std::vector<ChargeRec> open_batch;
  std::uint64_t open_batch_bits = 0;
  std::uint32_t next_seq = 0;
  std::deque<Frame> queue;  ///< sealed, awaiting window admission
  /// Fast-path backpressure mirror of queue.size(), published into the
  /// owning session's depth array so lock-free charges can respect
  /// pending_cap (approximately: entries still in the ring are not
  /// counted, so the true bound is pending_cap + ring capacity). Null on
  /// single-shard servicers.
  std::atomic<std::uint32_t>* depth_slot = nullptr;

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

  // Crash tolerance (SessionOptions::crash_tolerance). `barrier` +
  // `charge_log` are the recovery pair: the lane state at the last flush and
  // the charges sealed since — replaying the log from the barrier
  // regenerates the frame stream bit for bit.
  LinkCheckpoint barrier;
  std::vector<ChargeRec> charge_log;
  bool src_down = false;   ///< this link's sender died (a dead player's up link)
  bool dst_down = false;   ///< this link's receiver died (a dead player's down link)
  std::uint64_t down_deadline_us = 0;  ///< resume-or-fail deadline while down
  std::uint32_t ctrl_seq = 0;          ///< out-of-band control frame ordinal
  std::uint64_t epoch = 0;  ///< ack fence: bumped each time the receiver dies

  [[nodiscard]] bool drained() const noexcept {
    return !active || (open_batch.empty() && queue.empty() && window.empty());
  }
};

/// One charge command on a shard's lock-free ring: the fast-path form of
/// session_charge, sealed by the poller in push order.
struct SharedServicer::ChargeCmd {
  std::uint32_t session = 0;  ///< shard-local session index
  std::uint32_t player = 0;
  bool upstream = false;
  std::uint64_t bits = 0;
  std::uint64_t phase = 0;
};

/// A session row plus the lock-free state its driver's fast path reads
/// without the shard mutex. Rows live in a deque and are never moved
/// (the atomics pin them), so pointers published in the shard's segment
/// table stay valid for the servicer's lifetime.
struct SharedServicer::SessionRt {
  SessionState st;
  /// Immutable after open_session: the session can ever use the ring at
  /// all (multi-shard, no per-frame blocking, no crash schedule).
  bool fast_eligible = false;
  /// Mirror of st.failed() || st.closed for lock-free rejection; set under
  /// the shard lock wherever the underlying state changes.
  std::atomic<bool> failed_or_closed{false};
  /// Ring accounting: cmds the driver pushed vs. cmds the poller sealed.
  /// Slow-path entries wait for consumed == pushed before touching link
  /// state, so the per-link charge order is identical to a lock-only run.
  std::atomic<std::uint64_t> pushed{0};
  std::atomic<std::uint64_t> consumed{0};
  /// Per-link queue depths (2k slots), mirrored from LinkState::queue by
  /// the poller for fast-path backpressure.
  std::unique_ptr<std::atomic<std::uint32_t>[]> depth;
};

/// One self-contained servicer engine: the pre-shard SharedServicer's
/// entire mutable state, times num_shards. Sessions are pinned here for
/// life; nothing below is ever touched by another shard's poller.
struct SharedServicer::Shard {
  explicit Shard(std::size_t idx, std::size_t ring_capacity)
      : index(idx), charges(ring_capacity), read_buf(std::size_t{1} << 16) {}

  const std::size_t index;

  mutable std::mutex mu;
  std::condition_variable work_cv;   ///< wakes the poller (new work / stop)
  std::condition_variable space_cv;  ///< wakes driving waits (space / drain / error)
  /// Written under mu (condvar discipline) but atomic so the poller's
  /// lock-free spin can observe it.
  std::atomic<bool> stop{false};
  /// Lock-free mirror of error_kind for the charge fast path.
  std::atomic<bool> has_error{false};
  /// Poller-is-parked flag for the producer-side wakeup (Dekker with a
  /// seq_cst fence: producers push, fence, load parked; the poller stores
  /// parked, fence-equivalent, re-checks the ring).
  std::atomic<bool> parked{false};

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
  /// The session table (deque: rows never move, so checkpoint references
  /// and published SessionRt pointers stay valid). Guarded by mu.
  std::deque<SessionRt> sessions;

  /// Lock-free navigation from a shard-local session index to its row:
  /// a fixed two-level table of published pointers, so the charge fast
  /// path never walks the deque while open_session grows it. Segments are
  /// allocated under mu and published with release; a driver only ever
  /// looks up an index it received from open_session, which
  /// happens-before any of its charges.
  static constexpr std::size_t kSegShift = 9;
  static constexpr std::size_t kSegSize = std::size_t{1} << kSegShift;
  static constexpr std::size_t kMaxSegs = std::size_t{1} << 12;
  struct SessionSeg {
    SessionRt* rows[kSegSize] = {};
  };
  std::array<std::atomic<SessionSeg*>, kMaxSegs> segs{};
  std::vector<std::unique_ptr<SessionSeg>> seg_storage;  ///< under mu

  /// The MPSC charge ring (fast path; unused at num_shards = 1).
  BoundedMpscQueue<ChargeCmd> charges;

  /// Shard-local frame buffers: each poller reads, parses and scratches in
  /// its own arenas, so shards share no hot memory.
  std::vector<std::uint8_t> read_buf;
  std::vector<ArqSenderWindow::Entry*> due_scratch;

  std::thread thread;

  [[nodiscard]] SessionRt* lookup(std::size_t local) const noexcept {
    const SessionSeg* seg = segs[local >> kSegShift].load(std::memory_order_acquire);
    return seg == nullptr ? nullptr : seg->rows[local & (kSegSize - 1)];
  }
};

SharedServicer::SharedServicer(const Options& opts) : opts_(opts) {
  opts_.arq.validate();
  if (opts_.virtual_clock && opts_.timed_recheck) {
    throw NetError(NetErrorKind::kSetup,
                   "virtual clock requires an in-process transport (kernel-buffered "
                   "transports cannot reach quiescence deterministically)");
  }
  num_shards_ = std::max<std::size_t>(1, opts_.num_shards);
  multi_shard_ = num_shards_ > 1;
  shards_.reserve(num_shards_);
  for (std::size_t i = 0; i < num_shards_; ++i) {
    shards_.push_back(std::make_unique<Shard>(i, /*ring_capacity=*/4096));
  }
  if (opts_.virtual_clock && multi_shard_) {
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
      shp->stop.store(true, std::memory_order_relaxed);
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
  for (const SessionRt& other : sh.sessions) {
    if (!other.st.closed && other.st.id == so.session_id) {
      throw NetError(NetErrorKind::kSetup,
                     "session id " + std::to_string(so.session_id) + " already open");
    }
  }
  const std::size_t local = sh.sessions.size();
  if ((local >> Shard::kSegShift) >= Shard::kMaxSegs) {
    throw NetError(NetErrorKind::kSetup, "session table full on shard " +
                                             std::to_string(shard_idx));
  }
  sh.sessions.emplace_back();
  SessionRt& rt = sh.sessions.back();
  SessionState& ss = rt.st;
  ss.id = so.session_id;
  ss.k = so.num_players;
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
  ss.charge_counts.resize(so.num_players);

  rt.fast_eligible = multi_shard_ && !opts_.arq.block_per_frame &&
                     !(ss.crash_tolerance && ss.faults.has_crashes());
  if (multi_shard_) {
    rt.depth = std::make_unique<std::atomic<std::uint32_t>[]>(2 * so.num_players);
    for (std::size_t j = 0; j < 2 * so.num_players; ++j) {
      rt.depth[j].store(0, std::memory_order_relaxed);
    }
  }

  const std::uint32_t coord = static_cast<std::uint32_t>(so.num_players);
  // The solo-session numbering, per session: up link j has id j, down link
  // j has id k+1+j. Fault and filler keying add the session id on top, so
  // a multiplexed session's byte stream equals the same session run alone.
  for (std::size_t j = 0; j < 2 * so.num_players; ++j) {
    const bool up = j < so.num_players;
    const std::uint32_t pj = static_cast<std::uint32_t>(up ? j : j - so.num_players);
    auto ls = std::make_unique<LinkState>(
        std::move(minted[j]), /*link_id=*/up ? pj : coord + 1 + pj, /*src=*/up ? pj : coord,
        /*dst=*/up ? coord : pj, opts_, ss.faults, ss.id, local,
        /*log=*/ss.crash_tolerance);
    if (multi_shard_) ls->depth_slot = &rt.depth[j];
    if (grow) {
      sh.links.push_back(std::move(ls));
    } else {
      sh.links[ss.link_base + j] = std::move(ls);
    }
  }

  // Publish the row for lock-free fast-path navigation.
  const std::size_t seg_idx = local >> Shard::kSegShift;
  Shard::SessionSeg* seg = sh.segs[seg_idx].load(std::memory_order_relaxed);
  if (seg == nullptr) {
    auto fresh = std::make_unique<Shard::SessionSeg>();
    fresh->rows[local & (Shard::kSegSize - 1)] = &rt;
    seg = fresh.get();
    sh.seg_storage.push_back(std::move(fresh));
    sh.segs[seg_idx].store(seg, std::memory_order_release);
  } else {
    seg->rows[local & (Shard::kSegSize - 1)] = &rt;
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
    sh.has_error.store(true, std::memory_order_release);
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

void SharedServicer::note_depth(LinkState& link) noexcept {
  if (link.depth_slot != nullptr) {
    link.depth_slot->store(static_cast<std::uint32_t>(link.queue.size()),
                           std::memory_order_relaxed);
  }
}

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
  note_depth(link);
}

void SharedServicer::seal_open_batch(LinkState& link) {
  if (link.open_batch.empty()) return;
  if (link.open_batch.size() == 1) {
    // A batch of one is emitted as a plain kData frame: byte-identical to
    // the uncoalesced encoding, and a solo oversized charge keeps the
    // full kMaxPayloadBits headroom.
    seal_data_frame(link, link.open_batch.front().phase, link.open_batch.front().bits);
  } else {
    Frame f = make_batch_frame(link.src, link.dst, link.next_seq, link.open_batch,
                               link.session_id);
    link.next_seq = (link.next_seq + 1) % opts_.arq.seq_modulus;
    link.queue.push_back(std::move(f));
    note_depth(link);
  }
  link.open_batch.clear();
  link.open_batch_bits = 0;
}

void SharedServicer::seal_charge(LinkState& link, std::uint64_t phase, std::uint64_t bits) {
  if (opts_.arq.coalesce) {
    const bool fits = link.open_batch.empty() ||
                      (link.open_batch.size() < opts_.arq.max_batch_msgs &&
                       link.open_batch_bits + bits <= opts_.arq.max_batch_bits &&
                       link.open_batch.front().phase == phase);
    if (!fits) seal_open_batch(link);
    link.open_batch.push_back({phase, bits});
    link.open_batch_bits += bits;
    if (link.open_batch.size() >= opts_.arq.max_batch_msgs ||
        link.open_batch_bits >= opts_.arq.max_batch_bits) {
      seal_open_batch(link);
    }
  } else {
    seal_data_frame(link, phase, bits);
  }
}

void SharedServicer::wait_for_space(Shard& sh, std::unique_lock<std::mutex>& lock,
                                    LinkState& link) {
  // Backpressure: cap the sealed-but-unadmitted queue. The wait also
  // breaks on *its own* session failing — another session's trouble never
  // wakes (or wedges) this driver.
  const SessionState& ss = sh.sessions[link.session].st;
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
  SessionRt& rt = sh.sessions[link.session];
  SessionState& ss = rt.st;
  if (ss.failed()) return;
  ss.error_kind = kind;
  ss.error_what = std::move(what);
  rt.failed_or_closed.store(true, std::memory_order_release);
  // Retire the session's links so the sweep skips them, their deadlines
  // stop driving the clock, and drained() holds — other sessions and the
  // global finish() never wait on a corpse.
  for (std::size_t i = ss.link_base; i < ss.link_base + 2 * ss.k; ++i) {
    if (sh.links[i]) sh.links[i]->active = false;
  }
  release_driver_locked(sh, ss);
  sh.space_cv.notify_all();
}

void SharedServicer::drain_session_ring_locked(Shard& sh, std::unique_lock<std::mutex>& lock,
                                               SessionRt& rt) {
  // Order fence between the two charge paths: any ring entries this
  // session's driver pushed must seal before the slow path reads or
  // mutates link state, or the per-link charge order (and hence the frame
  // stream) would depend on timing.
  if (!multi_shard_) return;
  const std::uint64_t target = rt.pushed.load(std::memory_order_relaxed);
  if (rt.consumed.load(std::memory_order_acquire) >= target) return;
  ++sh.driving_waiting;
  while (!sh.error_kind && !rt.st.failed() &&
         rt.consumed.load(std::memory_order_acquire) < target) {
    sh.work_cv.notify_one();
    sh.space_cv.wait_for(lock, std::chrono::seconds(1));
  }
  --sh.driving_waiting;
  if (hub_ != nullptr) hub_->publish_active(sh.index);
}

void SharedServicer::session_barrier_locked(Shard& sh, std::unique_lock<std::mutex>& lock,
                                            SessionState& ss) {
  for (std::size_t i = ss.link_base; i < ss.link_base + 2 * ss.k; ++i) {
    seal_open_batch(*sh.links[i]);
  }
  sh.work_cv.notify_one();
  ++sh.driving_waiting;
  while (!sh.error_kind && !ss.failed() && !session_drained_locked(sh, ss)) {
    sh.work_cv.notify_one();
    sh.space_cv.wait_for(lock, std::chrono::seconds(1));
  }
  --sh.driving_waiting;
  if (hub_ != nullptr) hub_->publish_active(sh.index);
  throw_if_error_locked(sh);
  throw_if_session_failed_locked(ss);
  if (ss.crash_tolerance) {
    // The checkpoint instant, scoped to this session: its queues, windows
    // and out-buffers are drained end to end, so each of its links' state
    // is fully captured by this snapshot, and its charge logs restart
    // empty. Other sessions' pipelines are none of our business.
    for (std::size_t i = ss.link_base; i < ss.link_base + 2 * ss.k; ++i) {
      LinkState& link = *sh.links[i];
      link.barrier.next_seq = link.next_seq;
      link.barrier.next_expected = link.rcv.next_expected();
      link.barrier.frames = link.rstats.frames;
      link.barrier.messages = link.rstats.messages;
      link.barrier.payload_bits = link.rstats.payload_bits;
      link.barrier.phase_bits = link.rstats.phase_bits;
      link.charge_log.clear();
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

void SharedServicer::maybe_crash_locked(Shard& sh, SessionRt& rt, std::size_t player,
                                        std::uint64_t phase) {
  SessionState& ss = rt.st;
  auto& counts = ss.charge_counts[player];
  if (counts.size() <= phase) counts.resize(static_cast<std::size_t>(phase) + 1, 0);
  const std::uint64_t count = counts[static_cast<std::size_t>(phase)]++;
  const std::optional<std::uint64_t> off =
      crash_offset(ss.faults, static_cast<std::uint32_t>(player), phase, ss.id);
  if (!off || *off != count) return;
  // The process dies between two charges — never mid-frame. The servicer
  // fences the corpse's lanes and announces the death...
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

void SharedServicer::wake_shard(Shard& sh) {
  // Producer half of the park protocol: the fence orders our ring push
  // against the parked load; either we see parked (and deliver a locked
  // notify the poller cannot miss) or the poller's post-park ring re-check
  // sees our push.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (sh.parked.load(std::memory_order_relaxed)) {
    const std::lock_guard lk(sh.mu);
    sh.work_cv.notify_one();
  }
}

void SharedServicer::session_charge(std::size_t session, std::size_t player, bool upstream,
                                    std::uint64_t bits, std::uint64_t phase) {
  const std::size_t shard_idx = session % num_shards_;
  const std::size_t local = session / num_shards_;
  Shard& sh = *shards_[shard_idx];
  if (multi_shard_) {
    // Lock-free fast path: same phase, healthy session, queue below the
    // cap — push the charge onto the shard's ring and return without ever
    // touching the mutex. `last_phase` and `closed` are driver-owned
    // (written only by this thread's slow-path calls), so reading them
    // unlocked is race-free; everything else is atomic.
    SessionRt* rt = sh.lookup(local);
    if (rt != nullptr && rt->fast_eligible && player < rt->st.k &&
        phase == rt->st.last_phase && !sh.has_error.load(std::memory_order_relaxed) &&
        !rt->failed_or_closed.load(std::memory_order_acquire)) {
      const std::size_t off = upstream ? player : rt->st.k + player;
      if (rt->depth[off].load(std::memory_order_relaxed) <= opts_.arq.pending_cap &&
          sh.charges.try_push(ChargeCmd{static_cast<std::uint32_t>(local),
                                        static_cast<std::uint32_t>(player), upstream, bits,
                                        phase})) {
        rt->pushed.fetch_add(1, std::memory_order_relaxed);
        wake_shard(sh);
        return;
      }
    }
  }
  std::unique_lock lock(sh.mu);
  SessionRt& rt = enter_session_locked(sh, lock, local, player);
  SessionState& ss = rt.st;
  // Phase barrier: the session's pipeline drains completely before the
  // first charge of a new phase, so frames never mix phases and the
  // executed run keeps the round structure the Transcript records.
  if (phase != ss.last_phase) {
    session_barrier_locked(sh, lock, ss);
    ss.last_phase = phase;
    if (ss.crash_tolerance) refresh_session_checkpoints_locked(sh, ss);
  }
  if (ss.crash_tolerance && ss.faults.has_crashes()) maybe_crash_locked(sh, rt, player, phase);
  LinkState& link = *sh.links[ss.link_base + (upstream ? player : ss.k + player)];
  const std::size_t sealed_before = link.queue.size();
  // The log, not the live queue, is recovery's source of truth: replaying
  // it through seal_charge reproduces the coalescing decisions and hence
  // the exact frame stream (which is a pure per-link function of the
  // per-link charge sequence).
  if (link.log_charges) link.charge_log.push_back({phase, bits});
  seal_charge(link, phase, bits);
  // Wake the servicer only when a frame was actually sealed: a charge that
  // merely grew the open batch gives it nothing to do, and this is the
  // windowed pipeline's hot loop.
  if (link.queue.size() != sealed_before) sh.work_cv.notify_one();
  wait_for_space(sh, lock, link);
}

SharedServicer::SessionRt& SharedServicer::enter_session_locked(Shard& sh,
                                                                std::unique_lock<std::mutex>& lock,
                                                                std::size_t local,
                                                                std::size_t player) {
  SessionRt& rt = sh.sessions[local];
  drain_session_ring_locked(sh, lock, rt);
  throw_if_error_locked(sh);
  throw_if_session_failed_locked(rt.st);
  if (rt.st.closed) {
    throw NetError(NetErrorKind::kClosed, "charge after the session closed");
  }
  if (player >= rt.st.k) {
    throw NetError(NetErrorKind::kProtocol, "charge names a player outside [0, k)");
  }
  return rt;
}

void SharedServicer::session_relay(std::size_t session, std::size_t player,
                                   std::size_t recipient, std::uint64_t bits) {
  Shard& sh = *shards_[session % num_shards_];
  std::unique_lock lock(sh.mu);
  SessionState& ss = enter_session_locked(sh, lock, session / num_shards_, player).st;
  if (recipient >= ss.k) {
    throw NetError(NetErrorKind::kProtocol, "relay names a recipient outside [0, k)");
  }
  LinkState& link = *sh.links[ss.link_base + player];
  link.queue.push_back(
      make_relay_frame(link.src, link.next_seq, ss.k, recipient, bits, link.session_id));
  link.next_seq = (link.next_seq + 1) % opts_.arq.seq_modulus;
  note_depth(link);
  sh.work_cv.notify_one();
  wait_for_space(sh, lock, link);
}

void SharedServicer::session_flush(std::size_t session) {
  Shard& sh = *shards_[session % num_shards_];
  std::unique_lock lock(sh.mu);
  SessionRt& rt = sh.sessions[session / num_shards_];
  drain_session_ring_locked(sh, lock, rt);
  SessionState& ss = rt.st;
  throw_if_error_locked(sh);
  throw_if_session_failed_locked(ss);
  if (ss.closed) return;
  session_barrier_locked(sh, lock, ss);
  if (ss.crash_tolerance) refresh_session_checkpoints_locked(sh, ss);
}

WireStats SharedServicer::close_session(std::size_t session) {
  Shard& sh = *shards_[session % num_shards_];
  std::unique_lock lock(sh.mu);
  SessionRt& rt = sh.sessions[session / num_shards_];
  SessionState& ss = rt.st;
  if (ss.closed) return ss.result;
  drain_session_ring_locked(sh, lock, rt);
  // Best-effort drain: a healthy session flushes end to end so its fold is
  // complete; a failed one skips straight to folding what crossed the wire.
  if (!ss.failed() && !sh.error_kind) {
    for (std::size_t i = ss.link_base; i < ss.link_base + 2 * ss.k; ++i) {
      seal_open_batch(*sh.links[i]);
    }
    ++sh.driving_waiting;
    while (!sh.error_kind && !ss.failed() && !session_drained_locked(sh, ss)) {
      sh.work_cv.notify_one();
      sh.space_cv.wait_for(lock, std::chrono::seconds(1));
    }
    --sh.driving_waiting;
    if (hub_ != nullptr) hub_->publish_active(sh.index);
  }

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
  rt.failed_or_closed.store(true, std::memory_order_release);
  release_driver_locked(sh, ss);
  // Reclaim the session's link state — the rings, windows and scratch
  // buffers are the servicer's dominant per-session footprint, and the
  // stats they carried were just folded into ss.result. The slots go on
  // the free list so the next session of the same width reuses them.
  for (std::size_t i = ss.link_base; i < ss.link_base + 2 * ss.k; ++i) {
    sh.links[i]->active = false;
    sh.links[i]->link.close();
    sh.links[i].reset();
  }
  sh.free_link_blocks.emplace_back(ss.link_base, 2 * ss.k);
  sh.work_cv.notify_one();
  sh.space_cv.notify_all();
  return ss.result;
}

void SharedServicer::rethrow_session_error(std::size_t session) const {
  const Shard& sh = *shards_[session % num_shards_];
  const std::lock_guard lock(sh.mu);
  throw_if_session_failed_locked(sh.sessions[session / num_shards_].st);
}

const std::vector<std::uint8_t>& SharedServicer::session_checkpoint_bytes(
    std::size_t session, std::size_t player) const {
  const Shard& sh = *shards_[session % num_shards_];
  const std::lock_guard lock(sh.mu);
  return sh.sessions[session / num_shards_].st.ckpts.bytes(static_cast<std::uint32_t>(player));
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
  link.open_batch.clear();
  link.open_batch_bits = 0;
  link.queue.clear();
  note_depth(link);
  link.window.reset(ck.next_seq);
  link.next_seq = ck.next_seq;
  // out_data survives deliberately: whole frames the dead incarnation
  // already handed to the transport ("bytes in the NIC") still arrive, and
  // the receiver's window deduplicates them against the replay.
}

void SharedServicer::restore_receiver(LinkState& link, const LinkCheckpoint& ck) {
  link.rcv.reset(ck.next_expected);
  // Roll the accounting tallies back to the barrier; the replay re-delivers
  // (and re-tallies) everything since. Wire-level counters (bytes_read,
  // duplicates, corrupt) stay monotonic — they describe the physical
  // channel, not the recovered state.
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
  restore_sender(up, ck.up);      // the player's outbound lane rewinds...
  restore_sender(down, ck.down);  // ...and the coordinator rewinds its lane to match
  restore_receiver(down, ck.down);
  up.src_down = false;
  down.dst_down = false;
  up.down_deadline_us = 0;
  down.down_deadline_us = 0;
  append_control_frame(up, make_resume_frame(up.src, up.dst, up.ctrl_seq++, checkpoint_bytes));
  // Deterministic replay: re-seal the logged charges through the same
  // coalescing path that sealed them the first time. The logs are NOT
  // re-appended (seal_charge never touches them) and NOT cleared — a second
  // death in the same phase replays the same, still-growing log.
  ss.replayed += up.charge_log.size() + down.charge_log.size();
  for (const ChargeRec& rec : up.charge_log) seal_charge(up, rec.phase, rec.bits);
  for (const ChargeRec& rec : down.charge_log) seal_charge(down, rec.phase, rec.bits);
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
      SessionState& ss = sh.sessions[local].st;
      if (ss.closed) continue;
      release_driver_locked(sh, ss);
      open.push_back(local * num_shards_ + s);
    }
  }
  for (const std::size_t session : open) (void)close_session(session);
  for (auto& shp : shards_) {
    {
      const std::lock_guard lock(shp->mu);
      shp->stop.store(true, std::memory_order_relaxed);
    }
    shp->work_cv.notify_all();
  }
  for (auto& shp : shards_) {
    if (shp->thread.joinable()) shp->thread.join();
  }
  finished_ = true;
}

// ---- servicer threads (one per shard) ---------------------------------------

std::size_t SharedServicer::drain_charges(Shard& sh) {
  // The single-consumer side of the fast path: seal ring charges in push
  // order under the shard lock. One driver per session means per-link
  // charge order equals driver program order — the same order the locked
  // path would have produced.
  std::size_t n = 0;
  ChargeCmd cmd;
  while (sh.charges.try_pop(cmd)) {
    ++n;
    SessionRt& rt = sh.sessions[cmd.session];
    SessionState& ss = rt.st;
    if (!ss.failed() && !ss.closed) {
      LinkState& link =
          *sh.links[ss.link_base + (cmd.upstream ? cmd.player : ss.k + cmd.player)];
      if (link.log_charges) link.charge_log.push_back({cmd.phase, cmd.bits});
      seal_charge(link, cmd.phase, cmd.bits);
    }
    // Count even skipped cmds: slow-path fences wait on consumed == pushed.
    rt.consumed.fetch_add(1, std::memory_order_release);
  }
  if (n > 0) sh.space_cv.notify_all();
  return n;
}

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
    if (!decode_batch_frame(f, link.batch_scratch)) {
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
    const SessionState& ss = sh.sessions[link.session].st;
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
  // Integrity beyond the CRC before the frame can enter the window.
  if (f.header.type == FrameType::kData && !verify_filler_payload(f)) {
    ++link.rstats.corrupt;
    return;
  }
  if (f.header.type == FrameType::kBatch && !decode_batch_frame(f, link.batch_scratch)) {
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
  // (byte-identical to the legacy ack), the incarnation fence after a crash.
  ack.header.phase = link.epoch;
  serialize_frame_into(ack, link.wire_scratch);
  link.out_ack.insert(link.out_ack.end(), link.wire_scratch.begin(), link.wire_scratch.end());
}

bool SharedServicer::suppressed_sender(const LinkState& link) const noexcept {
  // A dead sender emits nothing. A sender whose *peer* is declared dead
  // stops only under fail-fast; the legacy discipline keeps retransmitting
  // into the void until the backoff budget burns out as kTimeout.
  return link.src_down || (link.dst_down && opts_.retry.fail_fast_on_down);
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
    note_depth(link);
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
        const int n = link.link.data->read_some(sh.read_buf, Clock::now());
        if (n <= 0) break;
        link.rstats.bytes_read += static_cast<std::uint64_t>(n);
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
        const int n = link.link.ack->read_some(sh.read_buf, Clock::now());
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
        const std::size_t retired =
            link.window.on_ack(decode_ack_frame(f, opts_.arq.seq_modulus));
        link.sstats.frames_sent += retired;
        if (retired > 0) sh.space_cv.notify_all();
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
  // The fail-fast discipline only: a declared death that nobody resumed
  // within down_timeout is a typed session failure. Under the legacy
  // discipline the deadline is ignored and the dead link degrades to
  // kTimeout through the ordinary backoff budget.
  if (!opts_.retry.fail_fast_on_down) return;
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
  // (jumping to them would spin), and down deadlines only qualify when
  // check_down will actually throw at them.
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
    if (opts_.retry.fail_fast_on_down && link->down_deadline_us != 0) {
      consider(link->down_deadline_us);
    }
  }
  out = earliest;
  return found;
}

bool SharedServicer::advance_virtual_clock(Shard& sh) {
  // Quiescence: every readable byte has been consumed, so ack knowledge is
  // complete and any still-unacked entry truly needs another attempt. Jump
  // logical time to the earliest actionable deadline and fire.
  std::uint64_t earliest = 0;
  if (!earliest_deadline(sh, earliest)) return false;
  sh.vnow_us = std::max(sh.vnow_us, earliest);
  retransmit_due(sh, sh.vnow_us);
  check_down(sh, sh.vnow_us);  // fails the owning session if the jump landed on a down deadline
  return true;                 // a jump always acted: a retransmit fired or a failure recorded
}

void SharedServicer::park_and_wait(Shard& sh, std::unique_lock<std::mutex>& lock,
                                   std::chrono::microseconds dur) {
  // Adaptive spin-then-park: poll the charge ring lock-free for a moment —
  // the overwhelmingly common service-plane wakeup — before paying for a
  // real park. Producers that find `parked` set take the mutex to notify,
  // so the wakeup can never be lost; the seq_cst store/fence pair closes
  // the push-vs-park race in the other direction.
  lock.unlock();
  bool work = false;
  for (int i = 0; i < 256; ++i) {
    if (!sh.charges.approx_empty() || sh.stop.load(std::memory_order_relaxed)) {
      work = true;
      break;
    }
    cpu_pause();
  }
  lock.lock();
  if (work) return;
  sh.parked.store(true, std::memory_order_seq_cst);
  if (!sh.charges.approx_empty()) {
    sh.parked.store(false, std::memory_order_relaxed);
    return;
  }
  sh.work_cv.wait_for(lock, dur);
  sh.parked.store(false, std::memory_order_relaxed);
}

void SharedServicer::run(Shard& sh) noexcept {
  std::unique_lock lock(sh.mu);
  // Whether this shard currently holds an idle slot at the hub; used to
  // withdraw it the moment local work reappears.
  bool idle_published = false;
  try {
    for (;;) {
      if (hub_ != nullptr) {
        // Another shard may have advanced the global clock while we slept;
        // act on the new time before anything else so our retransmits fire
        // at the same logical instant as everyone else's.
        const std::uint64_t t = hub_->now();
        if (t > sh.vnow_us) {
          sh.vnow_us = t;
          idle_published = false;  // the advance cleared every hub slot
          retransmit_due(sh, t);
          check_down(sh, t);
          if (sh.error_kind) break;
        }
      }
      bool progress = multi_shard_ && drain_charges(sh) > 0;
      const std::uint64_t now = now_us(sh);
      if (sweep(sh, now)) progress = true;
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
      if (sh.stop.load(std::memory_order_relaxed) && all_drained(sh)) break;
      if (opts_.virtual_clock) {
        if (hub_ == nullptr) {
          // Single shard: the legacy quiescence rule, bit for bit. Every
          // live session's driver must be blocked (driving_waiting >=
          // live_drivers): a driver still computing may yet enqueue work or
          // acks that change retransmission fates, so jumping early would
          // make the clock scheduling-dependent.
          if (((sh.driving_waiting > 0 && sh.driving_waiting >= sh.live_drivers) ||
               sh.stop.load(std::memory_order_relaxed)) &&
              advance_virtual_clock(sh)) {
            continue;
          }
          sh.space_cv.notify_all();
          sh.work_cv.wait(lock);
          if (sh.stop.load(std::memory_order_relaxed) && all_drained(sh)) break;
        } else {
          // Sharded quiescence: locally idle means drivers blocked (or none
          // live — an empty shard must not hold up its siblings) and the
          // ring drained. Publish to the hub; whichever shard publishes the
          // last missing slot performs the global jump and pokes the rest.
          const bool quiescent =
              sh.charges.approx_empty() &&
              (sh.stop.load(std::memory_order_relaxed) || sh.live_drivers == 0 ||
               (sh.driving_waiting > 0 && sh.driving_waiting >= sh.live_drivers));
          if (quiescent) {
            // Publish every quiescent lap (idempotent): an advance or a
            // driver's publish_active clears our hub slot behind our back,
            // and skipping the re-publish would wedge the barrier.
            std::uint64_t dl = 0;
            const bool has_dl = earliest_deadline(sh, dl);
            if (hub_->publish_idle(sh.index, has_dl, dl)) {
              idle_published = false;
              sh.vnow_us = std::max(sh.vnow_us, hub_->now());
              retransmit_due(sh, sh.vnow_us);
              check_down(sh, sh.vnow_us);
              if (sh.error_kind) break;
              continue;
            }
            idle_published = true;
          }
          sh.space_cv.notify_all();
          // The hub notifies our condvar without holding our mutex, so this
          // wait must be bounded: a lost cross-shard wakeup costs one lap
          // of the timeout, never a hang (and never a count).
          park_and_wait(sh, lock, std::chrono::microseconds(200));
        }
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
        if (multi_shard_) {
          sh.parked.store(true, std::memory_order_seq_cst);
          if (!sh.charges.approx_empty()) {
            sh.parked.store(false, std::memory_order_relaxed);
            continue;
          }
        }
        sh.work_cv.wait_until(lock, wake);
        if (multi_shard_) sh.parked.store(false, std::memory_order_relaxed);
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

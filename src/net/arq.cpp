#include "net/arq.h"

#include <algorithm>

#include "comm/wire.h"
#include "net/error.h"
#include "util/rng.h"

namespace tft::net {

namespace {

/// Per-message filler inside a batch: same construction as the kData
/// filler, with the message index folded into the seed so two same-sized
/// charges in one frame carry different bits, and the session id folded in
/// (identity for session 0) so concurrent sessions never share a stream.
std::uint64_t batch_filler_seed(const FrameHeader& h, std::uint64_t index,
                                std::uint64_t bits) noexcept {
  return fold_session(mix_hash((std::uint64_t{h.src} << 32) | h.dst,
                               (std::uint64_t{h.seq} << 32) | index, bits),
                      h.session);
}

/// One pass over a batch payload. With `check_fill` each record's filler is
/// compared with its stream as it is read; without, the filler is stepped
/// over (the frame was verified on receipt).
bool read_batch(const Frame& f, std::vector<ChargeRec>& out, bool check_fill) {
  out.clear();
  if (f.header.type != FrameType::kBatch) return false;
  try {
    BitReader r(f.payload, f.header.payload_bits);
    const std::uint64_t count = r.get_gamma();
    if (count == 0 || count > f.header.payload_bits) return false;  // >= 1 bit per record
    out.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      ChargeRec rec;
      rec.phase = r.get_gamma();
      rec.bits = r.get_gamma();
      if (rec.bits > f.header.payload_bits) return false;
      if (!check_fill) {
        r.skip(rec.bits);
      } else if (!check_filler(r, batch_filler_seed(f.header, i, rec.bits), rec.bits)) {
        return false;
      }
      out.push_back(rec);
    }
    return r.position() == f.header.payload_bits;  // no trailing garbage
  } catch (const WireError&) {
    return false;
  }
}

}  // namespace

std::chrono::microseconds RetryPolicy::timeout_for(std::uint32_t attempt) const noexcept {
  const double cap = static_cast<double>(max_timeout.count());
  double us = static_cast<double>(base_timeout.count());
  // Exit once the value saturates (at the cap growing, below 1us shrinking,
  // fixed at backoff == 1): huge attempt counts neither overflow the double
  // nor loop 2^32 times.
  for (std::uint32_t i = 0; i < attempt; ++i) {
    if (backoff == 1.0 || (backoff > 1.0 && us >= cap) || (backoff < 1.0 && us < 1.0)) break;
    us *= backoff;
  }
  const double capped = std::min(us, cap);
  return std::chrono::microseconds(static_cast<std::int64_t>(capped));
}

void ArqPolicy::validate() const {
  if (window == 0) {
    throw NetError(NetErrorKind::kSetup, "ArqPolicy: window must be positive");
  }
  if (seq_modulus < 2 * window) {
    throw NetError(NetErrorKind::kSetup,
                   "ArqPolicy: need 2*window <= seq_modulus so old duplicates and "
                   "new frames cannot alias");
  }
  if (coalesce && (max_batch_msgs == 0 || max_batch_bits == 0)) {
    throw NetError(NetErrorKind::kSetup, "ArqPolicy: empty batch limits");
  }
  if (pending_cap == 0) {
    throw NetError(NetErrorKind::kSetup, "ArqPolicy: pending_cap must be positive");
  }
}

Frame make_ack_frame(std::uint32_t src, std::uint32_t dst, const AckInfo& info,
                     std::uint32_t seq_modulus) {
  Frame ack;
  ack.header.type = FrameType::kAck;
  ack.header.src = src;
  ack.header.dst = dst;
  ack.header.seq = info.cumulative;
  if (!info.sacks.empty()) {
    BitWriter w;
    w.put_gamma(info.sacks.size());
    const std::uint32_t from = (info.cumulative + 1) % seq_modulus;
    for (const std::uint32_t s : info.sacks) {
      w.put_gamma(seq_dist(from, s, seq_modulus));
    }
    ack.header.payload_bits = w.bit_size();
    ack.payload = w.take_bytes();
  }
  return ack;
}

AckInfo decode_ack_frame(const Frame& f, std::uint32_t seq_modulus) {
  AckInfo info;
  info.cumulative = f.header.seq;
  if (f.header.payload_bits == 0) return info;
  try {
    BitReader r(f.payload, f.header.payload_bits);
    const std::uint64_t count = r.get_gamma();
    if (count > seq_modulus) {
      throw NetError(NetErrorKind::kCorrupt, "ack names more sacks than sequence numbers");
    }
    info.sacks.reserve(static_cast<std::size_t>(count));
    const std::uint32_t from = (info.cumulative + 1) % seq_modulus;
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t dist = r.get_gamma();
      if (dist >= seq_modulus) {
        throw NetError(NetErrorKind::kCorrupt, "sack distance outside the sequence circle");
      }
      info.sacks.push_back((from + static_cast<std::uint32_t>(dist)) % seq_modulus);
    }
  } catch (const WireError&) {
    throw NetError(NetErrorKind::kCorrupt, "truncated sack payload");
  }
  return info;
}

Frame make_batch_frame(std::uint32_t src, std::uint32_t dst, std::uint32_t seq,
                       const std::vector<ChargeRec>& charges, std::uint32_t session) {
  Frame f;
  f.header.type = FrameType::kBatch;
  f.header.src = src;
  f.header.dst = dst;
  f.header.seq = seq;
  f.header.session = session;
  f.header.phase = charges.empty() ? 0 : charges.front().phase;
  BitWriter w;
  w.put_gamma(charges.size());
  for (std::size_t i = 0; i < charges.size(); ++i) {
    w.put_gamma(charges[i].phase);
    w.put_gamma(charges[i].bits);
    append_filler(w, batch_filler_seed(f.header, i, charges[i].bits), charges[i].bits);
  }
  f.header.payload_bits = w.bit_size();
  f.payload = w.take_bytes();
  return f;
}

bool decode_batch_frame(const Frame& f, std::vector<ChargeRec>& out) {
  return read_batch(f, out, true);
}

bool batch_frame_records(const Frame& f, std::vector<ChargeRec>& out) {
  return read_batch(f, out, false);
}

ArqSenderWindow::Entry& ArqSenderWindow::admit(Frame f) {
  if (entries_.empty()) base_ = f.header.seq;
  Entry e;
  e.seq = f.header.seq;
  e.frame = std::move(f);
  entries_.push_back(std::move(e));
  return entries_.back();
}

std::size_t ArqSenderWindow::on_ack(const AckInfo& info) {
  if (entries_.empty()) return 0;
  // Cumulative advance: everything through info.cumulative is delivered.
  // seq_dist(base, cumulative+1) in [1, M/2) is news; the stale band (a
  // cumulative from before the window moved) wraps to >= M/2 and is
  // ignored. The news band deliberately extends PAST the admitted entries:
  // after a crash replay the receiver is ahead of the rewound sender — its
  // cumulative covers frames the window has not even re-admitted yet — so
  // the advance is clamped to what the window holds instead of being
  // mistaken for staleness (which would wedge the replay into kTimeout).
  const std::uint32_t adv = seq_dist(base_, (info.cumulative + 1) % modulus_, modulus_);
  std::size_t retired = 0;
  if (adv >= 1 && adv < modulus_ / 2) {
    const std::size_t take = std::min<std::size_t>(adv, entries_.size());
    for (std::size_t i = 0; i < take; ++i) {
      entries_.pop_front();
      ++retired;
    }
    base_ = (base_ + static_cast<std::uint32_t>(take)) % modulus_;
  }
  for (const std::uint32_t s : info.sacks) {
    const std::uint32_t d = seq_dist(base_, s, modulus_);
    if (d < entries_.size()) entries_[d].acked = true;  // duplicate SACKs are idempotent
  }
  return retired;
}

void ArqSenderWindow::due(std::uint64_t now_us, std::vector<Entry*>& out) {
  out.clear();
  for (Entry& e : entries_) {
    if (!e.acked && e.attempts > 0 && now_us >= e.deadline_us) out.push_back(&e);
  }
}

bool ArqSenderWindow::next_deadline(std::uint64_t& out) const noexcept {
  bool found = false;
  for (const Entry& e : entries_) {
    if (e.acked || e.attempts == 0) continue;
    if (!found || e.deadline_us < out) out = e.deadline_us;
    found = true;
  }
  return found;
}

ArqReceiverWindow::Verdict ArqReceiverWindow::on_frame(Frame f) {
  const std::uint32_t d = seq_dist(next_expected_, f.header.seq, modulus_);
  if (d == 0) {
    deliverable_.push_back(std::move(f));
    next_expected_ = (next_expected_ + 1) % modulus_;
    // Drain the buffered successors this acceptance released.
    for (auto it = buffered_.find(next_expected_); it != buffered_.end();
         it = buffered_.find(next_expected_)) {
      deliverable_.push_back(std::move(it->second));
      buffered_.erase(it);
      next_expected_ = (next_expected_ + 1) % modulus_;
    }
    return Verdict::kInOrder;
  }
  if (d < window_) {
    const auto [it, inserted] = buffered_.try_emplace(f.header.seq, std::move(f));
    (void)it;
    return inserted ? Verdict::kBuffered : Verdict::kDuplicate;
  }
  if (d >= modulus_ / 2) {
    return Verdict::kDuplicate;  // behind next_expected_: already delivered
  }
  return Verdict::kOverrun;
}

std::vector<Frame> ArqReceiverWindow::take_deliverable() {
  std::vector<Frame> run = std::move(deliverable_);
  deliverable_.clear();
  return run;
}

AckInfo ArqReceiverWindow::ack() const {
  AckInfo info;
  info.cumulative = (next_expected_ + modulus_ - 1) % modulus_;
  if (!buffered_.empty()) {
    info.sacks.reserve(buffered_.size());
    for (const auto& [seq, frame] : buffered_) info.sacks.push_back(seq);
    // Ascending forward distance from cumulative+1 (== next_expected_), not
    // ascending raw value: the SACK codec gamma-codes these distances.
    std::sort(info.sacks.begin(), info.sacks.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                return seq_dist(next_expected_, a, modulus_) <
                       seq_dist(next_expected_, b, modulus_);
              });
  }
  return info;
}

}  // namespace tft::net

#include "net/runtime.h"

#include <sstream>

#include "net/error.h"

namespace tft::net {

std::optional<TransportKind> parse_transport(std::string_view s) noexcept {
  if (s == "sim") return TransportKind::kSim;
  if (s == "inproc") return TransportKind::kInProc;
  if (s == "socket") return TransportKind::kSocket;
  return std::nullopt;
}

std::unique_ptr<Transport> make_transport(const NetConfig& cfg) {
  switch (cfg.transport) {
    case TransportKind::kInProc: return std::make_unique<InProcTransport>(cfg.ring_capacity);
    case TransportKind::kSocket: return std::make_unique<LoopbackSocketTransport>();
    case TransportKind::kSim: break;
  }
  throw NetError(NetErrorKind::kSetup, "simulated mode has no transport to build");
}

namespace {

void mismatch(const std::string& what, std::uint64_t charged, std::uint64_t delivered) {
  std::ostringstream os;
  os << what << ": charged " << charged << ", delivered " << delivered;
  throw AccountingError(os.str());
}

}  // namespace

void ChargedTotals::add(const Transcript& t) {
  if (t.num_players() != up_bits.size()) {
    throw AccountingError("transcript player count disagrees with the wire topology");
  }
  for (std::size_t j = 0; j < up_bits.size(); ++j) {
    up_bits[j] += t.upstream_bits(j);
    down_bits[j] += t.downstream_bits(j);
    up_msgs[j] += t.upstream_messages(j);
    down_msgs[j] += t.downstream_messages(j);
  }
  if (phase_bits.size() < t.num_phases()) phase_bits.resize(t.num_phases());
  for (std::size_t ph = 0; ph < t.num_phases(); ++ph) phase_bits[ph] += t.phase_bits(ph);
}

void verify_accounting(const ChargedTotals& c, const WireStats& w) {
  const std::size_t k = c.up_bits.size();
  if (w.up_bits.size() != k || w.down_bits.size() != k) {
    throw AccountingError("player count disagrees with the wire topology");
  }
  for (std::size_t j = 0; j < k; ++j) {
    if (c.up_bits[j] != w.up_bits[j]) {
      mismatch("player " + std::to_string(j) + " upstream bits", c.up_bits[j], w.up_bits[j]);
    }
    if (c.down_bits[j] != w.down_bits[j]) {
      mismatch("player " + std::to_string(j) + " downstream bits", c.down_bits[j],
               w.down_bits[j]);
    }
    if (c.up_msgs[j] != w.up_msgs[j]) {
      mismatch("player " + std::to_string(j) + " upstream messages", c.up_msgs[j], w.up_msgs[j]);
    }
    if (c.down_msgs[j] != w.down_msgs[j]) {
      mismatch("player " + std::to_string(j) + " downstream messages", c.down_msgs[j],
               w.down_msgs[j]);
    }
  }
  const std::size_t phases = std::max(c.phase_bits.size(), w.phase_bits.size());
  for (std::size_t ph = 0; ph < phases; ++ph) {
    const std::uint64_t charged = ph < c.phase_bits.size() ? c.phase_bits[ph] : 0;
    const std::uint64_t delivered = ph < w.phase_bits.size() ? w.phase_bits[ph] : 0;
    if (charged != delivered) {
      mismatch("phase " + std::to_string(ph) + " bits", charged, delivered);
    }
  }
}

void verify_accounting(const Transcript& t, const WireStats& w) {
  ChargedTotals c(t.num_players());
  c.add(t);
  verify_accounting(c, w);
}

NetSession::NetSession(std::size_t num_players, const NetConfig& cfg) : k_(num_players) {
  if (cfg.transport == TransportKind::kSim) {
    throw NetError(NetErrorKind::kSetup, "NetSession requires an executed transport");
  }
  if (k_ == 0) {
    throw NetError(NetErrorKind::kSetup, "NetSession requires at least one player");
  }
  if (cfg.virtual_clock && cfg.transport != TransportKind::kInProc) {
    throw NetError(NetErrorKind::kSetup,
                   "virtual clock needs the in-proc transport (kernel socket buffers "
                   "are invisible to the logical clock)");
  }
  transport_ = make_transport(cfg);

  SharedServicer::Options opts;
  opts.arq = cfg.arq;
  opts.retry = cfg.retry;
  opts.faults = cfg.faults;
  opts.virtual_clock = cfg.virtual_clock;
  opts.timed_recheck = cfg.transport == TransportKind::kSocket;
  opts.num_shards = cfg.num_shards;
  servicer_ = std::make_unique<SharedServicer>(opts);

  SharedServicer::SessionOptions so;
  so.num_players = k_;
  so.session_id = 0;  // the reserved id: v1 frame headers, pre-session bytes
  so.seed = cfg.session_seed;
  so.crash_tolerance = cfg.crash_tolerance;
  sid_ = servicer_->open_session(*transport_, so);
  row_ = &servicer_->session_row(sid_);
  servicer_->start();
}

NetSession::~NetSession() {
  try {
    finish();
  } catch (...) {
    // Destructor cleanup must not throw; finish() rethrows on explicit use.
  }
}

void NetSession::on_charge(std::size_t player, Direction dir, std::uint64_t bits,
                           std::uint64_t phase) {
  if (finished_) {
    throw NetError(NetErrorKind::kClosed, "charge after the session finished");
  }
  servicer_->session_charge(*row_, player, dir == Direction::kPlayerToCoordinator, bits, phase);
}

void NetSession::on_flush() {
  if (finished_) return;
  servicer_->session_flush(sid_);
}

void NetSession::relay(std::size_t from, std::size_t to, std::uint64_t bits) {
  if (finished_) {
    throw NetError(NetErrorKind::kClosed, "relay after the session finished");
  }
  servicer_->session_relay(sid_, from, to, bits);
}

WireStats NetSession::finish() {
  if (finished_) return result_;
  finished_ = true;

  // Fold before rethrow so a failed run still reports what crossed the wire.
  result_ = servicer_->close_session(sid_);
  servicer_->finish();
  servicer_->rethrow_error();
  servicer_->rethrow_session_error(sid_);
  return result_;
}

}  // namespace tft::net

#include "service/spec.h"

#include <algorithm>
#include <stdexcept>

#include "comm/wire.h"
#include "graph/generators.h"
#include "net/error.h"
#include "util/arena.h"
#include "util/rng.h"

namespace tft::service {

namespace {

constexpr std::uint64_t kSpecVersion = 1;
/// v2 appends shard_affinity after tenant. Emitted only when the field is
/// non-zero, so every pre-shard spec (and every spec that doesn't pin a
/// shard) still produces the v1 bytes — the wire stays byte-identical at
/// the default.
constexpr std::uint64_t kSpecVersionShard = 2;
constexpr std::uint64_t kReplyVersion = 1;
/// Sanity bound on embedded strings (tenant, error): a spec is a request
/// header, not a payload channel.
constexpr std::uint64_t kMaxStringBytes = 4096;

void put_string(BitWriter& w, const std::string& s) {
  if (s.size() > kMaxStringBytes) {
    throw net::NetError(net::NetErrorKind::kSetup, "service string field too long to encode");
  }
  w.put_gamma(s.size());
  for (const char c : s) w.put_bits(static_cast<std::uint8_t>(c), 8);
}

std::string get_string(BitReader& r) {
  const std::uint64_t len = r.get_gamma();
  if (len > kMaxStringBytes || len * 8 > r.remaining()) {
    throw net::NetError(net::NetErrorKind::kCorrupt,
                        "service string longer than its enclosing bytes");
  }
  std::string s;
  s.reserve(static_cast<std::size_t>(len));
  for (std::uint64_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>(r.get_bits(8)));
  }
  return s;
}

template <typename Enum>
Enum checked_enum(std::uint64_t raw, std::uint64_t last, const char* what) {
  if (raw > last) {
    throw net::NetError(net::NetErrorKind::kCorrupt, std::string(what) + " out of range");
  }
  return static_cast<Enum>(raw);
}

}  // namespace

std::optional<InstanceFamily> parse_family(const std::string& s) noexcept {
  if (s == "planted") return InstanceFamily::kPlanted;
  if (s == "hub") return InstanceFamily::kHub;
  if (s == "gnp") return InstanceFamily::kGnp;
  if (s == "mu") return InstanceFamily::kMu;
  if (s == "bipartite") return InstanceFamily::kBipartite;
  return std::nullopt;
}

std::vector<std::uint8_t> encode_spec(const SessionSpec& spec) {
  // The only 64-bit gamma field: its value + 1 must fit in 64 bits.
  if (spec.param == UINT64_MAX) {
    throw net::NetError(net::NetErrorKind::kSetup, "spec param 2^64 - 1 cannot be encoded");
  }
  BitWriter w;
  w.put_gamma(spec.shard_affinity == 0 ? kSpecVersion : kSpecVersionShard);
  w.put_gamma(static_cast<std::uint64_t>(spec.protocol));
  w.put_gamma(static_cast<std::uint64_t>(spec.family));
  w.put_gamma(spec.n);
  w.put_gamma(spec.k);
  w.put_bits(spec.seed, 64);  // fixed width: gamma cannot carry UINT64_MAX
  w.put_gamma(spec.eps_micro);
  w.put_gamma(spec.param);
  put_string(w, spec.tenant);
  if (spec.shard_affinity != 0) w.put_gamma(spec.shard_affinity);
  return w.take_bytes();
}

SessionSpec decode_spec(std::span<const std::uint8_t> bytes) {
  try {
    BitReader r(bytes, bytes.size() * std::uint64_t{8});
    const std::uint64_t version = r.get_gamma();
    if (version != kSpecVersion && version != kSpecVersionShard) {
      throw net::NetError(net::NetErrorKind::kCorrupt, "unknown spec version");
    }
    SessionSpec spec;
    spec.protocol = checked_enum<ProtocolKind>(
        r.get_gamma(), static_cast<std::uint64_t>(ProtocolKind::kExact), "spec protocol");
    spec.family = checked_enum<InstanceFamily>(
        r.get_gamma(), static_cast<std::uint64_t>(InstanceFamily::kBipartite), "spec family");
    const std::uint64_t n = r.get_gamma();
    const std::uint64_t k = r.get_gamma();
    if (n > UINT32_MAX || k == 0 || k > n) {
      throw net::NetError(net::NetErrorKind::kCorrupt, "spec topology out of range");
    }
    spec.n = static_cast<std::uint32_t>(n);
    spec.k = static_cast<std::uint32_t>(k);
    spec.seed = r.get_bits(64);
    const std::uint64_t eps_micro = r.get_gamma();
    if (eps_micro == 0 || eps_micro > 1'000'000) {
      throw net::NetError(net::NetErrorKind::kCorrupt, "spec eps out of (0, 1]");
    }
    spec.eps_micro = static_cast<std::uint32_t>(eps_micro);
    spec.param = r.get_gamma();
    spec.tenant = get_string(r);
    if (version >= kSpecVersionShard) {
      const std::uint64_t aff = r.get_gamma();
      if (aff == 0 || aff > UINT32_MAX) {
        // A v2 spec with affinity 0 should have been encoded as v1; reject
        // the redundant form so the encoding stays canonical (one value,
        // one byte string).
        throw net::NetError(net::NetErrorKind::kCorrupt, "spec shard affinity out of range");
      }
      spec.shard_affinity = static_cast<std::uint32_t>(aff);
    }
    return spec;
  } catch (const WireError& e) {
    throw net::NetError(net::NetErrorKind::kCorrupt,
                        std::string("undecodable session spec: ") + e.what());
  }
}

std::vector<PlayerInput> build_players(const SessionSpec& spec) {
  Rng rng(spec.seed);
  const auto n = static_cast<Vertex>(spec.n);
  // gnp and bipartite deal their generators' sorted lists straight to the
  // players. planted, hub and mu emit raw lists that are unsorted and can
  // repeat edges, so Graph, the one normalizer, builds them first.
  switch (spec.family) {
    case InstanceFamily::kPlanted: {
      const auto t = static_cast<std::uint32_t>(spec.param != 0 ? spec.param : spec.n / 12);
      return partition_random(gen::planted_triangles(n, t, rng), spec.k, rng);
    }
    case InstanceFamily::kHub: {
      const auto hubs = static_cast<std::uint32_t>(spec.param != 0 ? spec.param : 3);
      return partition_random(gen::hub_matching(n, hubs, rng), spec.k, rng);
    }
    case InstanceFamily::kGnp: {
      const double d = spec.param != 0 ? static_cast<double>(spec.param) / 100.0 : 16.0;
      ArenaScope scope;
      const auto edges = gen::gnp_edges(n, d / static_cast<double>(spec.n), rng, scope.arena());
      return partition_edges(n, edges, spec.k, PartitionOptions{}, rng);
    }
    case InstanceFamily::kMu: {
      const double gamma = spec.param != 0 ? static_cast<double>(spec.param) / 100.0 : 0.9;
      return partition_random(gen::tripartite_mu(n / 3, gamma, rng), spec.k, rng);
    }
    case InstanceFamily::kBipartite: {
      const double d = spec.param != 0 ? static_cast<double>(spec.param) / 100.0 : 8.0;
      ArenaScope scope;
      const auto edges =
          gen::bipartite_gnp_edges(n, 2.0 * d / static_cast<double>(spec.n), rng, scope.arena());
      return partition_edges(n, edges, spec.k, PartitionOptions{}, rng);
    }
  }
  throw std::invalid_argument("build_players: instance family outside the enum");
}

TesterOptions tester_options(const SessionSpec& spec) {
  TesterOptions opts;
  opts.protocol = spec.protocol;
  opts.eps = static_cast<double>(spec.eps_micro) / 1e6;
  // The same fold tft_cli applies, so a serviced session and a CLI run of
  // the same spec draw identical protocol randomness.
  opts.seed = spec.seed * 7919;
  return opts;
}

std::vector<std::uint8_t> encode_reply(const ServiceReply& reply) {
  BitWriter w;
  w.put_gamma(kReplyVersion);
  w.put_gamma(static_cast<std::uint64_t>(reply.status));
  w.put_gamma(reply.session_id);
  w.put_bits(reply.triangle.has_value() ? 1 : 0, 1);
  if (reply.triangle) {
    w.put_gamma(reply.triangle->a);
    w.put_gamma(reply.triangle->b);
    w.put_gamma(reply.triangle->c);
  }
  w.put_gamma(reply.charged_bits);
  w.put_gamma(reply.payload_bits);
  w.put_gamma(reply.messages);
  w.put_gamma(reply.frames);
  w.put_gamma(reply.wire_bytes);
  w.put_bits(reply.accounting_exact ? 1 : 0, 1);
  w.put_bits(reply.conformance_ok ? 1 : 0, 1);
  put_string(w, reply.error);
  return w.take_bytes();
}

ServiceReply decode_reply(std::span<const std::uint8_t> bytes) {
  try {
    BitReader r(bytes, bytes.size() * std::uint64_t{8});
    if (r.get_gamma() != kReplyVersion) {
      throw net::NetError(net::NetErrorKind::kCorrupt, "unknown reply version");
    }
    ServiceReply reply;
    reply.status = checked_enum<ReplyStatus>(
        r.get_gamma(), static_cast<std::uint64_t>(ReplyStatus::kError), "reply status");
    const std::uint64_t sid = r.get_gamma();
    if (sid > UINT32_MAX) {
      throw net::NetError(net::NetErrorKind::kCorrupt, "reply session id out of range");
    }
    reply.session_id = static_cast<std::uint32_t>(sid);
    if (r.get_bits(1) != 0) {
      Triangle t{};
      const std::uint64_t a = r.get_gamma();
      const std::uint64_t b = r.get_gamma();
      const std::uint64_t c = r.get_gamma();
      if (a > UINT32_MAX || b > UINT32_MAX || c > UINT32_MAX) {
        throw net::NetError(net::NetErrorKind::kCorrupt, "reply triangle out of range");
      }
      t.a = static_cast<Vertex>(a);
      t.b = static_cast<Vertex>(b);
      t.c = static_cast<Vertex>(c);
      reply.triangle = t;
    }
    reply.charged_bits = r.get_gamma();
    reply.payload_bits = r.get_gamma();
    reply.messages = r.get_gamma();
    reply.frames = r.get_gamma();
    reply.wire_bytes = r.get_gamma();
    reply.accounting_exact = r.get_bits(1) != 0;
    reply.conformance_ok = r.get_bits(1) != 0;
    reply.error = get_string(r);
    return reply;
  } catch (const WireError& e) {
    throw net::NetError(net::NetErrorKind::kCorrupt,
                        std::string("undecodable service reply: ") + e.what());
  }
}

}  // namespace tft::service

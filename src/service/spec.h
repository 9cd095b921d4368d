#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/tester.h"
#include "graph/partition.h"
#include "graph/triangles.h"
#include "net/session.h"

/// \file spec.h
/// The service-layer request/reply vocabulary: a SessionSpec names one
/// testing session — which instance family to generate, how to partition
/// it, which protocol to run — compactly enough to travel a wire, and a
/// ServiceReply carries the verdict plus the accounting summary back.
///
/// Both sides use the canonical gamma byte codec (comm/wire.h), the same
/// dialect as frames and player checkpoints: a spec is a pure value, so two
/// decodes of the same bytes build byte-identical instances — the service's
/// determinism anchor. The instance itself is never shipped; the spec's
/// (family, n, seed, param) coordinates regenerate it on the server, which
/// keeps a request a few dozen bytes regardless of m.

namespace tft::service {

/// Instance families the service can generate (a subset of
/// graph/generators.h chosen to match the tft_cli families).
enum class InstanceFamily : std::uint8_t {
  kPlanted,    ///< planted_triangles(n, param, rng)
  kHub,        ///< hub_matching(n, param, rng)
  kGnp,        ///< gnp(n, param/100/n, rng) — param = 100 * average degree
  kMu,         ///< tripartite_mu(n/3, param/100, rng)
  kBipartite,  ///< bipartite_gnp(n, 2*(param/100)/n, rng)
};

[[nodiscard]] constexpr const char* to_string(InstanceFamily f) noexcept {
  switch (f) {
    case InstanceFamily::kPlanted: return "planted";
    case InstanceFamily::kHub: return "hub";
    case InstanceFamily::kGnp: return "gnp";
    case InstanceFamily::kMu: return "mu";
    case InstanceFamily::kBipartite: return "bipartite";
  }
  assert(!"to_string(InstanceFamily): value outside the enum");
  return "?";
}

[[nodiscard]] std::optional<InstanceFamily> parse_family(const std::string& s) noexcept;

/// One testing session, as submitted: everything needed to regenerate the
/// instance and run the protocol, nothing more.
struct SessionSpec {
  ProtocolKind protocol = ProtocolKind::kSimOblivious;
  InstanceFamily family = InstanceFamily::kPlanted;
  std::uint32_t n = 1024;     ///< vertex universe
  std::uint32_t k = 4;        ///< players
  std::uint64_t seed = 1;     ///< instance + protocol randomness root
  std::uint32_t eps_micro = 100000;  ///< eps in millionths (0.1 default)
  /// Family knob: triangles (planted), hubs (hub), 100*average degree
  /// (gnp / bipartite), 100*gamma (mu). 0 picks the family's default.
  std::uint64_t param = 0;
  /// Fair-share scheduling key; empty = the anonymous tenant.
  std::string tenant;
  /// Servicer shard placement hint (SharedServicer::SessionOptions::
  /// shard_affinity): 0 = route by session id, s >= 1 pins to shard
  /// (s-1) % num_shards. Placement never changes the session's bytes or
  /// accounting. Version-gated on the wire: a spec with the default 0
  /// encodes as v1, byte-identical to pre-shard clients; only a non-zero
  /// hint emits the v2 encoding.
  std::uint32_t shard_affinity = 0;

  bool operator==(const SessionSpec&) const = default;
};

/// Canonical byte encoding (versioned gamma codec). Throws
/// net::NetError(kSetup) on a field the codec cannot carry (param =
/// 2^64 - 1).
[[nodiscard]] std::vector<std::uint8_t> encode_spec(const SessionSpec& spec);
/// Throws net::NetError(kCorrupt) on malformed bytes.
[[nodiscard]] SessionSpec decode_spec(std::span<const std::uint8_t> bytes);

/// Regenerate the spec's instance and partition it among its k players —
/// a pure function of (family, n, param, seed, k).
[[nodiscard]] std::vector<PlayerInput> build_players(const SessionSpec& spec);

/// TesterOptions a spec implies (seed folded, eps restored from micro).
[[nodiscard]] TesterOptions tester_options(const SessionSpec& spec);

/// The reply's outcome tag — doubles as the tft_client exit code.
enum class ReplyStatus : std::uint8_t {
  kTriangleFree = 0,  ///< consistent with triangle-free
  kTriangle = 1,      ///< certified triangle found
  kBusy = 2,          ///< admission refused (kServiceBusy): retry later
  kError = 3,         ///< typed failure; see `error`
};

/// What the service sends back: verdict + the accounting summary a client
/// would otherwise read off WireStats.
struct ServiceReply {
  ReplyStatus status = ReplyStatus::kTriangleFree;
  std::uint32_t session_id = 0;  ///< wire session id the coordinator assigned
  std::optional<Triangle> triangle;
  std::uint64_t charged_bits = 0;    ///< transcript total (the paper's cost)
  std::uint64_t payload_bits = 0;    ///< delivered on the wire
  std::uint64_t messages = 0;
  std::uint64_t frames = 0;
  std::uint64_t wire_bytes = 0;
  bool accounting_exact = false;  ///< verify_accounting passed
  bool conformance_ok = false;    ///< per-run model referee passed
  std::string error;              ///< non-empty iff status == kError

  bool operator==(const ServiceReply&) const = default;
};

[[nodiscard]] std::vector<std::uint8_t> encode_reply(const ServiceReply& reply);
[[nodiscard]] ServiceReply decode_reply(std::span<const std::uint8_t> bytes);

}  // namespace tft::service

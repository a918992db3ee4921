// The serving tier's request wire format (versions 1 and 2).
//
// A request frame carries one labeling — full or delta — for one tenant's
// pinned (scheme, configuration, t).  The layout is little-endian and
// byte-aligned so a parser never shifts across byte boundaries and every
// certificate payload lands on a byte edge, which is what makes ZERO-COPY
// ingestion possible: RequestView hands each certificate to the verifier as
// a util::BitString::aliasing view into the frame itself — no bytes are
// copied between the socket buffer and BallScheme::parse_cert.
//
// Frame layout (all integers little-endian):
//
//   offset  size  field
//   ------  ----  --------------------------------------------------------
//        0     4  magic "PLSW" (bytes 0x50 0x4C 0x53 0x57)
//        4     2  version        (1, or 2 when the frame carries a TTL)
//        6     2  kind           (0 = full labeling, 1 = delta)
//        8     4  tenant_id      (Server::add_tenant's id)
//       12     4  node_count     (n of the tenant's configuration)
//       16     8  graph_epoch    (graph::Graph::epoch of the tenant's graph)
//       24     4  payload_count  (full: == node_count; delta: touched nodes)
//       28     4  t              (verification radius the tenant is pinned at)
//   ------  ----  -------- version 2 only -------------------------------
//       32     8  ttl_ns         (request time-to-live from its arrival
//                                 timestamp; > 0 — "no deadline" is spelled
//                                 as a version-1 frame, keeping one
//                                 canonical encoding per request)
//   ------  ----  -------- payload records, byte-aligned ------------------
//   full:   per node v = 0..n-1, in order:
//             u32 cert_bits, then ceil(cert_bits / 8) certificate bytes
//             (BitWriter layout: bit k in byte k/8 at position k%8)
//   delta:  per touched entry, node ids STRICTLY increasing:
//             u32 node, u32 cert_bits, then ceil(cert_bits / 8) bytes
//
// Version 1 frames remain fully accepted — a v1 frame is exactly a v2 frame
// with no TTL (ttl_ns() reads 0).  parse() dispatches on the version field;
// records start right after the version's header.
//
// Wire bytes are untrusted.  parse() validates the entire frame up front —
// magic, version, kind, count consistency, payload_count against what the
// frame's bytes could physically hold (so no allocation is ever sized from
// an unproven count), per-record bounds, strictly sorted delta nodes, and
// zero trailing bytes (one canonical encoding per request) — and rejects
// with a reason on the first violation; it never reads past the span it
// was given.  A parsed view holds ONLY offsets into
// the frame: the caller owns the frame's lifetime and must keep it alive
// and byte-stable while any certificate view from it is read (the Server
// holds the frame for exactly this — see serve/server.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "pls/certificate.hpp"

namespace pls::serve {

inline constexpr std::uint32_t kWireMagic = 0x57534C50u;  // "PLSW"
inline constexpr std::uint16_t kWireVersion = 1;
inline constexpr std::uint16_t kWireVersionTtl = 2;
inline constexpr std::size_t kWireHeaderBytes = 32;
inline constexpr std::size_t kWireHeaderBytesTtl = 40;  // v1 header + u64 ttl

enum class WireKind : std::uint16_t { kFull = 0, kDelta = 1 };

/// Encode a full-labeling request frame (the client/bench side; the server
/// side never copies certificate bytes out of a frame).  `ttl_ns` > 0 emits
/// a version-2 frame carrying the deadline; 0 (the default) emits the
/// byte-identical version-1 frame of earlier releases.
std::vector<std::uint8_t> encode_full(std::uint32_t tenant_id,
                                      std::uint64_t graph_epoch, unsigned t,
                                      const core::Labeling& labeling,
                                      std::uint64_t ttl_ns = 0);

/// Encode a delta request: `touched` (strictly increasing) nodes take their
/// new certificates from `next`.  `ttl_ns` as in encode_full.
std::vector<std::uint8_t> encode_delta(std::uint32_t tenant_id,
                                       std::uint64_t graph_epoch, unsigned t,
                                       std::uint32_t node_count,
                                       std::span<const graph::NodeIndex> touched,
                                       const core::Labeling& next,
                                       std::uint64_t ttl_ns = 0);

/// A fully validated view of one request frame.  Construction (parse) does
/// all bounds checking; the accessors are then total.  Holds aliasing
/// BitStrings into the frame — see the lifetime contract above.
class RequestView {
 public:
  /// Validates `frame` end to end; nullopt on any malformation, with a
  /// static-lifetime reason in *error when provided.  Never reads outside
  /// `frame`.
  static std::optional<RequestView> parse(std::span<const std::uint8_t> frame,
                                          const char** error = nullptr);

  WireKind kind() const noexcept { return kind_; }
  std::uint32_t tenant_id() const noexcept { return tenant_id_; }
  std::uint32_t node_count() const noexcept { return node_count_; }
  std::uint64_t graph_epoch() const noexcept { return graph_epoch_; }
  std::uint32_t payload_count() const noexcept { return payload_count_; }
  unsigned t() const noexcept { return t_; }
  /// Time-to-live from the request's arrival timestamp; 0 = no deadline
  /// (every version-1 frame, or never on the wire for version 2).
  std::uint64_t ttl_ns() const noexcept { return ttl_ns_; }

  /// The certificate payloads, aliasing the frame.  kFull: one per node in
  /// node order.  kDelta: one per touched entry, parallel to touched().
  const std::vector<local::Certificate>& certs() const noexcept {
    return certs_;
  }
  /// kDelta only: the strictly increasing touched node ids.
  const std::vector<graph::NodeIndex>& touched() const noexcept {
    return touched_;
  }

 private:
  RequestView() = default;

  WireKind kind_ = WireKind::kFull;
  std::uint32_t tenant_id_ = 0;
  std::uint32_t node_count_ = 0;
  std::uint64_t graph_epoch_ = 0;
  std::uint32_t payload_count_ = 0;
  unsigned t_ = 0;
  std::uint64_t ttl_ns_ = 0;
  std::vector<local::Certificate> certs_;
  std::vector<graph::NodeIndex> touched_;
};

}  // namespace pls::serve

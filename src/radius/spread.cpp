#include "radius/spread.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "graph/algorithms.hpp"
#include "radius/parse_link.hpp"
#include "radius/splice.hpp"
#include "radius/spread_wire.hpp"
#include "util/assert.hpp"

namespace pls::radius {

namespace {

using detail::kChunkCountField;
using detail::SpreadWire;

/// The verifier's cached parse of one spread certificate.
struct SpreadParsed final : ParsedCert {
  static constexpr std::uint32_t kUnlinked =
      std::numeric_limits<std::uint32_t>::max();

  explicit SpreadParsed(SpreadWire w) : wire(std::move(w)) {}
  SpreadWire wire;
  /// Dense chunk-payload class assigned by link_parses: equal ids iff the
  /// chunks are bit-identical.  kUnlinked outside a verifier's cache.
  std::uint32_t chunk_class = kUnlinked;
};

/// Per-thread scratch for verify_ball: the engine calls it once per center,
/// so reusing these buffers across the O(n) adjacent centers of a sweep
/// removes every per-ball allocation from the hot path.  Thread-local keeps
/// the parallel sweep race-free without sharing state between slots.
struct VerifyScratch {
  std::vector<const SpreadWire*> parsed;
  std::vector<std::uint32_t> chunk_class;  ///< per member; kUnlinked = none
  std::vector<SpreadWire> local_parses;
  std::vector<std::uint32_t> rep_of;  ///< per residue: first member index
  std::vector<const util::BitString*> chunk_of;
  std::vector<local::Certificate> neighbor_certs;
  std::vector<local::NeighborView> views;
};

constexpr std::uint32_t kNoMember = std::numeric_limits<std::uint32_t>::max();

}  // namespace

SpreadScheme::SpreadScheme(const core::Scheme& base, unsigned t)
    : base_(base), t_(t) {
  PLS_REQUIRE(t >= 1 && t <= 63);
  name_ = "spread(t=" + std::to_string(t) + ")/" + std::string(base.name());
}

std::unique_ptr<ParsedCert> SpreadScheme::parse_cert(
    const local::Certificate& cert) const {
  auto wire = detail::parse_wire(cert);
  if (!wire) return nullptr;
  return std::make_unique<SpreadParsed>(std::move(*wire));
}

void SpreadScheme::link_parses(
    std::span<const std::unique_ptr<ParsedCert>> parsed) const {
  detail::intern_chunk_classes<SpreadParsed>(parsed);
}

std::unique_ptr<LinkState> SpreadScheme::make_link_state() const {
  return std::make_unique<detail::ChunkInternState>();
}

void SpreadScheme::link_parses_stateful(
    LinkState& state,
    std::span<const std::unique_ptr<ParsedCert>> parsed) const {
  detail::intern_chunk_classes_stateful<SpreadParsed>(
      static_cast<detail::ChunkInternState&>(state), parsed);
}

void SpreadScheme::relink_parses(
    LinkState& state, std::span<const std::unique_ptr<ParsedCert>> parsed,
    std::span<const graph::NodeIndex> touched) const {
  detail::relink_chunk_classes<SpreadParsed>(
      static_cast<detail::ChunkInternState&>(state), parsed, touched);
}

std::vector<SchemeAttack> SpreadScheme::adversarial_labelings(
    const local::Configuration& cfg, util::Rng& rng) const {
  std::vector<SchemeAttack> attacks = splice_attacks(*this, cfg, rng);
  for (SchemeAttack& attack : attacks) attack.name = "splice:" + attack.name;
  return attacks;
}

core::Labeling SpreadScheme::mark(const local::Configuration& cfg) const {
  const core::Labeling base_lab = base_.mark(cfg);
  const graph::Graph& g = cfg.graph();
  const std::size_t n = g.n();
  PLS_ASSERT(base_lab.size() == n);
  if (n == 0) return {};

  // Longest common prefix X of all base certificates.
  std::size_t prefix_len = base_lab.certs.front().bit_size();
  for (const local::Certificate& c : base_lab.certs)
    prefix_len = std::min(prefix_len,
                          detail::lcp_bits(base_lab.certs.front(), c));

  // Per-component landmark (minimum-id node) and BFS distances from it.
  const graph::Components comps = graph::connected_components(g);
  std::vector<graph::NodeIndex> root(comps.count, graph::kInvalidNode);
  for (graph::NodeIndex v = 0; v < n; ++v) {
    graph::NodeIndex& r = root[comps.comp[v]];
    if (r == graph::kInvalidNode || g.id(v) < g.id(r)) r = v;
  }
  std::vector<std::uint32_t> dist(n, 0);
  std::vector<std::uint32_t> ecc(comps.count, 0);
  for (std::size_t c = 0; c < comps.count; ++c) {
    const graph::BfsResult bfs = graph::bfs(g, root[c]);
    for (graph::NodeIndex v = 0; v < n; ++v) {
      if (comps.comp[v] != c) continue;
      PLS_ASSERT(bfs.dist[v] != graph::BfsResult::kUnreachable);
      dist[v] = bfs.dist[v];
      ecc[c] = std::max(ecc[c], bfs.dist[v]);
    }
  }

  // Chunk count per component, capped so every residue class is inhabited,
  // and the k interleaved chunks of X.
  const util::BitString prefix =
      detail::slice_bits(base_lab.certs.front(), 0, prefix_len);
  std::vector<std::size_t> k_of(comps.count);
  // Chunks depend only on k, not on the component; memoize per distinct k.
  std::unordered_map<std::size_t, std::vector<util::BitString>> chunks_by_k;
  for (std::size_t c = 0; c < comps.count; ++c) {
    const std::size_t k =
        std::min<std::size_t>(t_ / 2 + 1, std::size_t{ecc[c]} + 1);
    k_of[c] = k;
    if (chunks_by_k.count(k) != 0) continue;
    chunks_by_k.emplace(k, detail::shard_chunks(prefix, k));
  }

  core::Labeling lab;
  lab.certs.reserve(n);
  for (graph::NodeIndex v = 0; v < n; ++v) {
    const std::size_t c = comps.comp[v];
    const std::size_t k = k_of[c];
    const std::size_t j = dist[v] % k;
    SpreadWire wire;
    wire.k = k;
    wire.residue = j;
    wire.suffix = detail::slice_bits(
        base_lab.certs[v], prefix_len,
        base_lab.certs[v].bit_size() - prefix_len);
    wire.chunk = chunks_by_k.at(k)[j];
    lab.certs.push_back(detail::encode_wire(wire));
  }
  return lab;
}

bool SpreadScheme::verify_ball(const RadiusContext& ctx) const {
  const BallView& ball = ctx.ball();
  const std::span<const BallMember> members = ball.members();

  static thread_local VerifyScratch scratch;

  // Certificates of the ball, parsed at most once per node: through the
  // verifier's shared cache when present, locally otherwise.  The cache path
  // also carries the interned chunk-class ids assigned by link_parses.
  std::vector<const SpreadWire*>& parsed = scratch.parsed;
  std::vector<std::uint32_t>& chunk_class = scratch.chunk_class;
  parsed.assign(members.size(), nullptr);
  chunk_class.assign(members.size(), SpreadParsed::kUnlinked);
  if (ctx.has_parse_cache()) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      const auto* p = static_cast<const SpreadParsed*>(ctx.parsed(members[i].node));
      if (p == nullptr) return false;  // malformed certificate in the ball
      parsed[i] = &p->wire;
      chunk_class[i] = p->chunk_class;
    }
  } else {
    std::vector<SpreadWire>& local_parses = scratch.local_parses;
    local_parses.clear();
    local_parses.reserve(members.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
      auto p = detail::parse_wire(*members[i].cert);
      if (!p) return false;
      local_parses.push_back(std::move(*p));
    }
    for (std::size_t i = 0; i < members.size(); ++i)
      parsed[i] = &local_parses[i];
  }

  // Agree on the chunk count.
  const std::uint64_t k = parsed.front()->k;
  for (const SpreadWire* p : parsed)
    if (p->k != k) return false;

  // Adjacent residues must be cyclically consecutive (distances from the
  // landmark differ by at most 1 across an edge).
  for (std::uint32_t i = 0; i < members.size(); ++i)
    for (const std::uint32_t nb : ball.neighbors_of(i)) {
      if (nb <= i) continue;
      const std::uint64_t diff =
          (parsed[i]->residue + k - parsed[nb]->residue) % k;
      if (diff != 0 && diff != 1 && diff != k - 1) return false;
    }

  // Chunk-class agreement and coverage.  Same-residue chunks must be
  // bit-identical; with a linked cache that is one id comparison per member.
  std::vector<std::uint32_t>& rep_of = scratch.rep_of;
  rep_of.assign(k, kNoMember);
  for (std::size_t i = 0; i < members.size(); ++i) {
    std::uint32_t& rep = rep_of[parsed[i]->residue];
    if (rep == kNoMember) {
      rep = static_cast<std::uint32_t>(i);
      continue;
    }
    // Within one call either every member is linked (cache path) or none is.
    const bool equal = chunk_class[i] != SpreadParsed::kUnlinked
                           ? chunk_class[i] == chunk_class[rep]
                           : parsed[i]->chunk == parsed[rep]->chunk;
    if (!equal) return false;
  }
  for (const std::uint32_t rep : rep_of)
    if (rep == kNoMember) return false;

  // Reassemble the shared prefix X (interleave-length check included).
  std::vector<const util::BitString*>& chunk_of = scratch.chunk_of;
  chunk_of.assign(k, nullptr);
  for (std::size_t j = 0; j < k; ++j) chunk_of[j] = &parsed[rep_of[j]]->chunk;
  const auto prefix = detail::reassemble_chunks(chunk_of);
  if (!prefix) return false;

  // Reconstruct the base certificates of the 1-hop neighborhood and run the
  // base decoder on them.
  auto reconstruct = [&](const SpreadWire& p) {
    util::BitWriter w;
    w.write_bits(prefix->bytes(), prefix->bit_size());
    w.write_bits(p.suffix.bytes(), p.suffix.bit_size());
    return local::Certificate::from_writer(std::move(w));
  };
  const local::Certificate own = reconstruct(*parsed.front());
  const std::span<const BallMember> layer1 = ball.layer(1);
  std::vector<local::Certificate>& neighbor_certs = scratch.neighbor_certs;
  neighbor_certs.clear();
  neighbor_certs.reserve(layer1.size());
  // Members are in BFS order: layer 1 starts at member index 1.
  for (std::size_t i = 0; i < layer1.size(); ++i)
    neighbor_certs.push_back(reconstruct(*parsed[1 + i]));

  std::vector<local::NeighborView>& views = scratch.views;
  views.clear();
  views.reserve(layer1.size());
  for (std::size_t i = 0; i < layer1.size(); ++i) {
    local::NeighborView nv;
    nv.cert = &neighbor_certs[i];
    nv.edge_weight = layer1[i].edge_weight;
    if (ctx.mode() == local::Visibility::kExtended) {
      nv.state = layer1[i].state;
      nv.id = layer1[i].id;
      nv.id_visible = true;
    }
    views.push_back(nv);
  }
  const local::VerifierContext base_ctx(ctx.id(), ctx.state(), own, views,
                                        ctx.mode(), ctx.network_size());
  return base_.verify(base_ctx);
}

std::size_t SpreadScheme::proof_size_bound(std::size_t n,
                                           std::size_t state_bits) const {
  // suffix + chunk never exceed a full base certificate (the chunk is at
  // most the factored prefix, the suffix is the rest), so the spread adds
  // only the header: k, residue, suffix length.  The residue field is
  // bit_width(k-1) wide with k <= t/2 + 1, so its bound is bit_width(t/2) —
  // not the 6-bit worst case of the k field itself.
  const std::size_t base = base_.proof_size_bound(n, state_bits);
  return kChunkCountField + util::bit_width_for(t_ / 2) +
         detail::varint_bits(base) + base;
}

}  // namespace pls::radius

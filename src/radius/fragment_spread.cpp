#include "radius/fragment_spread.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <unordered_map>

#include "radius/parse_link.hpp"
#include "radius/splice.hpp"
#include "radius/spread_wire.hpp"
#include "util/assert.hpp"

namespace pls::radius {

namespace {

using detail::chunk_size;
using detail::FragmentWire;
using detail::kChunkCountField;

constexpr std::uint32_t kNoMember = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint32_t kUnassigned =
    std::numeric_limits<std::uint32_t>::max();

/// The verifier's cached parse of one fragment-spread certificate.
struct FragmentParsed final : ParsedCert {
  static constexpr std::uint32_t kUnlinked =
      std::numeric_limits<std::uint32_t>::max();

  explicit FragmentParsed(FragmentWire w) : wire(std::move(w)) {}
  FragmentWire wire;
  /// Dense chunk-payload class assigned by link_parses: equal ids iff the
  /// chunks are bit-identical.  kUnlinked outside a verifier's cache.
  std::uint32_t chunk_class = kUnlinked;
};

/// One region decomposition, fully resolved: dense region index per node,
/// landmark / in-region BFS distance / landmark eccentricity / certificate
/// LCP per region.  Built from a candidate label assignment by refining it
/// into connected components, so regions are connected by construction.
struct RegionStructure {
  std::vector<std::uint32_t> region_of;   ///< dense region index per node
  std::vector<std::uint32_t> dist;        ///< in-region BFS dist from landmark
  std::vector<graph::NodeIndex> landmark; ///< per region: min-id node
  std::vector<std::uint32_t> ecc;         ///< per region: landmark ecc
  std::vector<std::size_t> prefix_len;    ///< per region: LCP of member certs
  std::size_t count = 0;
};

RegionStructure build_structure(const graph::Graph& g,
                                const core::Labeling& base_lab,
                                std::span<const std::uint32_t> labels) {
  const std::size_t n = g.n();
  RegionStructure s;
  s.region_of.assign(n, kUnassigned);
  s.dist.assign(n, 0);

  // Refine the candidate labels into connected components of the
  // equal-label subgraph; candidates are hints, connectivity is ours.
  std::vector<graph::NodeIndex> queue;
  queue.reserve(n);
  for (graph::NodeIndex v = 0; v < n; ++v) {
    if (s.region_of[v] != kUnassigned) continue;
    const auto region = static_cast<std::uint32_t>(s.count++);
    s.region_of[v] = region;
    queue.clear();
    queue.push_back(v);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const graph::NodeIndex u = queue[head];
      for (const graph::AdjEntry& a : g.adjacency(u)) {
        if (labels[a.to] != labels[v]) continue;
        if (s.region_of[a.to] != kUnassigned) continue;
        s.region_of[a.to] = region;
        queue.push_back(a.to);
      }
    }
  }

  // Landmark (minimum raw id) per region.
  s.landmark.assign(s.count, graph::kInvalidNode);
  for (graph::NodeIndex v = 0; v < n; ++v) {
    graph::NodeIndex& lm = s.landmark[s.region_of[v]];
    if (lm == graph::kInvalidNode || g.id(v) < g.id(lm)) lm = v;
  }

  // One multi-source BFS over region-internal edges resolves every region's
  // distances at once (regions are disjoint, so the frontiers never mix).
  s.ecc.assign(s.count, 0);
  queue.clear();
  std::vector<bool> seen(n, false);
  for (const graph::NodeIndex lm : s.landmark) {
    seen[lm] = true;
    queue.push_back(lm);
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const graph::NodeIndex u = queue[head];
    for (const graph::AdjEntry& a : g.adjacency(u)) {
      if (s.region_of[a.to] != s.region_of[u] || seen[a.to]) continue;
      seen[a.to] = true;
      s.dist[a.to] = s.dist[u] + 1;
      s.ecc[s.region_of[a.to]] =
          std::max(s.ecc[s.region_of[a.to]], s.dist[a.to]);
      queue.push_back(a.to);
    }
  }
  for (graph::NodeIndex v = 0; v < n; ++v) PLS_ASSERT(seen[v]);

  // Longest common certificate prefix per region (folded against the
  // landmark's certificate — the common prefix of a set is the minimum LCP
  // against any fixed member).
  s.prefix_len.assign(s.count, 0);
  for (std::size_t r = 0; r < s.count; ++r)
    s.prefix_len[r] = base_lab.certs[s.landmark[r]].bit_size();
  for (graph::NodeIndex v = 0; v < n; ++v) {
    const std::uint32_t r = s.region_of[v];
    s.prefix_len[r] =
        std::min(s.prefix_len[r],
                 detail::lcp_bits(base_lab.certs[s.landmark[r]],
                                  base_lab.certs[v]));
  }
  return s;
}

std::size_t factor_for(unsigned t, std::uint32_t ecc) {
  return std::min<std::size_t>(t / 2 + 1, std::size_t{ecc} + 1);
}

/// Exact certificate bits node v would encode to under structure s.
std::size_t node_bits(const graph::Graph& g, const core::Labeling& base_lab,
                      const RegionStructure& s, unsigned t,
                      graph::NodeIndex v) {
  const std::uint32_t r = s.region_of[v];
  const std::size_t k = factor_for(t, s.ecc[r]);
  const std::size_t suffix = base_lab.certs[v].bit_size() - s.prefix_len[r];
  return kChunkCountField + util::bit_width_for(k - 1) +
         detail::varint_bits(g.id(s.landmark[r])) +
         detail::varint_bits(suffix) + suffix +
         chunk_size(s.prefix_len[r], k, s.dist[v] % k);
}

/// Mechanical candidates for bases without a RegionProvider: connected
/// components of equal-prefix classes, thresholded at sampled per-edge LCP
/// values.  An edge joins two nodes into one class when their certificates
/// agree on at least L bits; LCPs are ultrametric (lcp(a,c) >=
/// min(lcp(a,b), lcp(b,c))), so every component's certificates share >= L
/// prefix bits.  Candidates are returned fine to coarse (descending L) —
/// lowering the threshold only merges components, which is the laminar
/// ordering the DP in mark() consumes.
std::vector<core::RegionAssignment> mechanical_candidates(
    const graph::Graph& g, const core::Labeling& base_lab) {
  constexpr std::size_t kMaxThresholds = 12;
  std::vector<std::size_t> edge_lcp(g.m());
  for (graph::EdgeIndex e = 0; e < g.m(); ++e) {
    const graph::Edge& ed = g.edge(e);
    edge_lcp[e] =
        detail::lcp_bits(base_lab.certs[ed.u], base_lab.certs[ed.v]);
  }
  std::vector<std::size_t> thresholds = edge_lcp;
  std::sort(thresholds.begin(), thresholds.end(),
            std::greater<std::size_t>());
  thresholds.erase(std::unique(thresholds.begin(), thresholds.end()),
                   thresholds.end());
  if (thresholds.size() > kMaxThresholds) {
    std::vector<std::size_t> sampled;
    sampled.reserve(kMaxThresholds);
    for (std::size_t i = 0; i < kMaxThresholds; ++i)
      sampled.push_back(
          thresholds[i * (thresholds.size() - 1) / (kMaxThresholds - 1)]);
    sampled.erase(std::unique(sampled.begin(), sampled.end()), sampled.end());
    thresholds = std::move(sampled);
  }

  std::vector<core::RegionAssignment> out;
  out.reserve(thresholds.size());
  std::vector<graph::NodeIndex> queue;
  for (const std::size_t L : thresholds) {
    core::RegionAssignment labels(g.n(), kUnassigned);
    std::uint32_t next = 0;
    for (graph::NodeIndex v = 0; v < g.n(); ++v) {
      if (labels[v] != kUnassigned) continue;
      labels[v] = next;
      queue.assign(1, v);
      for (std::size_t head = 0; head < queue.size(); ++head)
        for (const graph::AdjEntry& a : g.adjacency(queue[head])) {
          if (edge_lcp[a.edge] < L || labels[a.to] != kUnassigned) continue;
          labels[a.to] = next;
          queue.push_back(a.to);
        }
      ++next;
    }
    out.push_back(std::move(labels));
  }
  return out;
}

/// Per-thread scratch for verify_ball (see spread.cpp for the rationale).
struct VerifyScratch {
  std::vector<const FragmentWire*> parsed;
  std::vector<std::uint32_t> chunk_class;
  std::vector<FragmentWire> local_parses;
  std::unordered_map<std::uint64_t, std::uint32_t> group_index;
  std::vector<std::uint32_t> group_of;      ///< per member
  std::vector<std::uint64_t> group_k;       ///< per group
  std::vector<std::uint32_t> group_offset;  ///< per group: slot base
  std::vector<std::uint32_t> rep_of;        ///< per slot: member index
  std::vector<std::uint8_t> required;       ///< per group
  std::vector<const util::BitString*> chunk_of;
  std::vector<util::BitString> prefix_of;   ///< per group (required only)
  std::vector<local::Certificate> neighbor_certs;
  std::vector<local::NeighborView> views;
};

}  // namespace

FragmentSpreadScheme::FragmentSpreadScheme(const core::Scheme& base,
                                           unsigned t)
    : base_(base), t_(t) {
  PLS_REQUIRE(t >= 1 && t <= 63);
  name_ = "fragspread(t=" + std::to_string(t) + ")/" +
          std::string(base.name());
}

std::unique_ptr<ParsedCert> FragmentSpreadScheme::parse_cert(
    const local::Certificate& cert) const {
  auto wire = detail::parse_fragment_wire(cert);
  if (!wire) return nullptr;
  return std::make_unique<FragmentParsed>(std::move(*wire));
}

void FragmentSpreadScheme::link_parses(
    std::span<const std::unique_ptr<ParsedCert>> parsed) const {
  detail::intern_chunk_classes<FragmentParsed>(parsed);
}

std::unique_ptr<LinkState> FragmentSpreadScheme::make_link_state() const {
  return std::make_unique<detail::ChunkInternState>();
}

void FragmentSpreadScheme::link_parses_stateful(
    LinkState& state,
    std::span<const std::unique_ptr<ParsedCert>> parsed) const {
  detail::intern_chunk_classes_stateful<FragmentParsed>(
      static_cast<detail::ChunkInternState&>(state), parsed);
}

void FragmentSpreadScheme::relink_parses(
    LinkState& state, std::span<const std::unique_ptr<ParsedCert>> parsed,
    std::span<const graph::NodeIndex> touched) const {
  detail::relink_chunk_classes<FragmentParsed>(
      static_cast<detail::ChunkInternState&>(state), parsed, touched);
}

std::vector<SchemeAttack> FragmentSpreadScheme::adversarial_labelings(
    const local::Configuration& cfg, util::Rng& rng) const {
  std::vector<SchemeAttack> attacks = fragment_splice_attacks(*this, cfg, rng);
  for (SchemeAttack& attack : attacks) attack.name = "splice:" + attack.name;
  return attacks;
}

core::Labeling FragmentSpreadScheme::mark(
    const local::Configuration& cfg) const {
  const core::Labeling base_lab = base_.mark(cfg);
  const graph::Graph& g = cfg.graph();
  const std::size_t n = g.n();
  PLS_ASSERT(base_lab.size() == n);
  if (n == 0) return {};

  // Candidate decompositions, fine to coarse: the base scheme's own
  // structure when it exposes one (MST: Borůvka phases, singletons first),
  // else the mechanical equal-prefix components at descending LCP
  // thresholds; the trivial decomposition (one region per connected
  // component — exactly the global spread) closes the list, so the fragment
  // spread never does worse than the global one.
  std::vector<core::RegionAssignment> candidates;
  if (const auto* provider = dynamic_cast<const core::RegionProvider*>(&base_)) {
    for (core::RegionAssignment& cand : provider->region_candidates(cfg))
      candidates.push_back(std::move(cand));
  } else {
    for (core::RegionAssignment& cand : mechanical_candidates(g, base_lab))
      candidates.push_back(std::move(cand));
  }
  candidates.emplace_back(n, 0);

  // Both candidate families are laminar — Borůvka fragments only merge, and
  // lowering an LCP threshold only merges equal-prefix components — so the
  // best partition need not live on a single level: a bottom-up DP picks,
  // for every coarse region, either the region whole or the best mix of its
  // sub-regions, minimizing the maximum per-node certificate size over all
  // mixed-granularity partitions of the laminar family.
  struct Level {
    RegionStructure s;
    std::vector<std::size_t> best;       ///< per region: best achievable max
    std::vector<std::uint8_t> whole;     ///< per region: keep whole?
  };
  std::vector<Level> levels;
  levels.reserve(candidates.size());
  for (const core::RegionAssignment& cand : candidates) {
    Level level{build_structure(g, base_lab, cand), {}, {}};
    level.best.assign(level.s.count, 0);
    level.whole.assign(level.s.count, 1);
    for (graph::NodeIndex v = 0; v < n; ++v) {
      std::size_t& slot = level.best[level.s.region_of[v]];
      slot = std::max(slot, node_bits(g, base_lab, level.s, t_, v));
    }
    if (!levels.empty()) {
      // max over the children (previous, finer level) of each region; a
      // child's parent is the region holding its landmark.
      const Level& fine = levels.back();
      std::vector<std::size_t> child_max(level.s.count, 0);
      for (std::size_t c = 0; c < fine.s.count; ++c) {
        const std::uint32_t parent =
            level.s.region_of[fine.s.landmark[c]];
        child_max[parent] = std::max(child_max[parent], fine.best[c]);
      }
      for (std::size_t r = 0; r < level.s.count; ++r) {
        if (child_max[r] < level.best[r]) {
          level.best[r] = child_max[r];
          level.whole[r] = 0;
        }
      }
    }
    levels.push_back(std::move(level));
  }

  // Resolve each node's chosen level by walking top-down until a region
  // elects to stay whole (level 0 always does), then name the chosen piece
  // (level, region) as this node's final label.
  std::unordered_map<std::uint64_t, std::uint32_t> piece_label;
  core::RegionAssignment final_labels(n, 0);
  for (graph::NodeIndex v = 0; v < n; ++v) {
    std::size_t level = levels.size() - 1;
    while (level > 0 &&
           !levels[level].whole[levels[level].s.region_of[v]])
      --level;
    const std::uint64_t piece =
        (static_cast<std::uint64_t>(level) << 32) |
        levels[level].s.region_of[v];
    const auto [it, inserted] = piece_label.try_emplace(
        piece, static_cast<std::uint32_t>(piece_label.size()));
    final_labels[v] = it->second;
  }
  const RegionStructure best = build_structure(g, base_lab, final_labels);

  // Interleaved chunks of every region's prefix.
  std::vector<std::vector<util::BitString>> chunks(best.count);
  for (std::size_t r = 0; r < best.count; ++r) {
    const util::BitString& ref = base_lab.certs[best.landmark[r]];
    chunks[r] = detail::shard_chunks(
        detail::slice_bits(ref, 0, best.prefix_len[r]),
        factor_for(t_, best.ecc[r]));
  }

  core::Labeling lab;
  lab.certs.reserve(n);
  for (graph::NodeIndex v = 0; v < n; ++v) {
    const std::uint32_t r = best.region_of[v];
    const std::size_t k = factor_for(t_, best.ecc[r]);
    const std::size_t j = best.dist[v] % k;
    FragmentWire wire;
    wire.k = k;
    wire.residue = j;
    wire.region = g.id(best.landmark[r]);
    wire.suffix = detail::slice_bits(
        base_lab.certs[v], best.prefix_len[r],
        base_lab.certs[v].bit_size() - best.prefix_len[r]);
    wire.chunk = chunks[r][j];
    lab.certs.push_back(detail::encode_fragment_wire(wire));
  }
  return lab;
}

bool FragmentSpreadScheme::verify_ball(const RadiusContext& ctx) const {
  const BallView& ball = ctx.ball();
  const std::span<const BallMember> members = ball.members();

  static thread_local VerifyScratch scratch;

  // Certificates of the ball, parsed at most once per node; the cache path
  // carries the interned chunk-class ids.
  std::vector<const FragmentWire*>& parsed = scratch.parsed;
  std::vector<std::uint32_t>& chunk_class = scratch.chunk_class;
  parsed.assign(members.size(), nullptr);
  chunk_class.assign(members.size(), FragmentParsed::kUnlinked);
  if (ctx.has_parse_cache()) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      const auto* p =
          static_cast<const FragmentParsed*>(ctx.parsed(members[i].node));
      if (p == nullptr) return false;  // malformed certificate in the ball
      parsed[i] = &p->wire;
      chunk_class[i] = p->chunk_class;
    }
  } else {
    std::vector<FragmentWire>& local_parses = scratch.local_parses;
    local_parses.clear();
    local_parses.reserve(members.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
      auto p = detail::parse_fragment_wire(*members[i].cert);
      if (!p) return false;
      local_parses.push_back(std::move(*p));
    }
    for (std::size_t i = 0; i < members.size(); ++i)
      parsed[i] = &local_parses[i];
  }

  // Group the ball by region id; every member of a region group must agree
  // on the chunk count.
  std::unordered_map<std::uint64_t, std::uint32_t>& group_index =
      scratch.group_index;
  group_index.clear();
  std::vector<std::uint32_t>& group_of = scratch.group_of;
  std::vector<std::uint64_t>& group_k = scratch.group_k;
  group_of.assign(members.size(), 0);
  group_k.clear();
  for (std::size_t i = 0; i < members.size(); ++i) {
    const auto [it, inserted] = group_index.try_emplace(
        parsed[i]->region, static_cast<std::uint32_t>(group_k.size()));
    group_of[i] = it->second;
    if (inserted) {
      group_k.push_back(parsed[i]->k);
    } else if (group_k[it->second] != parsed[i]->k) {
      return false;
    }
  }

  // Region-id binding: a region is named by its minimum-id member, so no
  // node may claim a region id above its own id, and the landmark itself —
  // the one node whose id equals the region id — must sit at residue 0.
  // The center always knows its own id; under Extended visibility the same
  // bound applies to every ball member.
  const FragmentWire& own = *parsed.front();
  if (own.region > ctx.id()) return false;
  if (own.region == ctx.id() && own.residue != 0) return false;
  if (ctx.mode() == local::Visibility::kExtended) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (!members[i].id_visible) continue;
      if (parsed[i]->region > members[i].id) return false;
      if (parsed[i]->region == members[i].id && parsed[i]->residue != 0)
        return false;
    }
  }

  // Per-region chunk-class agreement: same region + same residue must carry
  // bit-identical chunks (one id comparison per member on the cache path).
  std::vector<std::uint32_t>& group_offset = scratch.group_offset;
  group_offset.assign(group_k.size() + 1, 0);
  for (std::size_t gi = 0; gi < group_k.size(); ++gi)
    group_offset[gi + 1] =
        group_offset[gi] + static_cast<std::uint32_t>(group_k[gi]);
  std::vector<std::uint32_t>& rep_of = scratch.rep_of;
  rep_of.assign(group_offset.back(), kNoMember);
  for (std::size_t i = 0; i < members.size(); ++i) {
    std::uint32_t& rep =
        rep_of[group_offset[group_of[i]] + parsed[i]->residue];
    if (rep == kNoMember) {
      rep = static_cast<std::uint32_t>(i);
      continue;
    }
    const bool equal = chunk_class[i] != FragmentParsed::kUnlinked
                           ? chunk_class[i] == chunk_class[rep]
                           : parsed[i]->chunk == parsed[rep]->chunk;
    if (!equal) return false;
  }

  // In-region residue adjacency: distances from the region landmark change
  // by at most one across a region-internal edge.  Cross-region ball edges
  // carry no residue relation — their consistency is the base decoder's
  // cross-edge predicates on the reconstructions below.
  for (std::uint32_t i = 0; i < members.size(); ++i)
    for (const std::uint32_t nb : ball.neighbors_of(i)) {
      if (nb <= i) continue;
      if (parsed[i]->region != parsed[nb]->region) continue;
      const std::uint64_t k = parsed[i]->k;
      const std::uint64_t diff =
          (parsed[i]->residue + k - parsed[nb]->residue) % k;
      if (diff != 0 && diff != 1 && diff != k - 1) return false;
    }

  // Reassemble the prefix of every *required* region — the center's own and
  // each 1-hop neighbor's (their coverage is guaranteed, see the header).
  // Other regions grazed by the outer ball get the consistency checks above
  // but need not be coverable.
  std::vector<std::uint8_t>& required = scratch.required;
  required.assign(group_k.size(), 0);
  required[group_of[0]] = 1;
  const std::span<const BallMember> layer1 = ball.layer(1);
  for (std::size_t i = 0; i < layer1.size(); ++i) required[group_of[1 + i]] = 1;

  std::vector<util::BitString>& prefix_of = scratch.prefix_of;
  prefix_of.assign(group_k.size(), util::BitString());
  std::vector<const util::BitString*>& chunk_of = scratch.chunk_of;
  for (std::size_t gi = 0; gi < group_k.size(); ++gi) {
    if (!required[gi]) continue;
    const std::uint64_t k = group_k[gi];
    chunk_of.assign(k, nullptr);
    for (std::uint64_t j = 0; j < k; ++j) {
      const std::uint32_t rep = rep_of[group_offset[gi] + j];
      if (rep == kNoMember) return false;  // a chunk class is missing
      chunk_of[j] = &parsed[rep]->chunk;
    }
    auto prefix = detail::reassemble_chunks(chunk_of);
    if (!prefix) return false;  // chunk lengths must interleave consistently
    prefix_of[gi] = std::move(*prefix);
  }

  // Reconstruct the base certificates of the 1-hop neighborhood — each from
  // its *own* region's prefix — and run the base decoder.
  auto reconstruct = [&](std::size_t member_index) {
    const util::BitString& prefix = prefix_of[group_of[member_index]];
    const FragmentWire& p = *parsed[member_index];
    util::BitWriter w;
    w.write_bits(prefix.bytes(), prefix.bit_size());
    w.write_bits(p.suffix.bytes(), p.suffix.bit_size());
    return local::Certificate::from_writer(std::move(w));
  };
  const local::Certificate own_cert = reconstruct(0);
  std::vector<local::Certificate>& neighbor_certs = scratch.neighbor_certs;
  neighbor_certs.clear();
  neighbor_certs.reserve(layer1.size());
  // Members are in BFS order: layer 1 starts at member index 1.
  for (std::size_t i = 0; i < layer1.size(); ++i)
    neighbor_certs.push_back(reconstruct(1 + i));

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
  const local::VerifierContext base_ctx(ctx.id(), ctx.state(), own_cert,
                                        views, ctx.mode(),
                                        ctx.network_size());
  return base_.verify(base_ctx);
}

std::size_t FragmentSpreadScheme::proof_size_bound(
    std::size_t n, std::size_t state_bits) const {
  // suffix + chunk never exceed a full base certificate (the chunk is at
  // most the region prefix, the suffix is the rest), so the fragment spread
  // adds only its header: the k field, the residue (k <= t/2 + 1, so
  // bit_width(t/2) bits), the region id — a raw node id, bounded by the
  // standard "ids are polynomial in n" assumption (ids < 16n², as
  // schemes::id_varint_bound) — and the suffix length.
  const std::size_t base = base_.proof_size_bound(n, state_bits);
  return kChunkCountField + util::bit_width_for(t_ / 2) +
         detail::varint_bits(16 * n * n + 1) + detail::varint_bits(base) +
         base;
}

}  // namespace pls::radius

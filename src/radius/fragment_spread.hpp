// Certificate spreading: the mechanical 1-round scheme -> t-PLS transform.
//
// The classic 1-round schemes are redundant: large certificate fields (the
// root id of the spanning-tree schemes, the fragment names and chosen-edge
// records of MST's Borůvka phases) are *identical* across many nodes, yet
// each node stores a full copy.  Spreading shards that shared content
// across space and lets the radius-t verifier reassemble it.  Content may be
// shared globally (the root id) or only regionally (each Borůvka fragment
// agrees on its own records), so the transform works over a region
// decomposition:
//
//   * The marker partitions the nodes into connected *regions* and factors
//     out each region's own longest common certificate prefix X_r.  Region
//     candidates come from the base scheme when it implements
//     core::RegionProvider (MstScheme: one candidate per Borůvka phase,
//     regions = that phase's fragments); otherwise they are computed
//     mechanically as connected components of equal-prefix classes — per-edge
//     certificate LCPs thresholded at sampled lengths.  The trivial
//     decomposition (one region per connected component) is always a
//     candidate, and the marker keeps whichever mix of candidates minimizes
//     the maximum per-node certificate size.
//   * Each region shards X_r independently with its own factor
//     k_r = min(floor(t/2)+1, ecc_r+1), where ecc_r is the eccentricity of
//     the region's landmark (its minimum-id node) in the region-induced
//     subgraph.  A node stores its residue — in-region BFS distance from the
//     landmark mod k_r — one interleaved chunk of X_r, its residual suffix,
//     and, when the region has a boundary edge, the region id (the
//     landmark's raw id).  A region without one is a whole component and is
//     left unnamed: a 1-bit tag says so and no id is spelled, so the trivial
//     decomposition costs no more than sharding one global prefix.
//   * The verifier groups its ball by region id (all unnamed members form
//     one group), checks per-region chunk count and chunk-class agreement,
//     in-region residue adjacency, and the region-id bounds (a region is
//     named by its minimum id, so no member may have a smaller id than its
//     region id, and a node whose own id *is* the region id must sit at
//     residue 0).  It then reassembles the prefix of every region that
//     contains the center or a 1-hop neighbor — the radius-t ball provably
//     contains all k_r chunk classes of each such region: walking from a
//     node at in-region distance d' towards the landmark yields k_r
//     consecutive layers when d' >= k_r-1, and otherwise the ball reaches
//     the landmark and every layer 0..k_r-1 within
//     1 + (k_r-2) + (k_r-1) <= t hops of the center — reconstructs the base
//     certificates of the center's 1-hop neighborhood, and runs the base
//     decoder.  Cross-region boundaries are therefore checked twice: the
//     spread layer binds region names and chunk classes, and the base
//     decoder re-checks the semantic cross-edge predicates (for MST:
//     outgoing-edge minimality and fragment merges) on the reconstructions.
//
// Certificates shrink from |X_r| + |suffix| to |X_r|/k_r + |suffix| + O(1)
// per node — the size–time tradeoff of the t-PLS literature;
// bench_radius_tradeoff measures the spanning-tree and MST curves.  The wire
// format is in spread_wire.hpp.
//
// The stage-2 memo.  Reassembling a region's prefix and rebuilding a base
// certificate are per-labeling facts, yet the per-center decoder above
// repeats them at every center: the prefix once per center that requires the
// region, each node's base certificate deg+1 times.  memoize() computes them
// once per full run, right after its link.  It groups the whole labeling's
// parses as verify_ball groups a ball (by region id, all unnamed parses in
// one group) and, per group G, votes: the chunk count k most of G's parses
// carry, then at each residue j < k the link class c_j most of G's k-parses
// carry.  When every residue has a class and c_0..c_{k-1} reassemble into
// the prefix X_G, each of G's k-parses gets its base certificate
// X_G ++ suffix, stored in G's RegionMemo.  A stray or forged parse loses
// the vote without costing the rest of its group the memo.  verify_ball
// never reads the memo: it is a function of its ball's certificates alone,
// the oracle the clean path below is checked against.  The cache-less
// reference engine runs the same code without a parse cache.
//
// The clean path.  Every check verify_ball runs is a predicate on one ball
// member, on a pair of adjacent members, or on the coverage of a group the
// ball requires; so one pass over the labeling can list the nodes that can
// make any ball's check fail, and a ball holding none of them passes every
// check.  memoize() lists these *witnesses* in the loops that group and
// vote.  A node v is a witness when
//   (a) its parse is malformed;
//   (b) it carries no memo: its k is not its group's voted k, or its group
//       got no memo;
//   (c) its link class is not its group's voted class c_j at its residue j;
//   (d) it fails the region-id binding against its own id;
//   (e) it is an endpoint of a graph edge inside its region group whose
//       residues differ by more than one mod k;
//   (f) it is not covered: some residue j < k of its group has no member
//       that is a witness of none of (a)-(e) within t-1 hops along a path
//       of group members.
// Listing more nodes than a ball's checks need only makes more centers
// run verify_ball, the oracle.  So (f) asks for a path inside the group,
// not any graph path: t-1 rounds over the group's edges find it in
// O(t (n + m)), where one BFS per (group, residue) would cost
// O(n |B_{t-1}|) on a labeling of many small scattered groups.
// The verifier runs verify_ball at every center within distance t of a
// witness and verify_memoized — the base decoder on the memoized base
// certificates of the center's closed neighbourhood N[v], read in v's
// adjacency order — at every other, *clean*, center.
//
// Exactness.  Let v be clean, so its ball B holds no witness.  Then
// verify_ball(v) runs as follows, and reaches the base decoder with the
// bits verify_memoized hands it:
//   * no member is malformed (a), so no early reject on a parse;
//   * B groups its members by the same key memoize() groups the labeling,
//     so each ball group is part of one labeling group G, and every member
//     of it carries G's voted k (b): k agreement holds;
//   * the center binds against its own id (d).  Under Extended visibility
//     verify_ball also binds every id-visible member against that member's
//     id — the same predicate (d) checked at every node against its own id,
//     so (d) is a superset of it;
//   * every member carries the voted class at its residue (c), so two
//     members of one group at one residue carry equal classes: chunk-class
//     agreement holds;
//   * every intra-ball edge is a graph edge, so (e), checked on every graph
//     edge inside a group, is a superset of the ball's adjacency check;
//   * a required group is the group of some u in N[v]; u is not a witness,
//     so it is covered (f): each residue j < k of its group has a member w
//     joined to u by a path of at most t-1 edges, hence dist(u, w) <= t-1,
//     dist(v, w) <= t and w is in B.  The
//     coverage check passes, and the representative verify_ball picks at
//     each residue is a member of B, so it carries the voted class c_j;
//   * hence verify_ball's representatives carry the memo's classes, so its
//     own reassembly stitches bit-identical chunks into X_G, and its rebuilt
//     certificates are the memoized ones;
//   * the t = 1 bridge makes ball layer 1 the 1-round view of v — the same
//     members, in v's adjacency order, with the same edge weights (and, under
//     Extended visibility, the same states and ids) — so the base decoder
//     reads the same bits on both paths, and the verdicts agree.
// Honest markings have no witnesses when the graph is connected: one
// region, one k, one class per residue and the landmark id bind every
// member, in-region BFS distances change by at most one across an edge, and
// the landmark walk above covers every node at t-1 inside its region (it
// walks at most max(k-1, 2k-3) <= t-1 hops).  On a disconnected graph the
// unnamed regions of all components share one group, so the components the
// vote leaves out are witnesses: their centers stay exact, on verify_ball.
// The memo and the witnesses describe the labeling of one full run, and
// only that run's sweep reads them: a delta re-sweeps each of its dirty
// centers with verify_ball and takes it out of the clean set first.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "radius/engine_t.hpp"
#include "radius/spread_wire.hpp"

namespace pls::radius {

/// The stage-2 memo of one region group: each member's base certificate,
/// the group's reassembled prefix ++ the member's suffix, byte-aligned one
/// after another; FragmentParsed::base aliases its member's bytes.
struct RegionMemo {
  std::vector<std::uint8_t> bases;
};

/// The verifier's cached parse of one fragment-spread certificate.
struct FragmentParsed final : ParsedCert {
  explicit FragmentParsed(detail::FragmentWire w) : wire(std::move(w)) {}
  /// The chunk payload: link_class is its interned class.
  const util::BitString* link_key() const noexcept override {
    return &wire.chunk;
  }
  detail::FragmentWire wire;
  /// The stage-2 memo (FragmentSpreadScheme::memoize): this parse's
  /// group's memo and this node's base certificate, the group's prefix ++
  /// its suffix (aliasing memo->bases, which the memo pointer keeps alive);
  /// both empty when its group has none or this parse lost the k vote.
  /// Read only by verify_memoized.
  std::shared_ptr<const RegionMemo> memo;
  std::optional<local::Certificate> base;
};

class FragmentSpreadScheme final : public BallScheme {
 public:
  /// Wraps `base` (which must outlive this scheme) as a radius-t scheme.
  /// Requires 1 <= t <= 63, so k <= 32 fits the 5-bit chunk-count field.
  FragmentSpreadScheme(const core::Scheme& base, unsigned t);

  std::string_view name() const noexcept override { return name_; }
  const core::Language& language() const noexcept override {
    return base_.language();
  }
  local::Visibility visibility() const noexcept override {
    return base_.visibility();
  }
  unsigned radius() const noexcept override { return t_; }

  core::Labeling mark(const local::Configuration& cfg) const override;
  bool verify_ball(const RadiusContext& ctx) const override;
  std::size_t proof_size_bound(std::size_t n,
                               std::size_t state_bits) const override;

  /// Parse-once support (batch.hpp): the cached parse carries the wire's
  /// region id, so the verifier's parse cache is region-aware, and exposes
  /// its chunk payload as the link key, so per-ball chunk agreement on the
  /// sweep hot path compares interned ids, not BitStrings.
  std::unique_ptr<ParsedCert> parse_cert(
      const local::Certificate& cert) const override;

  /// The stage-2 memo described above: fills FragmentParsed::memo and
  /// ::base, and returns the witnesses (a)-(f) in increasing node order.
  /// `parsed` must be linked and hold one entry per node of `g`.
  std::optional<std::vector<graph::NodeIndex>> memoize(
      const graph::Graph& g,
      std::span<const std::unique_ptr<ParsedCert>> parsed) const override;

  /// The clean path: the base decoder at v over the memoized base
  /// certificates of N[v], built by the 1-round engine's view builder.
  bool verify_memoized(
      const local::Configuration& cfg, graph::NodeIndex v,
      std::span<const std::unique_ptr<ParsedCert>> parsed) const override;

  /// The splice suite (splice.hpp): two instances' markings stitched
  /// together, rotated residues and region ids, crossed chunk payloads,
  /// flipped region tags, a neighbor region's reassembled prefix spliced in.
  std::vector<SchemeAttack> adversarial_labelings(
      const local::Configuration& cfg, util::Rng& rng) const override;

  const core::Scheme& base() const noexcept { return base_; }

 private:
  const core::Scheme& base_;
  unsigned t_;
  std::string name_;
};

}  // namespace pls::radius

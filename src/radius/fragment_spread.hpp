// Fragment-aware certificate spreading: the region-decomposed t-PLS
// transform.
//
// SpreadScheme (spread.hpp) shards the *global* longest common prefix of the
// base certificates, which buys nothing for languages whose certificates
// share content regionally instead of globally — MST's Borůvka-phase
// certificates agree on the fragment name and chosen-edge records of every
// phase the fragment survives, but different fragments agree on different
// bits.  FragmentSpreadScheme generalizes the transform from one prefix to a
// region decomposition:
//
//   * The marker partitions the nodes into connected *regions* and factors
//     out each region's own longest common certificate prefix X_r.  Region
//     candidates come from the base scheme when it implements
//     core::RegionProvider (MstScheme: one candidate per Borůvka phase,
//     regions = that phase's fragments); otherwise they are computed
//     mechanically as connected components of equal-prefix classes — per-edge
//     certificate LCPs thresholded at sampled lengths.  The trivial
//     decomposition (one region per connected component — the global spread)
//     is always a candidate, and the marker keeps whichever candidate
//     minimizes the maximum per-node certificate size, so the fragment
//     spread never does worse than the global one.
//   * Each region shards X_r independently with its own factor
//     k_r = min(floor(t/2)+1, ecc_r+1), where ecc_r is the eccentricity of
//     the region's landmark (its minimum-id node) in the region-induced
//     subgraph.  A node stores its region id (the landmark's raw id), its
//     residue — in-region BFS distance from the landmark mod k_r — one
//     interleaved chunk of X_r, and its residual suffix.
//   * The verifier groups its ball by region id, checks per-region chunk
//     count and chunk-class agreement, in-region residue adjacency, and the
//     region-id bounds (a region is named by its minimum id, so no member
//     may have a smaller id than its region id, and a node whose own id *is*
//     the region id must sit at residue 0).  It then reassembles the prefix
//     of every region that contains the center or a 1-hop neighbor — the
//     radius-t ball provably contains all k_r chunk classes of each such
//     region: walking from a node at in-region distance d' towards the
//     landmark yields k_r consecutive layers when d' >= k_r-1, and otherwise
//     the ball reaches the landmark and every layer 0..k_r-1 within
//     1 + (k_r-2) + (k_r-1) <= t hops of the center — reconstructs the base
//     certificates of the center's 1-hop neighborhood, and runs the base
//     decoder.  Cross-region boundaries are therefore checked twice: the
//     spread layer binds region names and chunk classes, and the base
//     decoder re-checks the semantic cross-edge predicates (for MST:
//     outgoing-edge minimality and fragment merges) on the reconstructions.
//
// Certificates shrink from |X_r| + |suffix| to |X_r|/k_r + |suffix| + O(1)
// per node — the size–time tradeoff of the t-PLS literature, now realized
// for regionally-redundant languages; bench_radius_tradeoff measures the MST
// curve next to the spanning-tree one.
#pragma once

#include <string>

#include "radius/engine_t.hpp"

namespace pls::radius {

class FragmentSpreadScheme final : public BallScheme {
 public:
  /// Wraps `base` (which must outlive this scheme) as a radius-t scheme.
  /// Requires 1 <= t <= 63 (k must fit the 6-bit chunk-count field).
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
  /// region id, so the verifier's parse cache is region-aware.
  bool has_cert_parser() const noexcept override { return true; }
  std::unique_ptr<ParsedCert> parse_cert(
      const local::Certificate& cert) const override;

  /// Interns chunk payloads into dense class ids after the parallel parse
  /// (equal id <=> bit-identical chunk), so per-ball chunk agreement on the
  /// sweep hot path compares ids, not BitStrings.
  void link_parses(
      std::span<const std::unique_ptr<ParsedCert>> parsed) const override;

  /// Incremental link (the delta path): same persistent interning table as
  /// the global spread's — region ids live in the wire, so only the chunk
  /// payload needs stable interning.
  std::unique_ptr<LinkState> make_link_state() const override;
  void link_parses_stateful(
      LinkState& state,
      std::span<const std::unique_ptr<ParsedCert>> parsed) const override;
  void relink_parses(
      LinkState& state, std::span<const std::unique_ptr<ParsedCert>> parsed,
      std::span<const graph::NodeIndex> touched) const override;

  /// The cross-region splice suite (splice.hpp): crossed fragment chunk
  /// payloads, rotated region ids, a neighbor region's reassembled prefix
  /// spliced in — the failure modes specific to region decomposition.
  std::vector<SchemeAttack> adversarial_labelings(
      const local::Configuration& cfg, util::Rng& rng) const override;

  const core::Scheme& base() const noexcept { return base_; }

 private:
  const core::Scheme& base_;
  unsigned t_;
  std::string name_;
};

}  // namespace pls::radius

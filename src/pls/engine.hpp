// Verification engine: runs a scheme's decoder over a configuration.
//
// The engine materializes, for every node, exactly the view the visibility
// mode allows (local/views.hpp) and evaluates the verifier once per node —
// i.e., it simulates the single verification round of the LOCAL model.
// The radius-t generalization (multi-round verification over balls) lives in
// radius/engine_t.hpp and shares the per-node routine below.
#pragma once

#include <limits>
#include <vector>

#include "local/config.hpp"
#include "pls/scheme.hpp"

namespace pls::core {

class Verdict {
 public:
  Verdict() = default;
  explicit Verdict(std::vector<bool> accept_flags)
      : accept_(std::move(accept_flags)) {}

  /// Per-node accept flags.
  const std::vector<bool>& accept() const noexcept { return accept_; }

  /// Mutation goes through the class so the cached count can't go stale.
  void set_accept(graph::NodeIndex v, bool a) {
    accept_.at(v) = a;
    rejections_ = kNotCounted;
  }

  /// Number of rejecting nodes.  Counted once and cached; the adversary's
  /// hill-climb loop calls this once per candidate labeling, so the scan must
  /// not repeat in `all_accept()` / `rejecting_nodes()`.
  std::size_t rejections() const noexcept {
    if (rejections_ == kNotCounted) {
      std::size_t k = 0;
      for (const bool a : accept_)
        if (!a) ++k;
      rejections_ = k;
    }
    return rejections_;
  }

  bool all_accept() const noexcept { return rejections() == 0; }

  /// Fraction of nodes rejecting, in [0, 1] (0 on an empty verdict).  The
  /// telemetry scalar error-sensitive schemes make meaningful: it tracks the
  /// configuration's distance from the language (obs/density.hpp).
  double rejection_density() const noexcept {
    return accept_.empty() ? 0.0
                           : static_cast<double>(rejections()) /
                                 static_cast<double>(accept_.size());
  }

  std::vector<graph::NodeIndex> rejecting_nodes() const {
    std::vector<graph::NodeIndex> out;
    out.reserve(rejections());
    for (graph::NodeIndex v = 0; v < accept_.size(); ++v)
      if (!accept_[v]) out.push_back(v);
    return out;
  }

  /// Per-node rejection mask (the complement of `accept`).
  std::vector<bool> rejected() const {
    std::vector<bool> out(accept_.size());
    for (std::size_t v = 0; v < accept_.size(); ++v) out[v] = !accept_[v];
    return out;
  }

 private:
  static constexpr std::size_t kNotCounted =
      std::numeric_limits<std::size_t>::max();
  std::vector<bool> accept_;
  mutable std::size_t rejections_ = kNotCounted;
};

/// Runs the verifier at every node with the given certificates.
Verdict run_verifier(const Scheme& scheme, const local::Configuration& cfg,
                     const Labeling& labeling);

/// Completeness check: marks cfg (must be legal) and verifies all-accept.
bool completeness_holds(const Scheme& scheme, const local::Configuration& cfg);

/// Message-bits accounting for the verification round: every edge carries
/// each endpoint's certificate (plus state/id in Extended mode).
std::size_t verification_round_bits(const Scheme& scheme,
                                    const local::Configuration& cfg,
                                    const Labeling& labeling);

namespace detail {

/// The one builder of a 1-round view: node v's neighbors in its adjacency
/// order, each with the edge weight to v (plus state and id under Extended
/// visibility), carrying the certificate `cert_of(u)` names for node u —
/// then the scheme's decoder on that view.  verify_one_round_at reads the
/// labeling's certificates; the fragment spread's clean path
/// (radius/fragment_spread.hpp) reads its memoized base certificates.
template <typename CertOf>
bool verify_one_round_with(const Scheme& scheme,
                           const local::Configuration& cfg, graph::NodeIndex v,
                           const CertOf& cert_of,
                           std::vector<local::NeighborView>& scratch) {
  const graph::Graph& g = cfg.graph();
  const local::Visibility mode = scheme.visibility();
  scratch.clear();
  for (const graph::AdjEntry& a : g.adjacency(v)) {
    local::NeighborView nv;
    nv.cert = &cert_of(a.to);
    nv.edge_weight = g.weight(a.edge);
    if (mode == local::Visibility::kExtended) {
      nv.state = &cfg.state(a.to);
      nv.id = g.id(a.to);
      nv.id_visible = true;
    }
    scratch.push_back(nv);
  }
  const local::VerifierContext ctx(g.id(v), cfg.state(v), cert_of(v), scratch,
                                   mode, g.n());
  return scheme.verify(ctx);
}

/// One node's single-round verdict.  `scratch` is caller-owned so sweeps
/// reuse one allocation; the t-round engine calls this for plain (1-round)
/// schemes, which is what makes run_verifier_t(_, _, _, 1) bit-for-bit equal
/// to run_verifier.  Safe to call concurrently for different nodes as long
/// as each caller owns its `scratch` — the parallel sweep of
/// radius::BatchVerifier (radius/batch.hpp) relies on this, so don't add
/// shared mutable state.
bool verify_one_round_at(const Scheme& scheme, const local::Configuration& cfg,
                         const Labeling& labeling, graph::NodeIndex v,
                         std::vector<local::NeighborView>& scratch);

/// Bits one node contributes to a message (certificate, plus state and id
/// under Extended visibility).
std::size_t node_payload_bits(const Scheme& scheme,
                              const local::Configuration& cfg,
                              const Labeling& labeling, graph::NodeIndex v);

}  // namespace detail

}  // namespace pls::core

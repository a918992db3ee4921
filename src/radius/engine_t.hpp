// Radius-t verification engine (t-PLS).
//
// KKP05 fixes the verification time at one round and proves label-size lower
// bounds there; the t-PLS line of work (Ostrovsky–Perry–Rosenbaum,
// Filtser–Fischer) trades verification time against proof size: a verifier
// that runs t rounds sees its radius-t ball, and certificates can shrink by
// a ~t factor.  This engine generalizes pls::core::run_verifier to that
// model:
//
//   * plain 1-round schemes run unchanged at any t >= 1 (extra rounds add
//     information the decoder does not read), and at t = 1 the verdict is
//     bit-for-bit what run_verifier produces — same per-node routine;
//   * BallScheme implementations declare a radius and receive the full
//     RadiusContext;
//   * verification_round_bits_t accounts the message volume of t flooding
//     rounds (round r forwards what was learned in round r-1), reducing to
//     verification_round_bits at t = 1.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "pls/engine.hpp"
#include "radius/ball.hpp"
#include "util/rng.hpp"

namespace pls::radius {

/// A scheme-aware adversarial labeling: a strategy label plus the
/// certificates it assigns.  Produced by BallScheme::adversarial_labelings
/// and fed through the attack suite (pls/adversary.hpp).
struct SchemeAttack {
  std::string name;
  core::Labeling labeling;
};

/// A scheme whose decoder reads a radius-t ball instead of the 1-hop view.
class BallScheme : public core::Scheme {
 public:
  /// The verification radius t >= 1 the decoder needs.
  virtual unsigned radius() const noexcept = 0;

  /// The decoder, run independently at every center.
  virtual bool verify_ball(const RadiusContext& ctx) const = 0;

  /// Stage 2 of the parse-once pipeline: parses one certificate into the
  /// scheme's own ParsedCert subclass; nullptr means malformed (the scheme's
  /// verify_ball decides what a malformed member implies — for every scheme
  /// so far, reject).  BatchVerifier parses every node's certificate exactly
  /// once per labeling, interns the parses' link keys (ParsedCert::link_key,
  /// parse_link.hpp), and exposes the results to verify_ball via
  /// RadiusContext::parsed, instead of each of the O(n) overlapping balls
  /// re-parsing the same certificates.  Must be thread-safe: the verifier
  /// parses nodes in parallel.  The parse must own its bytes and never alias
  /// `cert`: parses stay resident for later deltas after the certificate's
  /// buffer (possibly a request frame) is released.
  virtual std::unique_ptr<ParsedCert> parse_cert(
      const local::Certificate& cert) const = 0;

  /// Stage 2's memo pass, run once per full run right after its link:
  /// records in the linked parses (`parsed`, null = malformed) facts that
  /// every center would otherwise re-derive from its own ball, for
  /// verify_memoized to read in that run's sweep.  verify_ball never reads
  /// them: it stays a function of its ball's certificates, the oracle
  /// verify_memoized is checked against.  Runs on the verifier's one caller
  /// thread.
  ///
  /// It also reports the labeling's *witnesses* W: the nodes whose presence
  /// in a ball can make verify_ball do anything but run its base decoder on
  /// memoized certificates.  The contract a scheme signs by returning W:
  /// for every center v with no node of W within distance radius() of v,
  /// verify_ball(v) == verify_memoized(v),
  /// as long as no parse in v's ball is replaced.  The verifier then runs
  /// verify_memoized at every such *clean* center of a full sweep and
  /// verify_ball, the oracle, at every other one; a delta re-sweeps its
  /// dirty centers with verify_ball.  std::nullopt (the default) means the
  /// scheme has no clean path: every center runs verify_ball.
  virtual std::optional<std::vector<graph::NodeIndex>> memoize(
      const graph::Graph& /*g*/,
      std::span<const std::unique_ptr<ParsedCert>> /*parsed*/) const {
    return std::nullopt;
  }

  /// The clean-path decoder of center v (see memoize): the verdict
  /// verify_ball would give v, computed from the memoized parses alone — no
  /// ball, no geometry.  Called only for centers memoize's witnesses leave
  /// clean, from the parallel sweep, so it must be thread-safe.  Default:
  /// unreachable, since the default memoize reports no clean path.
  virtual bool verify_memoized(
      const local::Configuration& cfg, graph::NodeIndex v,
      std::span<const std::unique_ptr<ParsedCert>> parsed) const;

  /// Scheme-aware adversarial labelings for the attack suite: labelings
  /// that target the scheme's own structural invariants, beyond what the
  /// generic strategies can construct.  The adversary mounts every returned
  /// labeling.  Default: none.
  virtual std::vector<SchemeAttack> adversarial_labelings(
      const local::Configuration& cfg, util::Rng& rng) const;

  /// Ball schemes cannot run in the 1-round engine; use run_verifier_t.
  bool verify(const local::VerifierContext&) const override;
};

/// Runs the verifier at every node over radius-t balls.  Requires t >= 1
/// (t = 0 is invalid input), and t >= scheme.radius() for ball schemes (the
/// decoder is evaluated on exactly its declared radius).  This is the
/// sequential path: it delegates to a single-threaded BatchVerifier::run_one
/// (batch.hpp), so it still benefits from the parse-once cache; callers
/// that sweep many labelings over one configuration, or want the thread
/// pool, should hold a BatchVerifier directly.
core::Verdict run_verifier_t(const core::Scheme& scheme,
                             const local::Configuration& cfg,
                             const core::Labeling& labeling, unsigned t);

/// The pre-pipeline reference engine: one ball at a time, no parse cache, no
/// threading — every ball certificate is re-parsed at every center.  Kept as
/// the differential-testing oracle and the benchmark baseline
/// (bench_verify_scale measures BatchVerifier against it).  Verdicts are
/// bit-identical to run_verifier_t and BatchVerifier at every thread count.
core::Verdict run_verifier_t_baseline(const core::Scheme& scheme,
                                      const local::Configuration& cfg,
                                      const core::Labeling& labeling,
                                      unsigned t);

/// Completeness at radius t: marks cfg (must be legal), verifies all-accept.
bool completeness_holds_t(const core::Scheme& scheme,
                          const local::Configuration& cfg, unsigned t);

/// Message bits of t flooding rounds: in round r (1-based), every node sends
/// each neighbor the payloads (certificate, plus state/id when Extended) it
/// learned in round r-1, i.e. of the nodes at distance exactly r-1 from it.
/// Total over directed edges (u -> v): sum over r < t of the payloads of u's
/// distance-r layer.  At t = 1 this is verification_round_bits exactly.
std::size_t verification_round_bits_t(const core::Scheme& scheme,
                                      const local::Configuration& cfg,
                                      const core::Labeling& labeling,
                                      unsigned t);

}  // namespace pls::radius

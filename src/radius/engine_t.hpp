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

#include <cstdint>
#include <memory>
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

/// Opaque per-verifier state of the incremental link path: whatever a scheme
/// must remember across a delta stream so relink_parses can hand out
/// *stable* ids — for the spread scheme, the append-only payload -> class
/// interning table (parse_link.hpp).  Owned by the BatchVerifier, created by
/// BallScheme::make_link_state, never shared between verifiers (link state
/// is mutated single-threaded in stage 2).
///
/// Thread contract (the compile-time analysis's terms): LinkState carries no
/// capability of its own — it is serialized by its owning BatchVerifier's
/// single-caller contract, mutated only in the stage-2 link phase, and the
/// sweep workers that later read the ids it minted are ordered behind that
/// mutation by the ThreadPool's job hand-off (pool mutex).  A scheme must
/// not stash shared mutable state here without adding a capability for it.
class LinkState {
 public:
  virtual ~LinkState() = default;

  /// Times the scheme rebuilt this state from scratch mid-stream to bound
  /// its memory (the spread scheme re-seeds its append-only intern table
  /// once dead ids outnumber live ones, parse_link.hpp).  Cumulative over
  /// the state's lifetime; surfaced as DeltaStats::link_reseeds.
  std::uint64_t reseeds = 0;

 protected:
  LinkState() = default;
};

/// A scheme whose decoder reads a radius-t ball instead of the 1-hop view.
class BallScheme : public core::Scheme {
 public:
  /// The verification radius t >= 1 the decoder needs.
  virtual unsigned radius() const noexcept = 0;

  /// The decoder, run independently at every center.
  virtual bool verify_ball(const RadiusContext& ctx) const = 0;

  /// Parse-once hook.  A scheme that returns true here must override
  /// parse_cert; BatchVerifier then parses every node's certificate
  /// exactly once per labeling and exposes the results to verify_ball via
  /// RadiusContext::parsed, instead of each of the O(n) overlapping balls
  /// re-parsing the same certificates.
  virtual bool has_cert_parser() const noexcept { return false; }

  /// Parses one certificate into the scheme's own ParsedCert subclass;
  /// nullptr means malformed (the scheme's verify_ball decides what a
  /// malformed member implies — for every scheme so far, reject).  Must be
  /// thread-safe: the verifier parses nodes in parallel.
  virtual std::unique_ptr<ParsedCert> parse_cert(
      const local::Certificate& cert) const;

  /// Link phase of the parse-once pipeline.  BatchVerifier calls this
  /// once per labeling, after the parallel parse and before any verify_ball,
  /// with every node's parse (entries are null for malformed certificates).
  /// Schemes intern payloads repeated across nodes — the spread scheme's
  /// chunk bit strings — into small dense ids here, so the per-ball equality
  /// checks on the hot path compare ids instead of BitStrings.  Runs on one
  /// thread; the linked parses are read-shared by all workers afterwards.
  virtual void link_parses(
      std::span<const std::unique_ptr<ParsedCert>> parsed) const;

  /// Incremental-link support (the delta path, radius/delta.hpp).  A scheme
  /// that returns non-null state here must override both stateful hooks
  /// below; nullptr (the default) makes BatchVerifier::run_delta fall back
  /// to a full link_parses pass per delta — still correct (a full re-link
  /// assigns ids consistently across every resident parse, and clean
  /// centers' carried verdicts depend only on certificate bits), just O(n)
  /// instead of O(|touched|).
  virtual std::unique_ptr<LinkState> make_link_state() const;

  /// Stateful full link: same observable result as link_parses, and
  /// additionally records the interning tables in `state` so later
  /// relink_parses calls against the same parse cache hand out stable ids.
  /// BatchVerifier uses this on every full run when make_link_state
  /// returned non-null, so any full run can seed a delta stream.
  virtual void link_parses_stateful(
      LinkState& state,
      std::span<const std::unique_ptr<ParsedCert>> parsed) const;

  /// Incremental link: re-links only `touched` nodes' parses (the rest of
  /// `parsed` is carried forward from the run that last filled `state`).
  /// The stability contract that keeps mixed old/new comparisons valid:
  /// across every call sharing one `state` since its last full link, two
  /// parse entries carry the same class id iff their payloads are
  /// bit-identical — ids are never reused for different payloads.
  virtual void relink_parses(LinkState& state,
                             std::span<const std::unique_ptr<ParsedCert>> parsed,
                             std::span<const graph::NodeIndex> touched) const;

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

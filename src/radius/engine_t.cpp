#include "radius/engine_t.hpp"

#include "radius/batch.hpp"
#include "util/assert.hpp"

namespace pls::radius {

bool BallScheme::verify(const local::VerifierContext&) const {
  util::contract_failure(
      "precondition", "BallScheme runs in the radius-t engine (run_verifier_t)",
      __FILE__, __LINE__);
}

bool BallScheme::verify_memoized(
    const local::Configuration&, graph::NodeIndex,
    std::span<const std::unique_ptr<ParsedCert>>) const {
  util::contract_failure(
      "precondition",
      "verify_memoized runs only where memoize reported witnesses",
      __FILE__, __LINE__);
}

std::vector<SchemeAttack> BallScheme::adversarial_labelings(
    const local::Configuration&, util::Rng&) const {
  return {};
}

core::Verdict run_verifier_t(const core::Scheme& scheme,
                             const local::Configuration& cfg,
                             const core::Labeling& labeling, unsigned t) {
  BatchOptions options;
  options.threads = 1;
  // One-shot call: a retaining atlas would materialize the whole graph's
  // geometry (hundreds of MB at large t) for a single labeling with no
  // reuse to amortize it.  A zero-budget atlas keeps the peak at one
  // block — blocks are built, swept, and dropped — with identical
  // verdicts.  Callers verifying many labelings hold a BatchVerifier (and
  // its warm atlas) themselves.
  options.atlas =
      std::make_shared<GeometryAtlas>(AtlasOptions{.byte_budget = 0});
  return BatchVerifier(scheme, cfg, t, options).run_one(labeling);
}

core::Verdict run_verifier_t_baseline(const core::Scheme& scheme,
                                      const local::Configuration& cfg,
                                      const core::Labeling& labeling,
                                      unsigned t) {
  PLS_REQUIRE(t >= 1);
  PLS_REQUIRE(labeling.size() == cfg.n());
  const auto* ball_scheme = dynamic_cast<const BallScheme*>(&scheme);
  if (ball_scheme != nullptr) PLS_REQUIRE(t >= ball_scheme->radius());

  const graph::Graph& g = cfg.graph();
  std::vector<bool> accept(cfg.n());

  if (ball_scheme == nullptr) {
    // A 1-round decoder reads only layer 1, whatever t is: evaluate it with
    // the shared per-node routine so the verdict matches run_verifier
    // bit-for-bit.
    std::vector<local::NeighborView> scratch;
    for (graph::NodeIndex v = 0; v < g.n(); ++v)
      accept[v] =
          core::detail::verify_one_round_at(scheme, cfg, labeling, v, scratch);
    return core::Verdict(std::move(accept));
  }

  BallBuilder builder;
  for (graph::NodeIndex v = 0; v < g.n(); ++v) {
    const BallView& ball = builder.build(cfg, labeling, v,
                                         ball_scheme->radius(),
                                         scheme.visibility());
    const RadiusContext ctx(ball, g.id(v), cfg.state(v), labeling.certs[v],
                            scheme.visibility(), g.n());
    accept[v] = ball_scheme->verify_ball(ctx);
  }
  return core::Verdict(std::move(accept));
}

bool completeness_holds_t(const core::Scheme& scheme,
                          const local::Configuration& cfg, unsigned t) {
  PLS_REQUIRE(scheme.language().contains(cfg));
  const core::Labeling labeling = scheme.mark(cfg);
  return run_verifier_t(scheme, cfg, labeling, t).all_accept();
}

std::size_t verification_round_bits_t(const core::Scheme& scheme,
                                      const local::Configuration& cfg,
                                      const core::Labeling& labeling,
                                      unsigned t) {
  PLS_REQUIRE(t >= 1);
  PLS_REQUIRE(labeling.size() == cfg.n());
  const graph::Graph& g = cfg.graph();

  // Node u forwards, over its t rounds, the payloads of its radius-(t-1)
  // ball across every incident edge; sum degree-weighted ball payloads.
  // t = 1: the ball is {u} and this is verification_round_bits exactly.
  std::size_t bits = 0;
  if (t == 1) {
    for (graph::NodeIndex u = 0; u < g.n(); ++u)
      bits += g.degree(u) *
              core::detail::node_payload_bits(scheme, cfg, labeling, u);
    return bits;
  }

  BallBuilder builder;
  for (graph::NodeIndex u = 0; u < g.n(); ++u) {
    const BallView& ball =
        builder.build(cfg, labeling, u, t - 1, scheme.visibility());
    std::size_t ball_payload = 0;
    for (const BallMember& m : ball.members())
      ball_payload +=
          core::detail::node_payload_bits(scheme, cfg, labeling, m.node);
    bits += g.degree(u) * ball_payload;
  }
  return bits;
}

}  // namespace pls::radius

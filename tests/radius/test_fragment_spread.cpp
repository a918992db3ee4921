// FragmentSpreadScheme: completeness and soundness of the region-decomposed
// t-PLS transform, the per-region proof-size bound, and the MST tradeoff it
// exists to realize.
#include "radius/fragment_spread.hpp"

#include <gtest/gtest.h>

#include <set>

#include "radius/batch.hpp"
#include "radius/spread_wire.hpp"
#include "schemes/agree.hpp"
#include "schemes/common.hpp"
#include "schemes/mst.hpp"
#include "schemes/registry.hpp"
#include "schemes/spanning_tree.hpp"
#include "testing/helpers.hpp"

namespace pls::radius {
namespace {

using pls::testing::share;

void expect_complete_t(const FragmentSpreadScheme& scheme,
                       const local::Configuration& cfg) {
  ASSERT_TRUE(scheme.language().contains(cfg));
  const core::Labeling lab = scheme.mark(cfg);
  const core::Verdict verdict =
      run_verifier_t(scheme, cfg, lab, scheme.radius());
  EXPECT_TRUE(verdict.all_accept())
      << scheme.name() << " rejected a legal configuration at "
      << verdict.rejections() << " nodes on " << cfg.graph().describe();
  EXPECT_LE(lab.max_bits(),
            scheme.proof_size_bound(cfg.n(), cfg.max_state_bits()))
      << scheme.name() << " exceeded its proof-size bound on "
      << cfg.graph().describe();
}

TEST(FragmentSpread, MstCompletenessSweep) {
  const schemes::MstLanguage language;
  const schemes::MstScheme base(language);
  for (const unsigned t : {1u, 2u, 4u, 8u}) {
    const FragmentSpreadScheme spread(base, t);
    for (auto& g : pls::testing::weighted_family(307)) {
      util::Rng rng(311);
      expect_complete_t(spread, language.sample_legal(g, rng));
    }
  }
}

TEST(FragmentSpread, StpCompletenessSweep) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  for (const unsigned t : {2u, 4u, 8u}) {
    const FragmentSpreadScheme spread(base, t);
    for (auto& g : pls::testing::unweighted_family(313)) {
      util::Rng rng(317);
      expect_complete_t(spread, language.sample_legal(g, rng));
    }
  }
}

// The full adversary suite (including the fragment splice attacks) drives
// the t-round engine against the fragment spread on illegal configurations.
TEST(FragmentSpread, MstSoundOnWrongSpanningTree) {
  const schemes::MstLanguage language;
  const schemes::MstScheme base(language);
  util::Rng grng(331);
  auto g = share(graph::reweight_random(graph::cycle(8), grng));
  // A cycle's MST drops the unique maximum-weight edge; dropping any other
  // edge yields a spanning tree that is connected but not minimal.
  graph::EdgeIndex heaviest = 0;
  for (graph::EdgeIndex e = 1; e < g->m(); ++e)
    if (g->weight(e) > g->weight(heaviest)) heaviest = e;
  std::vector<bool> mask(g->m(), true);
  mask[heaviest == 0 ? 1 : 0] = false;
  const local::Configuration cfg = language.make_from_mask(g, mask);
  ASSERT_FALSE(language.contains(cfg));
  for (const unsigned t : {2u, 4u}) {
    const FragmentSpreadScheme spread(base, t);
    pls::testing::expect_sound(spread, cfg, 337 + t);
  }
}

TEST(FragmentSpread, StpSoundOnTwoRoots) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  auto g = share(graph::path(6));
  auto cfg = language.make_tree(g, 0).with_state(
      3, schemes::encode_pointer(std::nullopt));
  for (const unsigned t : {2u, 4u, 8u}) {
    const FragmentSpreadScheme spread(base, t);
    pls::testing::expect_sound(spread, cfg, 347);
  }
}

TEST(FragmentSpread, TamperedCertificateRejected) {
  const schemes::MstLanguage language;
  const schemes::MstScheme base(language);
  const FragmentSpreadScheme spread(base, 4);
  util::Rng rng(349);
  auto g = share(graph::reweight_random(graph::grid(4, 4), rng));
  const auto cfg = language.sample_legal(g, rng);
  core::Labeling lab = spread.mark(cfg);
  lab.certs[5] = local::random_state(lab.certs[5].bit_size(), rng);
  EXPECT_GE(run_verifier_t(spread, cfg, lab, 4).rejections(), 1u);
}

// A region is named by its minimum-id member: inflating one node's claimed
// region id above its own id must be caught by the landmark binding even
// when everything else stays consistent.
TEST(FragmentSpread, RegionIdAboveOwnIdRejected) {
  const schemes::MstLanguage language;
  const schemes::MstScheme base(language);
  const FragmentSpreadScheme spread(base, 4);
  util::Rng rng(353);
  auto g = share(graph::reweight_random(graph::path(7), rng));
  const auto cfg = language.sample_legal(g, rng);
  core::Labeling lab = spread.mark(cfg);
  // The landmark of the minimum node's region *is* the global minimum id:
  // bump every certificate's region id past it.
  for (graph::NodeIndex v = 0; v < cfg.n(); ++v) {
    auto wire = detail::parse_fragment_wire(lab.certs[v]);
    ASSERT_TRUE(wire.has_value());
    wire->region = g->max_id() + 1;
    lab.certs[v] = detail::encode_fragment_wire(*wire);
  }
  EXPECT_GE(run_verifier_t(spread, cfg, lab, 4).rejections(), 1u);
}

TEST(FragmentSpread, RadiusBeyondDiameterStillComplete) {
  const schemes::MstLanguage language;
  const schemes::MstScheme base(language);
  const FragmentSpreadScheme spread(base, 32);
  util::Rng rng(359);
  auto g = share(graph::reweight_random(graph::path(6), rng));
  expect_complete_t(spread, language.sample_legal(g, rng));
}

// Region decomposition works per component: two components, landmark BFS
// and chunk classes confined to each, certificates-only visibility.
TEST(FragmentSpread, DisconnectedAgreeComponents) {
  const schemes::AgreeLanguage language(48);
  const schemes::AgreeScheme base(language);
  const FragmentSpreadScheme spread(base, 4);
  graph::Graph::Builder b;
  for (graph::RawId id = 1; id <= 7; ++id) b.add_node(id);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);  // path 0-1-2-3
  b.add_edge(4, 5);
  b.add_edge(5, 6);  // path 4-5-6
  auto g = share(std::move(b).build());
  ASSERT_FALSE(g->is_connected());
  std::vector<local::State> states(
      g->n(), language.encode_value(0xBEEF'CAFE'1234ull));
  const local::Configuration cfg(g, states);
  ASSERT_TRUE(language.contains(cfg));
  const core::Labeling lab = spread.mark(cfg);
  EXPECT_TRUE(run_verifier_t(spread, cfg, lab, 4).all_accept());
}

TEST(FragmentSpread, InvalidRadiiRejected) {
  const schemes::MstLanguage language;
  const schemes::MstScheme base(language);
  EXPECT_THROW(FragmentSpreadScheme(base, 0), std::logic_error);
  EXPECT_THROW(FragmentSpreadScheme(base, 64), std::logic_error);
  const FragmentSpreadScheme spread(base, 4);
  util::Rng rng(367);
  auto g = share(graph::reweight_random(graph::path(5), rng));
  const auto cfg = language.sample_legal(g, rng);
  const core::Labeling lab = spread.mark(cfg);
  EXPECT_THROW(run_verifier_t(spread, cfg, lab, 2), std::logic_error);
  EXPECT_THROW(core::run_verifier(spread, cfg, lab), std::logic_error);
}

// The point of the subsystem: MST's Borůvka certificates share content per
// fragment, and the fragment decomposition converts that into a max
// certificate strictly below the base scheme's — which the *global* spread
// cannot do to any comparable degree, because the shared content sits in
// per-fragment prefixes.  At this small n the curve is strict into t = 2
// and monotone beyond (the per-node T1/T2 fields dominate the maximum once
// the shareable prefix is sharded; bench_radius_tradeoff measures the
// strict full-curve decrease at n = 4096).
TEST(FragmentSpread, MstMaxBitsDecreaseWithRadius) {
  const schemes::MstLanguage language;
  const schemes::MstScheme base(language);
  util::Rng rng(373);
  auto g = share(graph::relabel_random(
      graph::reweight_random(graph::random_connected(256, 128, rng), rng),
      rng, graph::RawId{1} << 56));
  const auto cfg = language.sample_legal(g, rng);

  const std::size_t base_bits = base.mark(cfg).max_bits();
  std::size_t prev = base_bits;
  for (const unsigned t : {2u, 4u, 8u}) {
    const FragmentSpreadScheme spread(base, t);
    const std::size_t bits = spread.mark(cfg).max_bits();
    EXPECT_LE(bits, prev) << "t=" << t;
    prev = bits;
  }
  // The whole sweep must beat the base certificate by a real margin, not a
  // header's worth: the fragment decomposition sharded per-fragment content
  // the global transform cannot see.
  EXPECT_LT(prev + 64, base_bits);
}

// The decomposition actually engages for MST: the marked certificates carry
// more than one region, i.e. the evaluator preferred a Borůvka phase over
// the trivial global candidate.
TEST(FragmentSpread, MstDecompositionIsNontrivial) {
  const schemes::MstLanguage language;
  const schemes::MstScheme base(language);
  const FragmentSpreadScheme spread(base, 4);
  util::Rng rng(379);
  auto g = share(graph::relabel_random(
      graph::reweight_random(graph::random_connected(256, 128, rng), rng),
      rng, graph::RawId{1} << 56));
  const auto cfg = language.sample_legal(g, rng);
  const core::Labeling lab = spread.mark(cfg);
  std::set<std::uint64_t> regions;
  for (const local::Certificate& c : lab.certs) {
    const auto wire = detail::parse_fragment_wire(c);
    ASSERT_TRUE(wire.has_value());
    regions.insert(wire->region);
  }
  EXPECT_GT(regions.size(), 1u);
}

// Registry-wide proof-size bound property: every marked fragment-spread
// certificate fits the bound at every radius, with the per-region factor
// header (k, residue, region id, suffix length) measured independently by
// parsing the wire rather than restating the production formula.
TEST(FragmentSpread, ProofSizeBoundCoversRegistryAtAllRadii) {
  util::Rng rng(383);
  for (const schemes::SchemeEntry& entry : schemes::standard_catalog()) {
    std::shared_ptr<const graph::Graph> g;
    if (entry.needs_weighted) {
      g = share(graph::reweight_random(graph::random_connected(14, 10, rng),
                                       rng));
    } else if (entry.needs_bipartite) {
      g = share(graph::grid(2, 7));
    } else {
      g = share(graph::random_connected(14, 10, rng));
    }
    const local::Configuration cfg = entry.language->sample_legal(g, rng);
    for (const unsigned t : {1u, 2u, 4u, 8u}) {
      const FragmentSpreadScheme spread(*entry.scheme, t);
      const core::Labeling lab = spread.mark(cfg);
      const std::size_t bound =
          spread.proof_size_bound(cfg.n(), cfg.max_state_bits());
      EXPECT_GE(bound, lab.max_bits())
          << spread.name() << " bound below an actual certificate on "
          << cfg.graph().describe();

      // Independent header check: header = total - suffix - chunk must fit
      // the bound's header budget (bound - base bound) at every node.
      const std::size_t base_bound =
          entry.scheme->proof_size_bound(cfg.n(), cfg.max_state_bits());
      ASSERT_GE(bound, base_bound);
      const std::size_t header_budget = bound - base_bound;
      for (const local::Certificate& cert : lab.certs) {
        const auto wire = detail::parse_fragment_wire(cert);
        ASSERT_TRUE(wire.has_value()) << spread.name();
        const std::size_t measured_header = cert.bit_size() -
                                            wire->suffix.bit_size() -
                                            wire->chunk.bit_size();
        EXPECT_LE(measured_header, header_budget) << spread.name();
      }

      // And the transform is complete across the whole registry.
      const core::Verdict verdict = run_verifier_t(spread, cfg, lab, t);
      EXPECT_TRUE(verdict.all_accept())
          << spread.name() << " rejected a legal configuration on "
          << cfg.graph().describe();
    }
  }
}

}  // namespace
}  // namespace pls::radius

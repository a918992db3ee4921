// The spread transform (FragmentSpreadScheme) on globally redundant
// languages: completeness and soundness of the mechanical 1-round -> t-PLS
// transform, plus the proof-size/t tradeoff it exists to demonstrate.
#include "radius/fragment_spread.hpp"

#include <gtest/gtest.h>

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

TEST(Spread, StpCompletenessSweep) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  for (const unsigned t : {1u, 2u, 4u, 8u}) {
    const FragmentSpreadScheme spread(base, t);
    for (auto& g : pls::testing::unweighted_family(131)) {
      util::Rng rng(137);
      expect_complete_t(spread, language.sample_legal(g, rng));
    }
  }
}

TEST(Spread, StlCompletenessSweep) {
  const schemes::StlLanguage language;
  const schemes::StlScheme base(language);
  for (const unsigned t : {2u, 4u, 8u}) {
    const FragmentSpreadScheme spread(base, t);
    for (auto& g : pls::testing::unweighted_family(139)) {
      util::Rng rng(149);
      expect_complete_t(spread, language.sample_legal(g, rng));
    }
  }
}

TEST(Spread, MstCompletenessSweep) {
  const schemes::MstLanguage language;
  const schemes::MstScheme base(language);
  for (const unsigned t : {2u, 4u}) {
    const FragmentSpreadScheme spread(base, t);
    for (auto& g : pls::testing::weighted_family(151)) {
      util::Rng rng(157);
      expect_complete_t(spread, language.sample_legal(g, rng));
    }
  }
}

// The full adversary suite drives the t-round engine against the spread
// spanning-tree scheme on the classic illegal configurations.
TEST(Spread, StpSoundOnMeetInTheMiddle) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const std::size_t n = 8;
  auto g = share(graph::path(n));
  std::vector<local::State> states;
  for (std::size_t v = 0; v < n; ++v) {
    if (v == 0 || v == n - 1) {
      states.push_back(schemes::encode_pointer(std::nullopt));
    } else if (v < n / 2) {
      states.push_back(
          schemes::encode_pointer(g->id(static_cast<graph::NodeIndex>(v - 1))));
    } else {
      states.push_back(
          schemes::encode_pointer(g->id(static_cast<graph::NodeIndex>(v + 1))));
    }
  }
  const local::Configuration cfg(g, states);
  for (const unsigned t : {2u, 4u, 8u}) {
    const FragmentSpreadScheme spread(base, t);
    pls::testing::expect_sound(spread, cfg, 163);
  }
}

TEST(Spread, StpSoundOnCycle) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  auto g = share(graph::cycle(6));
  std::vector<local::State> states;
  for (std::size_t v = 0; v < 6; ++v)
    states.push_back(schemes::encode_pointer(
        g->id(static_cast<graph::NodeIndex>((v + 1) % 6))));
  const local::Configuration cfg(g, states);
  for (const unsigned t : {2u, 4u, 8u}) {
    const FragmentSpreadScheme spread(base, t);
    pls::testing::expect_sound(spread, cfg, 167);
  }
}

TEST(Spread, StpSoundOnTwoRoots) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  auto g = share(graph::path(6));
  auto cfg = language.make_tree(g, 0).with_state(
      3, schemes::encode_pointer(std::nullopt));
  for (const unsigned t : {2u, 4u, 8u}) {
    const FragmentSpreadScheme spread(base, t);
    pls::testing::expect_sound(spread, cfg, 173);
  }
}

TEST(Spread, TamperedCertificateRejected) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const FragmentSpreadScheme spread(base, 4);
  util::Rng rng(179);
  auto g = share(graph::grid(4, 4));
  const auto cfg = language.sample_legal(g, rng);
  core::Labeling lab = spread.mark(cfg);
  // Flip the chunk bits of one node by replacing its certificate wholesale.
  lab.certs[5] = local::random_state(lab.certs[5].bit_size(), rng);
  EXPECT_GE(run_verifier_t(spread, cfg, lab, 4).rejections(), 1u);
}

TEST(Spread, RadiusBeyondDiameterStillComplete) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const FragmentSpreadScheme spread(base, 32);
  auto g = share(graph::path(6));  // diameter 5 << 32
  expect_complete_t(spread, language.make_tree(g, 2));
}

// Spreading works per component: certificates-only visibility, two
// components, landmark BFS and chunk classes confined to each.
TEST(Spread, DisconnectedAgreeComponents) {
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

TEST(Spread, InvalidRadiiRejected) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  EXPECT_THROW(FragmentSpreadScheme(base, 0), std::logic_error);
  EXPECT_THROW(FragmentSpreadScheme(base, 64), std::logic_error);
  // Running a radius-4 scheme in a radius-2 engine is invalid input too.
  const FragmentSpreadScheme spread(base, 4);
  auto g = share(graph::path(5));
  const auto cfg = language.make_tree(g, 0);
  const core::Labeling lab = spread.mark(cfg);
  EXPECT_THROW(run_verifier_t(spread, cfg, lab, 2), std::logic_error);
}

TEST(Spread, BallSchemeRejectsOneRoundEngine) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const FragmentSpreadScheme spread(base, 2);
  auto g = share(graph::path(4));
  const auto cfg = language.make_tree(g, 0);
  const core::Labeling lab = spread.mark(cfg);
  EXPECT_THROW(core::run_verifier(spread, cfg, lab), std::logic_error);
}

// The point of the subsystem: with a large id space the shared prefix (the
// root id) dominates the spanning-tree certificate, and spreading it over
// radius-t balls shrinks the maximum certificate as t grows.
TEST(Spread, MaxBitsDecreaseWithRadius) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  util::Rng rng(191);
  auto g = share(graph::relabel_random(graph::random_connected(256, 128, rng),
                                       rng, graph::RawId{1} << 56));
  const auto cfg = language.sample_legal(g, rng);

  std::size_t prev = base.mark(cfg).max_bits();
  for (const unsigned t : {2u, 4u, 8u}) {
    const FragmentSpreadScheme spread(base, t);
    const std::size_t bits = spread.mark(cfg).max_bits();
    EXPECT_LT(bits, prev) << "t=" << t;
    prev = bits;
  }
}

// The spread header's residue field is sized by the actual chunk-count cap
// k <= t/2 + 1, not by the worst case of the k field: the bound must still
// dominate every marker output across the registry, and shrink as the old
// hardcoded bit_width(62) residue bound is replaced.
TEST(Spread, ProofSizeBoundCoversRegistryAtAllRadii) {
  util::Rng rng(941);
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

      // Independent header check: measure the real header of every marked
      // certificate by parsing it (header = total - suffix - chunk) and
      // assert the bound's header budget covers it.  This catches a residue
      // field undercount without restating the production formula.
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

      // Tightness regression: the residue field is sized by k <= t/2 + 1,
      // so for t <= 8 the bound must be strictly below the old formula that
      // budgeted the residue at the 6-bit header's ceiling (the region id
      // budget is the same on both sides).
      EXPECT_LT(bound, base_bound + detail::kHeaderBits +
                           util::bit_width_for(62) +
                           detail::varint_bits(16 * cfg.n() * cfg.n() + 1) +
                           detail::varint_bits(base_bound))
          << spread.name();
    }
  }
}

}  // namespace
}  // namespace pls::radius

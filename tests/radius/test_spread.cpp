// The spread transform (FragmentSpreadScheme) on globally redundant
// languages: completeness and soundness of the mechanical 1-round -> t-PLS
// transform, plus the proof-size/t tradeoff it exists to demonstrate.  The
// registry-wide proof-size bound and the per-component checks are in
// test_fragment_spread.cpp.
#include "radius/fragment_spread.hpp"

#include <gtest/gtest.h>

#include "schemes/common.hpp"
#include "schemes/mst.hpp"
#include "schemes/spanning_tree.hpp"
#include "testing/helpers.hpp"

namespace pls::radius {
namespace {

using pls::testing::expect_complete_t;
using pls::testing::share;

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

}  // namespace
}  // namespace pls::radius

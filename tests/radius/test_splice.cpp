// Splice attacks on the spread schemes: adversarial certificates that are
// locally well-formed but stitch together incompatible global claims (two
// regions voting different reassembled prefixes, rotated residue
// assignments, crossed chunk payloads — and for the fragment spread, rotated
// region names, fragment payloads swapped between regions, and a neighbor
// region's reassembled prefix spliced in) must be rejected somewhere by the
// t-round engine, at every thread count, on every illegal configuration.
#include "radius/splice.hpp"

#include <gtest/gtest.h>

#include <set>

#include "radius/batch.hpp"
#include "radius/spread_wire.hpp"
#include "schemes/common.hpp"
#include "schemes/mst.hpp"
#include "schemes/spanning_tree.hpp"
#include "testing/helpers.hpp"

namespace pls::radius {
namespace {

using pls::testing::share;

/// Every splice variant must leave at least one rejecting node on an
/// illegal configuration.
void expect_splices_rejected(const SpreadScheme& spread,
                             const local::Configuration& cfg,
                             std::uint64_t seed) {
  ASSERT_FALSE(spread.language().contains(cfg));
  util::Rng rng(seed);
  const std::vector<SpliceAttack> attacks = splice_attacks(spread, cfg, rng);
  ASSERT_FALSE(attacks.empty());
  for (const SpliceAttack& attack : attacks) {
    const core::Verdict verdict =
        run_verifier_t(spread, cfg, attack.labeling, spread.radius());
    EXPECT_GE(verdict.rejections(), 1u)
        << spread.name() << " accepted splice '" << attack.name << "' on "
        << cfg.graph().describe();
  }
}

local::Configuration meet_in_the_middle(std::size_t n) {
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
  return local::Configuration(g, states);
}

TEST(Splice, AllVariantsRejectedOnMeetInTheMiddle) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  for (const unsigned t : {2u, 4u, 8u}) {
    const SpreadScheme spread(base, t);
    expect_splices_rejected(spread, meet_in_the_middle(12), 211 + t);
  }
}

TEST(Splice, AllVariantsRejectedOnPointerCycle) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  auto g = share(graph::cycle(9));
  std::vector<local::State> states;
  for (std::size_t v = 0; v < 9; ++v)
    states.push_back(schemes::encode_pointer(
        g->id(static_cast<graph::NodeIndex>((v + 1) % 9))));
  const local::Configuration cfg(g, states);
  for (const unsigned t : {2u, 4u, 8u}) {
    const SpreadScheme spread(base, t);
    expect_splices_rejected(spread, cfg, 223 + t);
  }
}

TEST(Splice, AllVariantsRejectedOnTwoRoots) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  for (const unsigned t : {2u, 4u, 8u}) {
    const SpreadScheme spread(base, t);
    auto g = share(graph::grid(3, 4));
    auto cfg = language.make_tree(g, 0).with_state(
        11, schemes::encode_pointer(std::nullopt));
    expect_splices_rejected(spread, cfg, 227 + t);
  }
}

// A rotated residue assignment on a *legal* configuration reassembles the
// prefix bits into the wrong positions: the spanning-tree root id changes,
// and the decoder's root-id/own-id binding must catch it at the root.
TEST(Splice, GlobalResidueRotationRejectedOnLegalTree) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const SpreadScheme spread(base, 4);
  util::Rng rng(229);
  auto g = share(graph::relabel_random(graph::random_tree(24, rng), rng,
                                       graph::RawId{1} << 40));
  const auto cfg = language.sample_legal(g, rng);
  util::Rng attack_rng(233);
  for (const SpliceAttack& attack : splice_attacks(spread, cfg, attack_rng)) {
    if (attack.name != "residue-rotate-global") continue;
    const core::Verdict verdict =
        run_verifier_t(spread, cfg, attack.labeling, 4);
    EXPECT_GE(verdict.rejections(), 1u);
  }
}

TEST(Splice, AttackRosterIsComplete) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const SpreadScheme spread(base, 8);
  util::Rng rng(239);
  auto g = share(graph::grid(4, 4));
  const auto cfg = language.sample_legal(g, rng);
  util::Rng attack_rng(241);
  std::set<std::string> names;
  for (const SpliceAttack& attack : splice_attacks(spread, cfg, attack_rng))
    names.insert(attack.name);
  EXPECT_EQ(names, (std::set<std::string>{
                       "region-prefix", "suffix-crossbreed",
                       "residue-rotate-region", "residue-rotate-global",
                       "chunk-crosswire"}));
}

// The adversary suite now reports splice strategies for spread schemes; on
// an illegal configuration none of them may reach zero rejections (this is
// the integration path expect_sound exercises).
TEST(Splice, AdversaryIntegrationStaysSound) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  for (const unsigned t : {2u, 4u}) {
    const SpreadScheme spread(base, t);
    pls::testing::expect_sound(spread, meet_in_the_middle(10), 251 + t);
  }
}

// ---------------------------------------------------------------------------
// Cross-region attacks on the fragment spread.
// ---------------------------------------------------------------------------

/// Every fragment splice variant must leave >= 1 rejecting node on an
/// illegal configuration, and the verdict must say so at every thread count
/// (the parallel verifier is the production path the adversary drives).
void expect_fragment_splices_rejected(const FragmentSpreadScheme& spread,
                                      const local::Configuration& cfg,
                                      std::uint64_t seed) {
  ASSERT_FALSE(spread.language().contains(cfg));
  util::Rng rng(seed);
  const std::vector<SpliceAttack> attacks =
      fragment_splice_attacks(spread, cfg, rng);
  ASSERT_FALSE(attacks.empty());
  for (const SpliceAttack& attack : attacks) {
    for (const unsigned threads : {1u, 2u, 0u}) {  // 0 = hardware
      BatchOptions options;
      options.threads = threads;
      BatchVerifier verifier(spread, cfg, spread.radius(), options);
      EXPECT_GE(verifier.run_one(attack.labeling).rejections(), 1u)
          << spread.name() << " accepted fragment splice '" << attack.name
          << "' at threads=" << verifier.threads() << " on "
          << cfg.graph().describe();
    }
  }
}

/// A connected spanning tree that is not the MST: a cycle's MST drops the
/// unique heaviest edge; this drops a different one.
local::Configuration wrong_cycle_tree(const schemes::MstLanguage& language,
                                      std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  auto g = share(graph::reweight_random(graph::cycle(n), rng));
  graph::EdgeIndex heaviest = 0;
  for (graph::EdgeIndex e = 1; e < g->m(); ++e)
    if (g->weight(e) > g->weight(heaviest)) heaviest = e;
  std::vector<bool> mask(g->m(), true);
  mask[heaviest == 0 ? 1 : 0] = false;
  return language.make_from_mask(g, mask);
}

TEST(Splice, FragmentVariantsRejectedOnWrongMstAtEveryThreadCount) {
  const schemes::MstLanguage language;
  const schemes::MstScheme base(language);
  for (const unsigned t : {2u, 4u, 8u}) {
    const FragmentSpreadScheme spread(base, t);
    expect_fragment_splices_rejected(spread, wrong_cycle_tree(language, 10, 401 + t),
                                     409 + t);
  }
}

TEST(Splice, FragmentVariantsRejectedOnStpTwoRoots) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  for (const unsigned t : {2u, 4u, 8u}) {
    const FragmentSpreadScheme spread(base, t);
    auto g = share(graph::grid(3, 4));
    auto cfg = language.make_tree(g, 0).with_state(
        11, schemes::encode_pointer(std::nullopt));
    expect_fragment_splices_rejected(spread, cfg, 419 + t);
  }
}

/// A sizable weighted instance whose fragment decomposition is nontrivial:
/// the cross-region attack variants must all be present and, on a *legal*
/// configuration, the region-id rotation must still be rejected — a region
/// is named by its minimum-id member, and rotating names gives the region
/// holding the globally minimal id a name above it.
TEST(Splice, FragmentRosterAndRegionRotationOnLegalMst) {
  const schemes::MstLanguage language;
  const schemes::MstScheme base(language);
  const FragmentSpreadScheme spread(base, 4);
  util::Rng rng(431);
  auto g = share(graph::relabel_random(
      graph::reweight_random(graph::random_connected(96, 48, rng), rng), rng,
      graph::RawId{1} << 40));
  const auto cfg = language.sample_legal(g, rng);

  // How many regions does the honest marking carry?
  std::set<std::uint64_t> regions;
  for (const local::Certificate& c : spread.mark(cfg).certs) {
    const auto wire = detail::parse_fragment_wire(c);
    ASSERT_TRUE(wire.has_value());
    regions.insert(wire->region);
  }

  util::Rng attack_rng(433);
  std::set<std::string> names;
  for (const SpliceAttack& attack :
       fragment_splice_attacks(spread, cfg, attack_rng))
    names.insert(attack.name);
  std::set<std::string> expected{"fragment-region-prefix",
                                 "fragment-suffix-crossbreed",
                                 "fragment-residue-rotate"};
  if (regions.size() > 1) {
    expected.insert("region-id-rotate");
    expected.insert("fragment-chunk-crosswire");
    expected.insert("region-prefix-splice");
  }
  EXPECT_EQ(names, expected);
  ASSERT_GT(regions.size(), 1u)
      << "instance too small for a nontrivial decomposition";

  util::Rng rerun_rng(433);
  for (const SpliceAttack& attack :
       fragment_splice_attacks(spread, cfg, rerun_rng)) {
    if (attack.name != "region-id-rotate") continue;
    for (const unsigned threads : {1u, 2u, 0u}) {
      BatchOptions options;
      options.threads = threads;
      BatchVerifier verifier(spread, cfg, 4, options);
      EXPECT_GE(verifier.run_one(attack.labeling).rejections(), 1u)
          << "threads=" << verifier.threads();
    }
  }
}

// The fragment attacks ride the adversary suite the same way the global
// ones do: expect_sound must stay sound with them in the roster.
TEST(Splice, FragmentAdversaryIntegrationStaysSound) {
  const schemes::MstLanguage language;
  const schemes::MstScheme base(language);
  for (const unsigned t : {2u, 4u}) {
    const FragmentSpreadScheme spread(base, t);
    pls::testing::expect_sound(spread, wrong_cycle_tree(language, 8, 439 + t),
                               443 + t);
  }
}

}  // namespace
}  // namespace pls::radius

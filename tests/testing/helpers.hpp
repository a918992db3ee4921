// Shared fixtures for the scheme tests: instance families and assertion
// helpers used across the suite.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "pls/adversary.hpp"
#include "pls/engine.hpp"
#include "radius/batch.hpp"

namespace pls::testing {

inline std::shared_ptr<const graph::Graph> share(graph::Graph g) {
  return std::make_shared<const graph::Graph>(std::move(g));
}

/// The standard unweighted instance family used by completeness sweeps.
inline std::vector<std::shared_ptr<const graph::Graph>> unweighted_family(
    std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::shared_ptr<const graph::Graph>> out;
  out.push_back(share(graph::path(1)));
  out.push_back(share(graph::path(2)));
  out.push_back(share(graph::path(9)));
  out.push_back(share(graph::cycle(8)));
  out.push_back(share(graph::cycle(9)));
  out.push_back(share(graph::star(10)));
  out.push_back(share(graph::grid(4, 5)));
  out.push_back(share(graph::complete(6)));
  out.push_back(share(graph::balanced_binary_tree(15)));
  out.push_back(share(graph::random_tree(24, rng)));
  out.push_back(share(graph::random_connected(30, 15, rng)));
  out.push_back(share(graph::relabel_random(graph::grid(3, 4), rng)));
  return out;
}

/// Weighted (distinct weights, connected) instances for MST.
inline std::vector<std::shared_ptr<const graph::Graph>> weighted_family(
    std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::shared_ptr<const graph::Graph>> out;
  out.push_back(share(graph::reweight_random(graph::path(2), rng)));
  out.push_back(share(graph::reweight_random(graph::path(9), rng)));
  out.push_back(share(graph::reweight_random(graph::cycle(10), rng)));
  out.push_back(share(graph::reweight_random(graph::grid(4, 4), rng)));
  out.push_back(share(graph::reweight_random(graph::complete(7), rng)));
  out.push_back(
      share(graph::reweight_random(graph::random_connected(25, 20, rng), rng)));
  return out;
}

/// BatchOptions for the small-graph thread-identity checks: `threads` slots
/// over a private atlas of 3-center blocks.  A ball scheme's full sweep
/// claims one atlas block per chunk, so under the default 64-center blocks
/// a graph this small would be one chunk on one slot; 3-center blocks keep
/// the sweep split across slots, ragged tail block included.
inline radius::BatchOptions split_sweep_options(unsigned threads) {
  radius::BatchOptions options;
  options.threads = threads;
  options.atlas = std::make_shared<radius::GeometryAtlas>(
      radius::AtlasOptions{.block_centers = 3});
  return options;
}

/// Asserts the scheme's full contract on a legal configuration:
/// marker certificates verify everywhere and respect the size bound.
inline void expect_complete(const core::Scheme& scheme,
                            const local::Configuration& cfg) {
  ASSERT_TRUE(scheme.language().contains(cfg));
  const core::Labeling lab = scheme.mark(cfg);
  const core::Verdict verdict = core::run_verifier(scheme, cfg, lab);
  EXPECT_TRUE(verdict.all_accept())
      << scheme.name() << " rejected a legal configuration at "
      << verdict.rejections() << " nodes on " << cfg.graph().describe();
  EXPECT_LE(lab.max_bits(),
            scheme.proof_size_bound(cfg.n(), cfg.max_state_bits()))
      << scheme.name() << " exceeded its proof-size bound on "
      << cfg.graph().describe();
}

/// The radius-t counterpart of expect_complete: marker certificates verify
/// everywhere at the scheme's own radius and respect the size bound.
inline void expect_complete_t(const radius::BallScheme& scheme,
                              const local::Configuration& cfg) {
  ASSERT_TRUE(scheme.language().contains(cfg));
  const core::Labeling lab = scheme.mark(cfg);
  const core::Verdict verdict =
      radius::run_verifier_t(scheme, cfg, lab, scheme.radius());
  EXPECT_TRUE(verdict.all_accept())
      << scheme.name() << " rejected a legal configuration at "
      << verdict.rejections() << " nodes on " << cfg.graph().describe();
  EXPECT_LE(lab.max_bits(),
            scheme.proof_size_bound(cfg.n(), cfg.max_state_bits()))
      << scheme.name() << " exceeded its proof-size bound on "
      << cfg.graph().describe();
}

/// Asserts soundness against the adversary suite on an illegal configuration.
inline void expect_sound(const core::Scheme& scheme,
                         const local::Configuration& cfg, std::uint64_t seed,
                         const core::AttackOptions& options = {}) {
  ASSERT_FALSE(scheme.language().contains(cfg));
  util::Rng rng(seed);
  const core::AttackReport report = core::attack(scheme, cfg, rng, options);
  EXPECT_GE(report.min_rejections, 1u)
      << scheme.name() << " was fooled by strategy '" << report.best_strategy
      << "' on " << cfg.graph().describe();
}

}  // namespace pls::testing

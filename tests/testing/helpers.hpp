// Shared fixtures for the scheme tests: instance families and assertion
// helpers used across the suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/bfs_core.hpp"
#include "graph/generators.hpp"
#include "pls/adversary.hpp"
#include "pls/engine.hpp"
#include "radius/batch.hpp"
#include "radius/fragment_spread.hpp"
#include "radius/spread_wire.hpp"
#include "schemes/common.hpp"

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

/// A spanning tree of path(n) rooted at its last node: node i points at
/// node i+1.
inline local::Configuration path_rooted_at_end(std::size_t n) {
  auto g = share(graph::path(n));
  std::vector<local::State> states;
  for (graph::NodeIndex v = 0; v + 1 < n; ++v)
    states.push_back(schemes::encode_pointer(g->id(v + 1)));
  states.push_back(schemes::encode_pointer(std::nullopt));
  return local::Configuration(g, std::move(states));
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

/// Stage 2 by hand, as BatchVerifier runs it: parse, link, memoize.
struct StageTwo {
  std::vector<std::unique_ptr<radius::ParsedCert>> parsed;
  std::optional<std::vector<graph::NodeIndex>> witnesses;  ///< memoize's
};

inline StageTwo stage_two(const radius::BallScheme& scheme,
                          const local::Configuration& cfg,
                          const core::Labeling& lab) {
  StageTwo out;
  for (const local::Certificate& c : lab.certs)
    out.parsed.push_back(scheme.parse_cert(c));
  radius::detail::LinkTable link;
  link.link(out.parsed);
  out.witnesses = scheme.memoize(cfg.graph(), out.parsed);
  return out;
}

/// A fragment-spread labeling on which every center is dirty while verdicts
/// still depend on each center's own ball: the honest marking with every
/// node moved to residue 0, except random *beacons* (each node with
/// probability `beacon`, never a region's landmark) moved to a random
/// residue 1..k-1; each carries its region's chunk for its new residue.
/// Chunk classes still agree and every region keeps its memo, but a node
/// with no beacon of some residue within t-1 hops is not covered: a
/// witness.  A center whose ball holds every residue of the regions it
/// requires passes every check, runs the base decoder and accepts; the
/// others reject.  Beacons are drawn until every center lies within the
/// scheme's radius of a witness.  Needs k <= 3 in every region (any two
/// residues are then adjacent mod k).  Tests whose subject is the sweep's
/// atlas traffic run on it, since an honest full run takes the clean path
/// and builds no geometry.
inline core::Labeling beaconed_residues(
    const radius::FragmentSpreadScheme& spread,
    const local::Configuration& cfg, util::Rng& rng, double beacon = 0.15) {
  using radius::detail::FragmentWire;
  const graph::Graph& g = cfg.graph();
  const std::size_t n = cfg.n();
  core::Labeling lab = spread.mark(cfg);
  std::vector<FragmentWire> wires;
  using Key = std::optional<std::uint64_t>;  // region id; nullopt: unnamed
  std::map<std::pair<Key, std::uint64_t>, util::BitString> chunk;
  const auto key = [&](graph::NodeIndex v) {
    return wires[v].named ? Key(wires[v].region) : std::nullopt;
  };
  for (graph::NodeIndex v = 0; v < n; ++v) {
    auto w = radius::detail::parse_fragment_wire(lab.certs[v]);
    EXPECT_TRUE(w.has_value());
    wires.push_back(w.value_or(FragmentWire{}));
    EXPECT_LE(wires[v].k, 3u);
    chunk[{key(v), wires[v].residue}] = wires[v].chunk;
  }
  graph::VisitEpochSet seen;
  std::vector<graph::NodeIndex> dirty;
  for (int draw = 0; draw < 64 && dirty.size() < n; ++draw) {
    for (graph::NodeIndex v = 0; v < n; ++v) {
      FragmentWire& w = wires[v];
      const bool landmark = w.named && w.region == g.id(v);
      w.residue = w.k >= 2 && !landmark && rng.chance(beacon)
                      ? 1 + rng.below(w.k - 1)
                      : 0;
      w.chunk = chunk.at({key(v), w.residue});
      lab.certs[v] = radius::detail::encode_fragment_wire(w);
    }
    const std::vector<graph::NodeIndex> witnesses =
        stage_two(spread, cfg, lab).witnesses.value();
    dirty.clear();
    if (!witnesses.empty())
      graph::layered_bfs(g, witnesses, spread.radius(), seen, dirty,
                         graph::ReachVisitor{});
  }
  EXPECT_EQ(dirty.size(), n) << "a center is clean";
  return lab;
}

/// True when `verdict` accepts at some node and rejects at another: a
/// sweep that verified no center cannot match it, and one that bound the
/// wrong balls would have to flip no verdict to match it.
inline bool mixed(const core::Verdict& verdict) {
  return !verdict.all_accept() &&
         verdict.rejections() < verdict.accept().size();
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

// GeometryAtlas: the cached geometry must be indistinguishable from a fresh
// BallBuilder build — for every center, radius, graph, and sharing pattern —
// while the byte budget and LRU accounting hold at every step.
#include "radius/atlas.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <list>
#include <map>
#include <thread>
#include <tuple>

#include "graph/generators.hpp"
#include "radius/batch.hpp"
#include "radius/fragment_spread.hpp"
#include "schemes/spanning_tree.hpp"
#include "testing/helpers.hpp"

namespace pls::radius {
namespace {

using pls::testing::share;

local::Configuration trivial_config(std::shared_ptr<const graph::Graph> g) {
  std::vector<local::State> states(g->n(), local::State{});
  return local::Configuration(std::move(g), std::move(states));
}

core::Labeling numbered_labeling(std::size_t n) {
  core::Labeling lab;
  for (std::size_t v = 0; v < n; ++v) {
    util::BitWriter w;
    w.write_uint(v, 16);
    lab.certs.push_back(local::Certificate::from_writer(std::move(w)));
  }
  return lab;
}

/// Structural equality of a bound view against the BallBuilder oracle.
void expect_same_ball(const BallView& a, const BallView& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.radius(), b.radius());
  EXPECT_EQ(a.whole_component(), b.whole_component());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const BallMember& ma = a.members()[i];
    const BallMember& mb = b.members()[i];
    EXPECT_EQ(ma.node, mb.node);
    EXPECT_EQ(ma.dist, mb.dist);
    EXPECT_EQ(ma.edge_weight, mb.edge_weight);
    EXPECT_EQ(ma.cert, mb.cert);
    EXPECT_EQ(ma.state, mb.state);
    EXPECT_EQ(ma.id, mb.id);
    EXPECT_EQ(ma.id_visible, mb.id_visible);
  }
  for (unsigned r = 0; r <= a.radius(); ++r)
    ASSERT_EQ(a.layer(r).size(), b.layer(r).size()) << "layer " << r;
  for (std::uint32_t i = 0; i < a.size(); ++i) {
    const auto na = a.neighbors_of(i);
    const auto nb = b.neighbors_of(i);
    ASSERT_EQ(na.size(), nb.size()) << "member " << i;
    for (std::size_t j = 0; j < na.size(); ++j) EXPECT_EQ(na[j], nb[j]);
  }
}

void expect_atlas_matches_builder(GeometryAtlas& atlas,
                                  const local::Configuration& cfg,
                                  const core::Labeling& lab, unsigned t,
                                  local::Visibility mode) {
  BallBuilder builder;
  BallView bound;
  for (graph::NodeIndex v = 0; v < cfg.n(); ++v) {
    const auto block = atlas.block(cfg.graph(), t, v);
    bound.bind(block->ball(v), cfg, lab, mode);
    expect_same_ball(bound, builder.build(cfg, lab, v, t, mode));
  }
}

TEST(GeometryAtlas, MatchesBuilderOnRandomGraphs) {
  util::Rng rng(7001);
  for (int instance = 0; instance < 3; ++instance) {
    auto g = share(graph::random_connected(30 + 7 * instance, 20, rng));
    const auto cfg = trivial_config(g);
    const auto lab = numbered_labeling(g->n());
    for (const unsigned t : {1u, 2u, 4u, 9u}) {
      GeometryAtlas atlas;
      expect_atlas_matches_builder(atlas, cfg, lab, t,
                                   local::Visibility::kExtended);
      expect_atlas_matches_builder(atlas, cfg, lab, t,
                                   local::Visibility::kCertificatesOnly);
    }
  }
}

// Blocks are keyed by exact radius: after a t = 8 warm-up, a t = 2 lookup
// over the same centers misses and builds its own block, both stay resident
// and charged, and each serves geometry equal to a BallBuilder build at its
// own radius.
TEST(GeometryAtlas, ExactRadiusBlocksAreIndependent) {
  util::Rng rng(7002);
  auto g = share(graph::random_connected(40, 28, rng));
  const auto cfg = trivial_config(g);
  const auto lab = numbered_labeling(g->n());

  GeometryAtlas atlas;
  for (graph::NodeIndex v = 0; v < g->n(); ++v) atlas.block(*g, 8, v);
  const AtlasStats after_t8 = atlas.stats();
  ASSERT_GT(after_t8.bytes_in_use, 0u);

  const auto t2_block = atlas.block(*g, 2, 0);
  EXPECT_EQ(t2_block->radius(), 2u);
  EXPECT_EQ(atlas.stats().misses, after_t8.misses + 1);
  EXPECT_EQ(atlas.stats().hits, after_t8.hits);
  for (graph::NodeIndex v = 1; v < g->n(); ++v) atlas.block(*g, 2, v);

  // Both radii are resident and charged: the total is the sum of two
  // single-radius atlases, and nothing was evicted.
  GeometryAtlas only_t2;
  for (graph::NodeIndex v = 0; v < g->n(); ++v) only_t2.block(*g, 2, v);
  const AtlasStats both = atlas.stats();
  EXPECT_EQ(both.misses, 2 * after_t8.misses);
  EXPECT_EQ(both.evictions, 0u);
  EXPECT_EQ(both.bytes_in_use,
            after_t8.bytes_in_use + only_t2.stats().bytes_in_use);

  // Each radius is served by its own blocks, equal to the builder oracle,
  // with no further builds.
  for (const unsigned t : {8u, 2u}) {
    expect_atlas_matches_builder(atlas, cfg, lab, t,
                                 local::Visibility::kExtended);
    EXPECT_EQ(atlas.block(*g, t, 0)->radius(), t);
  }
  EXPECT_EQ(atlas.stats().misses, both.misses);
}

TEST(GeometryAtlas, DisconnectedGraphAndPendantNodes) {
  // Two components (a path and a triangle) exercise whole_component and
  // empty trailing layers.
  graph::Graph::Builder b;
  for (graph::RawId id = 0; id < 8; ++id) b.add_node(100 + id);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(3, 4);  // path 0-1-2-3-4
  b.add_edge(5, 6);
  b.add_edge(6, 7);
  b.add_edge(5, 7);  // triangle 5-6-7
  auto g = share(std::move(b).build());
  const auto cfg = trivial_config(g);
  const auto lab = numbered_labeling(g->n());

  GeometryAtlas atlas;
  for (const unsigned t : {1u, 2u, 6u}) {
    expect_atlas_matches_builder(atlas, cfg, lab, t,
                                 local::Visibility::kExtended);
  }
  // Triangle members see the whole component from t = 2 on.
  const auto block = atlas.block(*g, 2, 5);
  EXPECT_TRUE(block->ball(5).whole_component);
  EXPECT_FALSE(atlas.block(*g, 2, 0)->ball(0).whole_component);
}

TEST(GeometryAtlas, RespectsByteBudgetAndEvictsLru) {
  // A cyclic scan six blocks wide through a budget of three and a half:
  // every newly built block displaces LRU victims.
  util::Rng rng(7003);
  auto g = share(graph::random_connected(96, 60, rng));

  // First find out how big one block is, then budget for about three.
  AtlasOptions probe_options;
  probe_options.block_centers = 16;
  GeometryAtlas probe(probe_options);
  const std::size_t block_bytes = probe.block(*g, 4, 0)->bytes();
  ASSERT_GT(block_bytes, 0u);

  AtlasOptions options;
  options.block_centers = 16;
  options.byte_budget = 3 * block_bytes + block_bytes / 2;
  GeometryAtlas atlas(options);
  for (int sweep = 0; sweep < 3; ++sweep) {
    for (graph::NodeIndex v = 0; v < g->n(); ++v) {
      atlas.block(*g, 4, v);
      // The budget must hold after every single insertion, not just at the
      // end of a sweep.
      EXPECT_LE(atlas.stats().bytes_in_use, options.byte_budget);
    }
  }
  const AtlasStats stats = atlas.stats();
  EXPECT_GT(stats.evictions, 0u);
  // 96 centers / 16 per block = 6 blocks a sweep, at most ~3 resident: the
  // scan must keep missing.
  EXPECT_GT(stats.misses, 6u);
  // Admission happens before accounting, so the budget also bounds the peak.
  EXPECT_LE(stats.peak_bytes, options.byte_budget);
}

TEST(GeometryAtlas, ZeroBudgetCachesNothingButStaysCorrect) {
  util::Rng rng(7004);
  auto g = share(graph::random_connected(24, 12, rng));
  const auto cfg = trivial_config(g);
  const auto lab = numbered_labeling(g->n());

  AtlasOptions options;
  options.byte_budget = 0;
  options.block_centers = 4;
  GeometryAtlas atlas(options);
  expect_atlas_matches_builder(atlas, cfg, lab, 3,
                               local::Visibility::kExtended);
  const AtlasStats stats = atlas.stats();
  EXPECT_EQ(stats.bytes_in_use, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.bypassed, stats.misses);
}

TEST(GeometryAtlas, KeyedByGraphEpochAcrossGraphs) {
  util::Rng rng(7005);
  auto g1 = share(graph::random_connected(20, 10, rng));
  auto g2 = share(graph::random_connected(20, 10, rng));
  ASSERT_NE(g1->epoch(), g2->epoch());

  GeometryAtlas atlas;
  const auto cfg1 = trivial_config(g1);
  const auto cfg2 = trivial_config(g2);
  const auto lab = numbered_labeling(20);
  // Interleaved lookups over two graphs through one atlas must never mix
  // geometry.
  expect_atlas_matches_builder(atlas, cfg1, lab, 3,
                               local::Visibility::kExtended);
  expect_atlas_matches_builder(atlas, cfg2, lab, 3,
                               local::Visibility::kExtended);
  expect_atlas_matches_builder(atlas, cfg1, lab, 3,
                               local::Visibility::kExtended);
  EXPECT_GT(atlas.stats().hits, 0u);
}

// One atlas shared by two verifiers over the same configuration: the second
// verifier's sweep is served entirely from cache.  The labeling carries one
// garbage certificate, so the centers near it are dirty and look their
// geometry up (an honest full takes the clean path and builds none).
TEST(GeometryAtlas, SharedAcrossVerifiers) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const FragmentSpreadScheme spread(base, 4);
  util::Rng rng(7006);
  auto g = share(graph::random_connected(26, 14, rng));
  const local::Configuration cfg = language.sample_legal(g, rng);
  core::Labeling tampered = spread.mark(cfg);
  tampered.certs[5] = local::random_state(3, rng);  // malformed

  auto atlas = std::make_shared<GeometryAtlas>();
  BatchOptions options;
  options.threads = 1;
  options.atlas = atlas;
  BatchVerifier first(spread, cfg, 4, options);
  const core::Verdict v1 = first.run_one(tampered);
  const std::uint64_t misses_after_first = atlas->stats().misses;

  BatchVerifier second(spread, cfg, 4, options);
  const core::Verdict v2 = second.run_one(tampered);
  EXPECT_EQ(atlas->stats().misses, misses_after_first);
  EXPECT_GT(atlas->stats().hits, 0u);
  EXPECT_EQ(v1.accept(), v2.accept());
}

// Concurrent lookups (including same-block races) return consistent pinned
// blocks; the TSan CI job runs this with real interleavings.
TEST(GeometryAtlas, ConcurrentLookupsAreConsistent) {
  util::Rng rng(7007);
  auto g = share(graph::random_connected(64, 40, rng));

  AtlasOptions options;
  options.block_centers = 8;
  options.byte_budget = 1 << 16;  // small: eviction races with lookups
  GeometryAtlas atlas(options);

  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&atlas, &g, w] {
      for (int round = 0; round < 3; ++round)
        for (graph::NodeIndex v = 0; v < g->n(); ++v) {
          const unsigned t = 1 + static_cast<unsigned>((w + round) % 3);
          const auto block = atlas.block(*g, t, v);
          EXPECT_TRUE(block->covers(v));
          EXPECT_EQ(block->radius(), t);
          EXPECT_GT(block->ball(v).members.size(), 0u);
        }
    });
  }
  for (std::thread& t : threads) t.join();
  const AtlasStats stats = atlas.stats();
  EXPECT_GT(stats.misses, 0u);
}

// Phase accounting is the difference of two snapshots (benches bracket
// warmup vs. measurement this way): AtlasStats::since reports the phase's
// traffic alone, while residency — the blocks themselves and bytes_in_use —
// carries through, so a phase over a warm atlas reports pure hits.  Unlike
// the retired reset_stats, a snapshot taken mid-traffic cannot misattribute
// another thread's lookups to the wrong phase.
TEST(GeometryAtlas, SnapshotDiffReportsOnePhaseOverAWarmAtlas) {
  util::Rng rng(7008);
  auto g = share(graph::random_connected(48, 30, rng));
  GeometryAtlas atlas;
  for (graph::NodeIndex v = 0; v < g->n(); ++v) atlas.block(*g, 2, v);
  const AtlasStats warm = atlas.stats();
  EXPECT_GT(warm.misses, 0u);
  EXPECT_GT(warm.bytes_in_use, 0u);
  EXPECT_GT(warm.build_ns, 0u);
  EXPECT_EQ(warm.wait_ns, 0u);  // one thread never waits on another's build

  // A snapshot diffed against itself is the empty phase.
  const AtlasStats empty = warm.since(warm);
  EXPECT_EQ(empty.hits, 0u);
  EXPECT_EQ(empty.misses, 0u);
  EXPECT_EQ(empty.evictions, 0u);
  EXPECT_EQ(empty.bypassed, 0u);
  EXPECT_EQ(empty.build_ns, 0u);
  EXPECT_EQ(empty.wait_ns, 0u);
  EXPECT_EQ(empty.bytes_in_use, warm.bytes_in_use);
  EXPECT_EQ(empty.hit_rate(), 0.0);

  // The warm blocks are still resident: the second sweep's phase is all
  // hits, and the lifetime counters still hold the warmup misses.
  for (graph::NodeIndex v = 0; v < g->n(); ++v) atlas.block(*g, 2, v);
  const AtlasStats phase = atlas.stats().since(warm);
  EXPECT_EQ(phase.misses, 0u);
  EXPECT_GT(phase.hits, 0u);
  EXPECT_EQ(phase.hit_rate(), 1.0);
  EXPECT_EQ(phase.build_ns, 0u);  // hits read no clock and build nothing
  EXPECT_EQ(phase.bytes_in_use, warm.bytes_in_use);
  EXPECT_EQ(atlas.stats().misses, warm.misses);
}

/// The reference policy: a plain LRU over (epoch, t, block) keys, each
/// charged its block's bytes(), admitting whatever fits in the budget at
/// all and bypassing the rest.  Counters mirror AtlasStats.
class ReferenceLru {
 public:
  using Key = std::tuple<std::uint64_t, unsigned, std::uint32_t>;

  explicit ReferenceLru(std::size_t budget) : budget_(budget) {}

  void lookup(const Key& key, std::size_t bytes) {
    if (const auto it = where_.find(key); it != where_.end()) {
      ++stats.hits;
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    ++stats.misses;
    if (bytes > budget_) {
      ++stats.bypassed;
      return;
    }
    while (stats.bytes_in_use + bytes > budget_) {
      const auto& [victim, victim_bytes] = order_.back();
      stats.bytes_in_use -= victim_bytes;
      where_.erase(victim);
      order_.pop_back();
      ++stats.evictions;
    }
    order_.emplace_front(key, bytes);
    where_[key] = order_.begin();
    stats.bytes_in_use += bytes;
    stats.peak_bytes = std::max(stats.peak_bytes, stats.bytes_in_use);
  }

  AtlasStats stats;

 private:
  std::size_t budget_;
  std::list<std::pair<Key, std::size_t>> order_;  ///< front = most recent
  std::map<Key, std::list<std::pair<Key, std::size_t>>::iterator> where_;
};

// The atlas's one policy, replayed against the reference LRU: seeded random
// lookups (skewed toward low centers, so some blocks are hot) over two
// graphs and radii {2, 4}, at budgets 0, below one block, about three
// blocks, and unbounded.  Every counter must match after every lookup.
TEST(GeometryAtlas, MatchesReferenceLruModel) {
  util::Rng graph_rng(7017);
  const std::vector<std::shared_ptr<const graph::Graph>> graphs = {
      share(graph::random_connected(96, 60, graph_rng)),
      share(graph::grid(8, 10))};
  constexpr std::uint32_t kBlockCenters = 16;
  const std::vector<unsigned> radii = {2, 4};

  // Every key's block size, from blocks built outside any atlas.
  std::map<ReferenceLru::Key, std::size_t> block_bytes;
  for (const auto& g : graphs)
    for (const unsigned t : radii)
      for (graph::NodeIndex first = 0; first < g->n(); first += kBlockCenters) {
        const auto end = static_cast<graph::NodeIndex>(
            std::min<std::size_t>(first + kBlockCenters, g->n()));
        block_bytes[{g->epoch(), t, first / kBlockCenters}] =
            GeometryBlock(*g, first, end, t).bytes();
      }
  std::vector<std::size_t> sizes;
  for (const auto& [key, bytes] : block_bytes) sizes.push_back(bytes);
  std::sort(sizes.begin(), sizes.end());
  const std::size_t median = sizes[sizes.size() / 2];

  for (const std::size_t budget :
       {std::size_t{0}, sizes.front() - 1, 3 * median,
        std::numeric_limits<std::size_t>::max()}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(::testing::Message() << "budget " << budget << " seed "
                                        << seed);
      AtlasOptions options;
      options.block_centers = kBlockCenters;
      options.byte_budget = budget;
      GeometryAtlas atlas(options);
      ReferenceLru model(budget);
      util::Rng rng(seed);
      for (int step = 0; step < 400; ++step) {
        const auto& g = graphs[rng.below(graphs.size())];
        const unsigned t = radii[rng.below(radii.size())];
        const auto center =
            static_cast<graph::NodeIndex>(rng.below(rng.below(g->n()) + 1));
        const auto block = atlas.block(*g, t, center);
        ASSERT_TRUE(block->covers(center));
        ASSERT_EQ(block->radius(), t);
        const ReferenceLru::Key key{g->epoch(), t, center / kBlockCenters};
        model.lookup(key, block_bytes.at(key));

        const AtlasStats got = atlas.stats();
        ASSERT_EQ(got.hits, model.stats.hits) << "step " << step;
        ASSERT_EQ(got.misses, model.stats.misses) << "step " << step;
        ASSERT_EQ(got.evictions, model.stats.evictions) << "step " << step;
        ASSERT_EQ(got.bypassed, model.stats.bypassed) << "step " << step;
        ASSERT_EQ(got.bytes_in_use, model.stats.bytes_in_use)
            << "step " << step;
        ASSERT_EQ(got.peak_bytes, model.stats.peak_bytes) << "step " << step;
      }
      // The sequence must have exercised the budget it names.
      if (budget == 3 * median) {
        EXPECT_GT(model.stats.evictions, 0u);
      }
      if (budget == std::numeric_limits<std::size_t>::max()) {
        EXPECT_GT(model.stats.hits, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace pls::radius

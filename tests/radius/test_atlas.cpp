// GeometryAtlas: the cached geometry must be indistinguishable from a fresh
// BallBuilder build — for every center, radius, graph, and sharing pattern —
// while the byte budget and LRU accounting hold at every step.
#include "radius/atlas.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "radius/sketch.hpp"

#include "graph/generators.hpp"
#include "radius/batch.hpp"
#include "radius/spread.hpp"
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
    bound.bind(block->ball(v, t), cfg, lab, mode);
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

// The prefix property: a block built at radius t serves every t' < t with
// geometry equal to a direct radius-t' build (members are a prefix, boundary
// rows are cut at the layer partition, whole_component is re-derived).
TEST(GeometryAtlas, LargerRadiusServesSmallerByPrefix) {
  util::Rng rng(7002);
  auto g = share(graph::random_connected(40, 28, rng));
  const auto cfg = trivial_config(g);
  const auto lab = numbered_labeling(g->n());

  GeometryAtlas atlas;
  // Warm the atlas at t = 8; all smaller radii must be served without a
  // single additional build.
  for (graph::NodeIndex v = 0; v < g->n(); ++v) atlas.block(*g, 8, v);
  const std::uint64_t misses_after_warmup = atlas.stats().misses;

  BallBuilder builder;
  BallView bound;
  for (const unsigned t : {1u, 2u, 3u, 5u, 8u}) {
    for (graph::NodeIndex v = 0; v < g->n(); ++v) {
      const auto block = atlas.block(*g, t, v);
      EXPECT_GE(block->radius(), t);
      bound.bind(block->ball(v, t), cfg, lab, local::Visibility::kExtended);
      expect_same_ball(bound,
                       builder.build(cfg, lab, v, t,
                                     local::Visibility::kExtended));
    }
  }
  EXPECT_EQ(atlas.stats().misses, misses_after_warmup);
  EXPECT_GT(atlas.stats().hits, 0u);
}

// Ascending radii must not leave redundant prefixes resident: admitting a
// radius-8 block retires the radius-2 block over the same centers (a strict
// prefix of it), and later radius-2 lookups hit the radius-8 block.
TEST(GeometryAtlas, AscendingRadiusRetiresPrefixBlocks) {
  util::Rng rng(7012);
  auto g = share(graph::random_connected(40, 28, rng));

  GeometryAtlas atlas;
  for (graph::NodeIndex v = 0; v < g->n(); ++v) atlas.block(*g, 2, v);
  const AtlasStats after_t2 = atlas.stats();
  const std::size_t t2_bytes = after_t2.bytes_in_use;
  ASSERT_GT(t2_bytes, 0u);

  for (graph::NodeIndex v = 0; v < g->n(); ++v) atlas.block(*g, 8, v);
  const AtlasStats after_t8 = atlas.stats();
  // Every t=2 block was superseded by its t=8 cover...
  EXPECT_EQ(after_t8.evictions, after_t2.misses);
  // ...so residency equals the t=8 geometry alone, not the sum of both.
  GeometryAtlas only_t8;
  for (graph::NodeIndex v = 0; v < g->n(); ++v) only_t8.block(*g, 8, v);
  EXPECT_EQ(after_t8.bytes_in_use, only_t8.stats().bytes_in_use);

  // And t=2 is now served by the t=8 blocks: hits only, no new builds.
  const std::uint64_t misses_before = after_t8.misses;
  for (graph::NodeIndex v = 0; v < g->n(); ++v) atlas.block(*g, 2, v);
  EXPECT_EQ(atlas.stats().misses, misses_before);
}

TEST(GeometryAtlas, DisconnectedGraphAndPendantNodes) {
  // Two components (a path and a triangle) exercise whole_component and
  // empty trailing layers through the prefix view.
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
  EXPECT_TRUE(block->ball(5, 2).whole_component);
  EXPECT_FALSE(atlas.block(*g, 2, 0)->ball(0, 2).whole_component);
}

TEST(GeometryAtlas, RespectsByteBudgetAndEvictsLru) {
  // A cyclic scan six blocks wide through a budget of three and a half:
  // each block is looked up once per center, so once the sketch ages the
  // stale residents (every 64 lookups here) the block being swept outscores
  // them and displaces LRU victims.
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

// TinyLFU admission is scan-resistant: a cyclic sweep whose working set
// exceeds the budget keeps a stable resident subset (partial hit rate)
// instead of LRU-churning to zero hits.
TEST(GeometryAtlas, ScanLargerThanBudgetStillHits) {
  util::Rng rng(7013);
  auto g = share(graph::random_connected(96, 60, rng));

  AtlasOptions probe_options;
  probe_options.block_centers = 16;
  GeometryAtlas probe(probe_options);
  const std::size_t block_bytes = probe.block(*g, 4, 0)->bytes();

  AtlasOptions options;
  options.block_centers = 16;
  options.byte_budget = 3 * block_bytes + block_bytes / 2;
  GeometryAtlas atlas(options);
  for (int sweep = 0; sweep < 4; ++sweep)
    for (graph::NodeIndex v = 0; v < g->n(); ++v) {
      atlas.block(*g, 4, v);
      EXPECT_LE(atlas.stats().bytes_in_use, options.byte_budget);
    }
  const AtlasStats stats = atlas.stats();
  // Roughly half the blocks fit, so from sweep 2 on the resident subset
  // keeps hitting; some blocks bypass the cache by design.
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.bypassed, 0u);
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
// verifier's sweep is served entirely from cache.
TEST(GeometryAtlas, SharedAcrossVerifiers) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const SpreadScheme spread(base, 4);
  util::Rng rng(7006);
  auto g = share(graph::random_connected(26, 14, rng));
  const local::Configuration cfg = language.sample_legal(g, rng);
  const core::Labeling honest = spread.mark(cfg);

  auto atlas = std::make_shared<GeometryAtlas>();
  BatchOptions options;
  options.threads = 1;
  options.atlas = atlas;
  BatchVerifier first(spread, cfg, 4, options);
  const core::Verdict v1 = first.run_one(honest);
  const std::uint64_t misses_after_first = atlas->stats().misses;

  BatchVerifier second(spread, cfg, 4, options);
  const core::Verdict v2 = second.run_one(honest);
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
          EXPECT_GE(block->radius(), t);
          EXPECT_GT(block->ball(v, t).members.size(), 0u);
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

  // A snapshot diffed against itself is the empty phase.
  const AtlasStats empty = warm.since(warm);
  EXPECT_EQ(empty.hits, 0u);
  EXPECT_EQ(empty.misses, 0u);
  EXPECT_EQ(empty.evictions, 0u);
  EXPECT_EQ(empty.bypassed, 0u);
  EXPECT_EQ(empty.bytes_in_use, warm.bytes_in_use);
  EXPECT_EQ(empty.hit_rate(), 0.0);

  // The warm blocks are still resident: the second sweep's phase is all
  // hits, and the lifetime counters still hold the warmup misses.
  for (graph::NodeIndex v = 0; v < g->n(); ++v) atlas.block(*g, 2, v);
  const AtlasStats phase = atlas.stats().since(warm);
  EXPECT_EQ(phase.misses, 0u);
  EXPECT_GT(phase.hits, 0u);
  EXPECT_EQ(phase.hit_rate(), 1.0);
  EXPECT_EQ(phase.bytes_in_use, warm.bytes_in_use);
  EXPECT_EQ(atlas.stats().misses, warm.misses);
}

TEST(FrequencySketch, CountMinSaturatesAtFifteen) {
  FrequencySketch sketch(64);
  constexpr std::uint64_t kNoAging = 1u << 20;
  EXPECT_EQ(sketch.estimate(42), 0u);
  for (int i = 0; i < 7; ++i) sketch.record(42, kNoAging);
  // Count-min never under-counts (collisions can only over-count).
  EXPECT_GE(sketch.estimate(42), 7u);
  for (int i = 0; i < 40; ++i) sketch.record(42, kNoAging);
  EXPECT_EQ(sketch.estimate(42), 15u);  // saturated, no wrap past 0xF
  EXPECT_EQ(sketch.halvings(), 0u);
}

TEST(FrequencySketch, PeriodicHalvingDecaysEveryCounter) {
  FrequencySketch sketch(1u << 10);
  constexpr std::uint64_t kPeriod = 64;
  for (int i = 0; i < 12; ++i) sketch.record(7, kPeriod);
  EXPECT_GE(sketch.estimate(7), 12u);
  // Unrelated traffic trips the sample period; the halving caps every
  // counter in the table at 15/2 = 7, so the hot key decays too.
  std::uint64_t key = 1000;
  while (sketch.halvings() == 0) sketch.record(key++, kPeriod);
  EXPECT_EQ(key, 1000u + kPeriod - 12);  // exactly one period of records
  EXPECT_LE(sketch.estimate(7), 7u);
}

// TinyLFU admission: in the LRU-churn scenario — a budget holding exactly
// one block, hot lookups interleaved with a cold rotation — pure LRU would
// evict the hot block moments before every reuse (3 hits: the 2 warmup
// revisits and round 0's hot lookup, before the first cold arrival starts
// the churn), while the frequency sketch vetoes each cold contender
// (estimate ~1) against the hot resident and keeps hitting.  The zipf-stream
// hit rate is the bench's job; this pins the admission mechanism itself,
// deterministically.
TEST(GeometryAtlas, TinyLfuKeepsTheHotBlockWhereLruChurns) {
  util::Rng rng(7014);
  auto g = share(graph::random_connected(96, 60, rng));

  // One lookup per block visit (as a sweep holding its pinned block would
  // issue).  Budget = the largest block: any single block fits, no two fit
  // together (asserted), so residency is exactly one block at all times.
  AtlasOptions probe_options;
  probe_options.block_centers = 16;
  GeometryAtlas probe(probe_options);
  std::vector<std::size_t> sizes;
  for (graph::NodeIndex first = 0; first < g->n(); first += 16)
    sizes.push_back(probe.block(*g, 4, first)->bytes());
  std::sort(sizes.begin(), sizes.end());
  ASSERT_GT(sizes.front() + sizes[1], sizes.back())
      << "budget must hold one block but never two";

  AtlasOptions base;
  base.block_centers = 16;
  base.byte_budget = sizes.back();
  const auto run_stream = [&](GeometryAtlas& atlas) {
    for (int i = 0; i < 3; ++i) atlas.block(*g, 4, 0);  // seed hot frequency
    for (int round = 0; round < 10; ++round) {
      atlas.block(*g, 4, 0);  // hot: always block 0
      const auto cold = static_cast<graph::NodeIndex>(16 * (1 + round % 5));
      atlas.block(*g, 4, cold);
    }
  };

  GeometryAtlas tiny_atlas(base);
  run_stream(tiny_atlas);
  const AtlasStats tiny_stats = tiny_atlas.stats();

  // Every cold contender lost to the hot resident's frequency...
  EXPECT_EQ(tiny_stats.sketch_rejects, 10u);
  EXPECT_EQ(tiny_stats.bypassed, 10u);
  EXPECT_EQ(tiny_stats.evictions, 0u);
  // ...so the hot block hit on every revisit.
  EXPECT_EQ(tiny_stats.hits, 12u);  // 2 warmup revisits + 10 rounds
  EXPECT_LE(tiny_stats.bytes_in_use, base.byte_budget);
  EXPECT_LE(tiny_stats.peak_bytes, base.byte_budget);

  // And it is still resident now: one more hot lookup, zero builds.
  const AtlasStats before_final = tiny_atlas.stats();
  tiny_atlas.block(*g, 4, 0);
  const AtlasStats final_phase = tiny_atlas.stats().since(before_final);
  EXPECT_EQ(final_phase.misses, 0u);
  EXPECT_EQ(final_phase.hits, 1u);
}

// Workload shift, the case the sketch's aging exists for: epoch A's blocks
// fill the budget and saturate the sketch (estimate 15 each), then all
// traffic moves to a new graph epoch B.  Without halving, no B contender
// could ever beat a saturated resident (ties reject), so B would bypass
// forever.  With the derived cadence — a halving every max(64, 10 x
// resident entries) records — B's hot block must become resident within
// one aging period of the shift.
TEST(GeometryAtlas, TinyLfuAdmitsANewEpochWithinOneAgingPeriod) {
  util::Rng rng(7016);
  auto a = share(graph::random_connected(64, 40, rng));
  auto b = share(graph::random_connected(64, 40, rng));

  // Budget = exactly epoch A's four blocks: the cache is full after A, and
  // any B block needs victims.
  AtlasOptions options;
  options.block_centers = 16;
  options.byte_budget = 0;
  {
    GeometryAtlas probe(options);
    for (graph::NodeIndex first = 0; first < a->n(); first += 16)
      options.byte_budget += probe.block(*a, 2, first)->bytes();
  }
  GeometryAtlas atlas(options);
  // 15 rounds over A's blocks: 60 records, under one aging period, so every
  // resident sits at the saturated estimate when the shift lands.
  for (int round = 0; round < 15; ++round)
    for (graph::NodeIndex first = 0; first < a->n(); first += 16)
      atlas.block(*a, 2, first);
  const AtlasStats after_a = atlas.stats();
  ASSERT_EQ(after_a.misses, 4u);
  ASSERT_EQ(after_a.bytes_in_use, options.byte_budget);

  const std::uint64_t aging_period = std::max<std::uint64_t>(64, 10 * 4);
  std::uint64_t lookups = 0;
  while (atlas.stats().since(after_a).hits == 0 &&
         lookups <= 4 * aging_period) {
    atlas.block(*b, 2, 0);
    ++lookups;
  }
  const AtlasStats shift = atlas.stats().since(after_a);
  // The saturated residents vetoed B at first...
  EXPECT_GT(shift.sketch_rejects, 0u);
  // ...until aging let it in: admitted by lookup `aging_period`, hit on the
  // lookup after.
  EXPECT_EQ(shift.hits, 1u);
  EXPECT_LE(lookups, aging_period + 1);
  EXPECT_GT(shift.evictions, 0u);
  EXPECT_LE(atlas.stats().bytes_in_use, options.byte_budget);
}

std::size_t by_radius_sum(const AtlasStats& stats) {
  std::size_t sum = 0;
  for (const auto& [t, rb] : stats.by_radius) sum += rb.bytes_in_use;
  return sum;
}

// The per-radius residency gauges: attribution always sums to the global
// bytes_in_use, and prefix retirement moves bytes between radii instead of
// leaking them.
TEST(GeometryAtlas, ByRadiusResidencySumsToTotalAndTracksRetirement) {
  util::Rng rng(7015);
  auto g1 = share(graph::random_connected(30, 18, rng));
  auto g2 = share(graph::random_connected(26, 14, rng));

  GeometryAtlas atlas;
  for (graph::NodeIndex v = 0; v < g1->n(); ++v) atlas.block(*g1, 2, v);
  for (graph::NodeIndex v = 0; v < g2->n(); ++v) atlas.block(*g2, 5, v);
  const AtlasStats mixed = atlas.stats();
  ASSERT_GT(mixed.by_radius.at(2).bytes_in_use, 0u);
  ASSERT_GT(mixed.by_radius.at(5).bytes_in_use, 0u);
  EXPECT_EQ(by_radius_sum(mixed), mixed.bytes_in_use);
  for (const auto& [t, rb] : mixed.by_radius)
    EXPECT_GE(rb.peak_bytes, rb.bytes_in_use) << "radius " << t;

  // Ascending g1 to t = 8 retires its t = 2 prefixes: radius 2 drains to
  // zero residency (its peak stays), radius 8 takes the bytes over, and the
  // attribution still sums exactly.
  for (graph::NodeIndex v = 0; v < g1->n(); ++v) atlas.block(*g1, 8, v);
  const AtlasStats after = atlas.stats();
  EXPECT_EQ(after.by_radius.at(2).bytes_in_use, 0u);
  EXPECT_EQ(after.by_radius.at(2).peak_bytes,
            mixed.by_radius.at(2).peak_bytes);
  EXPECT_GT(after.by_radius.at(8).bytes_in_use, 0u);
  EXPECT_EQ(by_radius_sum(after), after.bytes_in_use);
}

}  // namespace
}  // namespace pls::radius

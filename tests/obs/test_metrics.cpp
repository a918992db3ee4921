// MetricsRegistry / Histogram: the log-bucket quantile error bound, the
// merge-commutativity that makes concurrent recording deterministic, and the
// snapshot-diff phase accounting that replaced reset-style brackets.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "radius/atlas.hpp"
#include "util/rng.hpp"

namespace pls::obs {
namespace {

TEST(Histogram, BucketRoundTripAndWidthBound) {
  std::vector<std::uint64_t> probes;
  for (std::uint64_t v = 0; v < 64; ++v) probes.push_back(v);
  for (unsigned shift = 4; shift < 63; ++shift) {
    const std::uint64_t p = std::uint64_t{1} << shift;
    probes.insert(probes.end(), {p - 1, p, p + 1, p + p / 3});
  }
  probes.push_back(~std::uint64_t{0});
  for (const std::uint64_t v : probes) {
    const std::size_t b = Histogram::bucket_of(v);
    ASSERT_LT(b, Histogram::kBuckets) << v;
    const std::uint64_t upper = Histogram::bucket_upper(b);
    EXPECT_GE(upper, v);
    // The reported value (the bucket upper bound) overshoots by at most
    // 1/16 of the true value: the quantile error guarantee, bucket-wise.
    EXPECT_LE(upper - v, v / Histogram::kSub) << v;
    // Upper bounds are tight: the next value starts a new bucket.
    if (upper != ~std::uint64_t{0}) {
      EXPECT_EQ(Histogram::bucket_of(upper + 1), b + 1) << v;
    }
  }
}

TEST(Histogram, QuantileWithinRelativeErrorOfExactOrderStatistic) {
  Histogram h;
  std::vector<std::uint64_t> values;
  util::Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    // Spread over six octaves so the log buckets actually matter.
    const std::uint64_t v = rng.below(std::uint64_t{1} << (8 + 2 * (i % 7)));
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  const HistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.count, values.size());
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    if (rank == 0) rank = 1;
    const std::uint64_t exact = values[rank - 1];
    const std::uint64_t est = snap.quantile(q);
    EXPECT_GE(est, exact) << "q=" << q;
    EXPECT_LE(est - exact, exact / Histogram::kSub) << "q=" << q;
  }
}

TEST(Histogram, ConcurrentMergeIsDeterministic) {
  // The same per-thread value multisets, recorded under two different
  // interleavings (4 threads vs sequential), must produce identical buckets:
  // counts commute.
  const auto values_for = [](unsigned t) {
    std::vector<std::uint64_t> out;
    util::Rng rng(100 + t);
    for (int i = 0; i < 20000; ++i)
      out.push_back(rng.below(std::uint64_t{1} << 40));
    return out;
  };

  Histogram concurrent;
  {
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 4; ++t)
      threads.emplace_back([&concurrent, vals = values_for(t)] {
        for (const std::uint64_t v : vals) concurrent.record(v);
      });
    for (std::thread& th : threads) th.join();
  }
  Histogram sequential;
  for (unsigned t = 0; t < 4; ++t)
    for (const std::uint64_t v : values_for(t)) sequential.record(v);

  const HistogramSnapshot a = concurrent.snapshot();
  const HistogramSnapshot b = sequential.snapshot();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.buckets, b.buckets);
}

TEST(Histogram, SnapshotDiffIsolatesOnePhase) {
  Histogram h;
  for (const std::uint64_t v : {5u, 100u, 7000u}) h.record(v);
  const HistogramSnapshot before = h.snapshot();
  for (const std::uint64_t v : {9u, 9u, 50000u}) h.record(v);
  const HistogramSnapshot phase = h.snapshot().since(before);

  Histogram only_phase;
  for (const std::uint64_t v : {9u, 9u, 50000u}) only_phase.record(v);
  const HistogramSnapshot expected = only_phase.snapshot();
  EXPECT_EQ(phase.count, expected.count);
  EXPECT_EQ(phase.sum, expected.sum);
  EXPECT_EQ(phase.buckets, expected.buckets);
  EXPECT_EQ(phase.min, expected.min);
  EXPECT_EQ(phase.max, expected.max);
}

TEST(MetricsRegistry, StableHandlesAndSnapshotDiff) {
  MetricsRegistry registry;
  Counter& c = registry.counter("verify.labelings");
  EXPECT_EQ(&c, &registry.counter("verify.labelings"));  // resolved once
  Histogram& h = registry.histogram("verify.e2e_ns");
  EXPECT_EQ(&h, &registry.histogram("verify.e2e_ns"));

  c.add(3);
  h.record(1000);
  const MetricsSnapshot before = registry.snapshot();
  c.add(2);
  h.record(2000);
  registry.set_gauge("atlas.hit_rate", 0.75);
  const MetricsSnapshot phase = registry.snapshot().since(before);
  EXPECT_EQ(phase.counters.at("verify.labelings"), 2u);
  EXPECT_EQ(phase.histograms.at("verify.e2e_ns").count, 1u);
  EXPECT_DOUBLE_EQ(phase.gauges.at("atlas.hit_rate"), 0.75);  // level, not diff
}

TEST(MetricsRegistry, SnapshotJsonIsWellFormed) {
  MetricsRegistry registry;
  registry.counter("verify.labelings").add(4);
  registry.histogram("verify.e2e_ns").record(12345);
  registry.set_gauge("atlas.hit_rate", 0.5);
  std::ostringstream out;
  registry.snapshot().write_json(out);  // PLS_REQUIREs balanced output
  const std::string json = out.str();
  EXPECT_NE(json.find("\"verify.labelings\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"atlas.hit_rate\""), std::string::npos);
}

TEST(ScopedTimer, NullHistogramRecordsNothing) {
  { ScopedTimer t(nullptr); }  // must not crash or read the clock
  Histogram h;
  { ScopedTimer t(&h); }
  EXPECT_EQ(h.snapshot().count, 1u);
}

TEST(Absorb, AtlasStatsExportPerRadiusResidencyGauges) {
  radius::AtlasStats stats;
  stats.hits = 5;
  stats.misses = 3;
  stats.sketch_rejects = 2;
  stats.build_ns = 7000;
  stats.wait_ns = 900;
  stats.bytes_in_use = 300;
  stats.peak_bytes = 400;
  stats.by_radius[2] = {100, 150};
  stats.by_radius[8] = {200, 250};

  MetricsRegistry registry;
  absorb(registry, stats);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.gauges.at("atlas.sketch_rejects"), 2.0);
  EXPECT_EQ(snap.gauges.at("atlas.build_ns"), 7000.0);
  EXPECT_EQ(snap.gauges.at("atlas.wait_ns"), 900.0);
  EXPECT_EQ(snap.gauges.at("atlas.bytes_in_use"), 300.0);
  // The per-radius attribution rides the same export door with a stable
  // ".r<t>" suffix per built radius.
  EXPECT_EQ(snap.gauges.at("atlas.bytes_in_use.r2"), 100.0);
  EXPECT_EQ(snap.gauges.at("atlas.peak_bytes.r2"), 150.0);
  EXPECT_EQ(snap.gauges.at("atlas.bytes_in_use.r8"), 200.0);
  EXPECT_EQ(snap.gauges.at("atlas.peak_bytes.r8"), 250.0);
}

}  // namespace
}  // namespace pls::obs

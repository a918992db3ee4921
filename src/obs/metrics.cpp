#include "obs/metrics.hpp"

#include <chrono>
#include <ostream>

#include "obs/json.hpp"
#include "radius/atlas.hpp"
#include "radius/delta.hpp"
#include "util/assert.hpp"

namespace pls::obs {

std::uint64_t steady_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t HistogramSnapshot::quantile(double q) const noexcept {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the order statistic we report: ceil(q * count), clamped to
  // [1, count] (q = 0 still names the smallest recorded value).
  auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count));
  if (static_cast<double>(rank) < q * static_cast<double>(count)) ++rank;
  if (rank == 0) rank = 1;
  if (rank > count) rank = count;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    seen += buckets[b];
    if (seen >= rank) return Histogram::bucket_upper(b);
  }
  return max;  // unreachable when count == sum of buckets
}

HistogramSnapshot HistogramSnapshot::since(
    const HistogramSnapshot& earlier) const {
  PLS_REQUIRE(buckets.size() == earlier.buckets.size() || earlier.count == 0);
  HistogramSnapshot out;
  out.buckets.assign(buckets.size(), 0);
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const std::uint64_t before =
        b < earlier.buckets.size() ? earlier.buckets[b] : 0;
    PLS_REQUIRE(buckets[b] >= before);
    out.buckets[b] = buckets[b] - before;
  }
  out.count = count - earlier.count;
  out.sum = sum - earlier.sum;
  // min/max of the phase re-derived from the surviving buckets.
  bool saw = false;
  for (std::size_t b = 0; b < out.buckets.size(); ++b) {
    if (out.buckets[b] == 0) continue;
    if (!saw) out.min = b == 0 ? 0 : Histogram::bucket_upper(b - 1) + 1;
    out.max = Histogram::bucket_upper(b);
    saw = true;
  }
  return out;
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.buckets.resize(kBuckets);
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const std::uint64_t c = counts_[b].load(std::memory_order_relaxed);
    snap.buckets[b] = c;
    snap.count += c;
    if (c != 0) {
      if (snap.count == c)  // first non-empty bucket seen
        snap.min = b == 0 ? 0 : bucket_upper(b - 1) + 1;
      snap.max = bucket_upper(b);
    }
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  util::MutexLock lock(mu_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  counter_storage_.emplace_back();
  Counter* c = &counter_storage_.back();
  counters_.emplace(std::string(name), c);
  return *c;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  util::MutexLock lock(mu_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  histogram_storage_.emplace_back();
  Histogram* h = &histogram_storage_.back();
  histograms_.emplace(std::string(name), h);
  return *h;
}

void MetricsRegistry::set_gauge(std::string_view name, double value) {
  util::MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it != gauges_.end()) {
    it->second = value;
  } else {
    gauges_.emplace(std::string(name), value);
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  util::MutexLock lock(mu_);
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, v] : gauges_) snap.gauges[name] = v;
  for (const auto& [name, h] : histograms_)
    snap.histograms[name] = h->snapshot();
  return snap;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* g = new MetricsRegistry;  // never destroyed
  return *g;
}

MetricsSnapshot MetricsSnapshot::since(const MetricsSnapshot& earlier) const {
  MetricsSnapshot out;
  for (const auto& [name, v] : counters) {
    const auto it = earlier.counters.find(name);
    const std::uint64_t before = it == earlier.counters.end() ? 0 : it->second;
    PLS_REQUIRE(v >= before);
    out.counters[name] = v - before;
  }
  out.gauges = gauges;  // levels, not traffic
  for (const auto& [name, h] : histograms) {
    const auto it = earlier.histograms.find(name);
    out.histograms[name] =
        it == earlier.histograms.end() ? h : h.since(it->second);
  }
  return out;
}

void MetricsSnapshot::write_json(std::ostream& out) const {
  JsonWriter json(out);
  write_json(json);
  PLS_REQUIRE(json.finished());
}

void MetricsSnapshot::write_json(JsonWriter& json) const {
  json.begin_object();
  json.key("counters");
  json.begin_object();
  for (const auto& [name, v] : counters) json.kv(name, v);
  json.end_object();
  json.key("gauges");
  json.begin_object();
  for (const auto& [name, v] : gauges) json.kv(name, v);
  json.end_object();
  json.key("histograms");
  json.begin_object();
  for (const auto& [name, h] : histograms) {
    json.key(name);
    json.begin_object();
    json.kv("count", h.count);
    json.kv("sum", h.sum);
    json.kv("mean", h.mean());
    json.kv("min", h.min);
    json.kv("max", h.max);
    json.kv("p50", h.quantile(0.50));
    json.kv("p90", h.quantile(0.90));
    json.kv("p95", h.quantile(0.95));
    json.kv("p99", h.quantile(0.99));
    json.end_object();
  }
  json.end_object();
  json.end_object();
}

PLS_HOT ScopedTimer::ScopedTimer(Histogram* h) noexcept : h_(h) {
  if (h_ != nullptr) start_ns_ = steady_now_ns();
}

PLS_HOT ScopedTimer::~ScopedTimer() {
  if (h_ != nullptr) h_->record(steady_now_ns() - start_ns_);
}

void absorb(MetricsRegistry& registry, const radius::AtlasStats& stats) {
  registry.set_gauge("atlas.hits", static_cast<double>(stats.hits));
  registry.set_gauge("atlas.misses", static_cast<double>(stats.misses));
  registry.set_gauge("atlas.evictions", static_cast<double>(stats.evictions));
  registry.set_gauge("atlas.bypassed", static_cast<double>(stats.bypassed));
  registry.set_gauge("atlas.sketch_rejects",
                     static_cast<double>(stats.sketch_rejects));
  registry.set_gauge("atlas.bytes_in_use",
                     static_cast<double>(stats.bytes_in_use));
  registry.set_gauge("atlas.peak_bytes",
                     static_cast<double>(stats.peak_bytes));
  registry.set_gauge("atlas.hit_rate", stats.hit_rate());
  registry.set_gauge("atlas.build_ns", static_cast<double>(stats.build_ns));
  registry.set_gauge("atlas.wait_ns", static_cast<double>(stats.wait_ns));
  // Residency attribution per built radius: which tenants' geometry holds
  // the shared budget (std::map, so export order is stable).
  for (const auto& [t, rb] : stats.by_radius) {
    const std::string suffix = ".r" + std::to_string(t);
    registry.set_gauge("atlas.bytes_in_use" + suffix,
                       static_cast<double>(rb.bytes_in_use));
    registry.set_gauge("atlas.peak_bytes" + suffix,
                       static_cast<double>(rb.peak_bytes));
  }
}

void absorb(MetricsRegistry& registry, const radius::DeltaStats& stats) {
  registry.set_gauge("delta.runs", static_cast<double>(stats.delta_runs));
  registry.set_gauge("delta.empty_runs",
                     static_cast<double>(stats.empty_runs));
  registry.set_gauge("delta.certs_reparsed",
                     static_cast<double>(stats.certs_reparsed));
  registry.set_gauge("delta.links_incremental",
                     static_cast<double>(stats.links_incremental));
  registry.set_gauge("delta.link_reseeds",
                     static_cast<double>(stats.link_reseeds));
  registry.set_gauge("delta.centers_reswept",
                     static_cast<double>(stats.centers_reswept));
  registry.set_gauge("delta.verdicts_carried",
                     static_cast<double>(stats.verdicts_carried));
}

}  // namespace pls::obs

// Counters and streaming latency histograms — the pipeline's health sheet.
//
// The serving-tier north star quotes p50/p99 latency and sustained
// labelings/sec; the pre-obs code base answered with hand-rolled wall-clock
// totals per bench plus ad-hoc AtlasStats/DeltaStats counters.  This module
// is the uniform replacement: one MetricsRegistry of named counters and
// fixed-log-bucket histograms that the batch verifier feeds per stage, the
// benches snapshot, and one JSON exporter (obs/json.hpp) serializes for the
// CI artifacts.
//
//   * No allocation on the hot path.  A Histogram is a fixed array of
//     relaxed atomics (HdrHistogram-style log buckets: 16 sub-buckets per
//     octave, so any quantile is reported with <= 1/16 relative error);
//     record() is one bit-scan and one fetch_add.  Counter::add is one
//     fetch_add.  Handles are resolved by name once (registry mutex), then
//     held as plain pointers.
//   * Thread-merge determinism.  Buckets are pure counts, so concurrent
//     record() calls commute: any interleaving of the same per-thread value
//     multisets yields the identical histogram (test-asserted).
//   * Snapshot, don't reset.  snapshot() returns a consistent-enough copy
//     (counters monotone, per-bucket atomic); phase accounting is the
//     difference of two snapshots, which — unlike the retired
//     AtlasStats::reset path — cannot tear a phase boundary for concurrent
//     writers.  AtlasStats/DeltaStats remain the pipeline-internal counter
//     structs; absorb() folds them into a registry so every artifact leaves
//     through the same snapshot/export door.
//
// Metric names are dot-separated, stable, and documented in
// docs/metrics-schema.md; _ns-suffixed histograms hold nanoseconds.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace pls::radius {
struct AtlasStats;
struct DeltaStats;
}  // namespace pls::radius

namespace pls::obs {

class JsonWriter;

/// Monotone event counter.  add() is wait-free; value() is a relaxed read
/// (exact once writers quiesce, monotone always).
class Counter {
 public:
  // Per-event leaf (prooflab-lint R1): one relaxed fetch_add, no allocation,
  // no lock.  Relaxed: counts commute; readers see exact totals once writers
  // quiesce (the snapshot contract), monotone values always.
  PLS_HOT void add(std::uint64_t delta = 1) noexcept {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Immutable histogram state at one point in time, with quantile queries.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< smallest recorded value's bucket lower bound
  std::uint64_t max = 0;  ///< largest recorded value's bucket upper bound
  std::vector<std::uint64_t> buckets;  ///< dense copy (index = bucket)

  /// Value at quantile q in [0, 1]: the upper bound of the bucket holding
  /// the ceil(q * count)-th smallest recorded value — within 1/16 relative
  /// error of the exact order statistic.  0 when empty.
  std::uint64_t quantile(double q) const noexcept;

  double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// this - earlier, bucket-wise: the traffic of one phase bracketed by two
  /// snapshots.  Requires `earlier` to be a snapshot of the same histogram
  /// taken no later than this one.
  HistogramSnapshot since(const HistogramSnapshot& earlier) const;
};

/// Fixed log-bucket histogram of non-negative 64-bit values.
///
/// Bucketing: values < 16 are exact; larger values share an octave split
/// into 16 sub-buckets, so a bucket's width is at most 1/16 of its lower
/// bound.  1024 buckets cover the full uint64 range.  All state is atomic
/// counts — record() never allocates, blocks, or takes a lock.
class Histogram {
 public:
  static constexpr unsigned kSubBits = 4;  // 16 sub-buckets per octave
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  // Buckets 0..kSub-1 are the exact small values; octave o >= 1 (values with
  // bit_width kSubBits + o) owns kSub buckets starting at o * kSub.  The
  // widest value (bit_width 64) lands in octave 64 - kSubBits, hence +1.
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSub;

  PLS_HOT static std::size_t bucket_of(std::uint64_t v) noexcept {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned shift =
        static_cast<unsigned>(std::bit_width(v)) - (kSubBits + 1);
    return ((std::size_t{shift} + 1) << kSubBits) +
           static_cast<std::size_t>((v >> shift) - kSub);
  }

  /// Largest value mapping into `bucket` (the snapshot's reported bound).
  static std::uint64_t bucket_upper(std::size_t bucket) noexcept {
    if (bucket < kSub) return bucket;
    const unsigned shift = static_cast<unsigned>(bucket / kSub) - 1;
    const std::uint64_t base = (kSub + bucket % kSub) << shift;
    const std::uint64_t width = std::uint64_t{1} << shift;
    return base + width - 1;
  }

  // Per-event leaf (prooflab-lint R1): bit-scan + two relaxed fetch_adds.
  // Relaxed: bucket counts and the sum are each independently monotone and
  // commute across threads; no cross-field ordering is claimed (snapshot()
  // tolerates mid-record skew, exactness needs quiesced writers).
  PLS_HOT void record(std::uint64_t v) noexcept {
    counts_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  HistogramSnapshot snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<std::uint64_t> sum_{0};
};

/// One registry entry in a MetricsSnapshot.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Serializes the snapshot as one JSON object (counters/gauges verbatim;
  /// histograms as count/sum/mean/min/max/p50/p90/p95/p99).
  void write_json(std::ostream& out) const;

  /// Same object written through an in-progress writer — benches embed the
  /// snapshot as one member of their own artifact this way.
  void write_json(JsonWriter& json) const;

  /// Member-wise this - earlier for counters and histograms (gauges are
  /// levels, not traffic: the later value wins).  Phase accounting.
  MetricsSnapshot since(const MetricsSnapshot& earlier) const;
};

/// Named counters and histograms with stable handles.
///
/// counter()/histogram() resolve (and lazily create) by name under a mutex;
/// the returned references live as long as the registry and are safe to
/// update from any thread.  Call them once at setup, never per event.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name) PLS_EXCLUDES(mu_);
  Histogram& histogram(std::string_view name) PLS_EXCLUDES(mu_);

  /// Last-write-wins level metric (resident bytes, hit rates...), set at
  /// snapshot/export time — not a hot-path facility.
  void set_gauge(std::string_view name, double value) PLS_EXCLUDES(mu_);

  MetricsSnapshot snapshot() const PLS_EXCLUDES(mu_);

  /// The process-wide default registry (benches and the self-stabilization
  /// harness share it; verifiers take an explicit registry through their
  /// options so tests can isolate).
  static MetricsRegistry& global();

 private:
  mutable util::Mutex mu_;
  // deques: stable addresses across lazy creation — handles returned by
  // counter()/histogram() stay valid without the lock; only the name maps
  // and storage growth are guarded.
  std::deque<Counter> counter_storage_ PLS_GUARDED_BY(mu_);
  std::deque<Histogram> histogram_storage_ PLS_GUARDED_BY(mu_);
  std::map<std::string, Counter*, std::less<>> counters_ PLS_GUARDED_BY(mu_);
  std::map<std::string, Histogram*, std::less<>> histograms_
      PLS_GUARDED_BY(mu_);
  std::map<std::string, double, std::less<>> gauges_ PLS_GUARDED_BY(mu_);
};

/// Monotonic nanoseconds (steady clock): the one clock read for layers that
/// time themselves outside a histogram (the atlas's build/wait totals).
std::uint64_t steady_now_ns() noexcept;

/// RAII stage timer: records the scope's wall time into `h`, or does
/// nothing at all — no clock read — when `h` is null (the disabled path).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* h) noexcept;
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* h_;
  std::uint64_t start_ns_ = 0;
};

/// Folds the atlas counter struct into `registry` as `atlas.*` gauges
/// (absorbed structs are point-in-time snapshots, so last-write-wins gauge
/// semantics — not monotone counter adds — is what repeated exports want).
/// Atlas traffic then leaves through the same snapshot/export door as
/// everything else.  Snapshot-time adapter: call once per export, not per
/// lookup.
void absorb(MetricsRegistry& registry, const radius::AtlasStats& stats);

/// Folds the delta-path counter struct into `registry` (`delta.*` gauges).
void absorb(MetricsRegistry& registry, const radius::DeltaStats& stats);

}  // namespace pls::obs

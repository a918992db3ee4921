// Stage 1 of the verification pipeline: the geometry atlas.
//
// Ball geometry (BFS layers + ball-internal CSR) depends only on the graph
// and the radius — never on certificates, states, or visibility — yet the
// pre-atlas engine rebuilt it on every run.  Exactly the workloads the
// tradeoff experiments care about re-verify thousands of labelings against
// ONE topology (the adversary's hill-climb, the large-t sweeps), so geometry
// is the textbook shared artifact: build once, serve every verifier, thread
// slot, and t value.
//
// GeometryAtlas is a memory-budgeted, LRU-evicting cache of GeometryStore
// blocks:
//
//   * Block granularity.  One entry covers a contiguous run of centers
//     (AtlasOptions::block_centers) built in a single BFS sweep with shared
//     scratch — per-ball entries would drown in map overhead, and sweeps
//     touch centers in index order anyway.
//   * Key = (graph epoch, radius, block index).  The graph epoch
//     (graph::Graph::epoch) is process-unique per built graph, so one atlas
//     safely serves any number of configurations over any number of graphs.
//   * Smaller radii served by prefix.  A radius-t ball embeds every
//     radius-t' < t ball, and the store's layer-partitioned rows make the
//     embedding zero-copy (ball.hpp), so a lookup at radius t is satisfied
//     by any resident block with radius >= t over the same centers.
//   * Budget + LRU + TinyLFU admission.  Resident bytes never exceed the
//     configured budget: a built block is admitted only if it fits (after
//     LRU evictions are allowed), and returned blocks are shared_ptr-pinned
//     — eviction never invalidates a block a sweep still holds, it only
//     stops the atlas from accounting it.  Pure LRU collapses to a 0% hit
//     rate when a cyclic sweep's working set exceeds the budget (every
//     block is evicted moments before its next use), so once the cache is
//     full a contender displaces LRU victims only if its frequency-sketch
//     estimate (sketch.hpp) beats every victim's; losers are returned
//     un-cached (stats.bypassed, stats.sketch_rejects).  A cyclic scan then
//     keeps a stable resident subset instead of churning, and on skewed
//     center popularity the residents converge to the hot blocks.  The
//     sketch ages itself — every counter is halved after about ten times
//     the resident entry count of lookups (the W-TinyLFU sample size, with
//     a small floor) — so a genuine workload shift (new graph, new radius)
//     still turns the cache over within one aging period.  byte_budget = 0
//     is the degenerate rebuild-every-run atlas (the benchmark baseline).
//   * Concurrency.  Lookups, insertions, and eviction are mutex-serialized
//     (short critical sections); block construction runs outside the lock
//     with in-flight dedup, so concurrent lookups of one block build it
//     once and everyone else waits on it (stats.wait_ns).  A full sweep
//     claims whole blocks (BatchVerifier), so its own slots never want the
//     same block; the dedup serves verifiers that share an atlas and the
//     dirty re-sweep, whose chunks follow the dirty list, not blocks.
//
// The atlas is deliberately verdict-invisible: it returns geometry equal to
// what a fresh BallBuilder would produce, so every engine stays bit-identical
// at every thread count, budget, and sharing pattern.
#pragma once

#include <cstdint>
#include <exception>
#include <list>
#include <map>
#include <memory>

#include "radius/ball.hpp"
#include "radius/sketch.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace pls::radius {

struct AtlasOptions {
  /// Resident-byte ceiling, never exceeded; 0 caches nothing (every lookup
  /// rebuilds — the benchmark's rebuild baseline).  The default holds the
  /// flagship workload (t = 8 over n = 4096, ~0.4 GB) entirely.
  std::size_t byte_budget = std::size_t{512} << 20;
  /// Centers per block: the build/eviction granule.
  std::uint32_t block_centers = 64;
};

struct AtlasStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;       ///< == blocks built
  std::uint64_t evictions = 0;
  std::uint64_t bypassed = 0;     ///< built but not admitted
  std::uint64_t sketch_rejects = 0;  ///< bypasses where TinyLFU said no
  std::uint64_t build_ns = 0;  ///< wall time spent building blocks
  /// Wall time lookups spent blocked on ANOTHER thread's in-flight build of
  /// the block they wanted — the convoy gauge: slots that waited here were
  /// busy without building anything.
  std::uint64_t wait_ns = 0;
  std::size_t bytes_in_use = 0;
  std::size_t peak_bytes = 0;

  /// Residency split by built radius — the attribution gauge for
  /// multi-tenant budget pressure: when tenants at different t share one
  /// atlas, this says whose geometry actually holds the bytes.
  struct RadiusBytes {
    std::size_t bytes_in_use = 0;
    std::size_t peak_bytes = 0;
  };
  std::map<unsigned, RadiusBytes> by_radius;

  double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }

  /// Phase accounting: the traffic between `earlier` and this snapshot.
  /// Replaces the retired reset()/reset_stats() pair — diffing two stats()
  /// snapshots cannot tear a phase boundary for sweeps still running, while
  /// a reset concurrent with traffic silently misattributed it.  The level
  /// fields keep their later values (bytes_in_use is live residency;
  /// peak_bytes stays the lifetime peak, overall and per radius).
  AtlasStats since(const AtlasStats& earlier) const noexcept {
    AtlasStats out = *this;
    out.hits -= earlier.hits;
    out.misses -= earlier.misses;
    out.evictions -= earlier.evictions;
    out.bypassed -= earlier.bypassed;
    out.sketch_rejects -= earlier.sketch_rejects;
    out.build_ns -= earlier.build_ns;
    out.wait_ns -= earlier.wait_ns;
    return out;
  }
};

/// One cached block: the geometry of centers [first_center, end_center) of
/// one graph at one built radius.  Immutable after construction.
class GeometryBlock {
 public:
  GeometryBlock(const graph::Graph& g, graph::NodeIndex first_center,
                graph::NodeIndex end_center, unsigned t);

  graph::NodeIndex first_center() const noexcept { return first_; }
  graph::NodeIndex end_center() const noexcept { return end_; }
  unsigned radius() const noexcept { return store_.radius(); }
  std::size_t bytes() const noexcept { return store_.bytes(); }
  bool covers(graph::NodeIndex center) const noexcept {
    return center >= first_ && center < end_;
  }

  /// Geometry of `center`'s ball at serving radius t <= radius().
  GeometryView ball(graph::NodeIndex center, unsigned t) const {
    PLS_REQUIRE(covers(center));
    return store_.view(center - first_, t);
  }

 private:
  graph::NodeIndex first_;
  graph::NodeIndex end_;
  GeometryStore store_;
};

class GeometryAtlas {
 public:
  explicit GeometryAtlas(AtlasOptions options = {});

  /// The resident (or freshly built) block containing `center`'s radius-t
  /// ball for `g`.  The returned pointer pins the block: it stays valid
  /// after eviction for as long as the caller holds it.  Thread-safe.
  std::shared_ptr<const GeometryBlock> block(const graph::Graph& g, unsigned t,
                                             graph::NodeIndex center)
      PLS_EXCLUDES(mu_);

  /// Consistent snapshot of the counters (copied under the lock).  For
  /// phase accounting, diff two snapshots with AtlasStats::since.
  AtlasStats stats() const PLS_EXCLUDES(mu_);

  const AtlasOptions& options() const noexcept { return options_; }

 private:
  struct Key {
    std::uint64_t graph_epoch;
    std::uint32_t block_index;
    unsigned t;
    auto operator<=>(const Key&) const = default;
  };

  /// Shared between the map and any waiters on an in-flight build, so a
  /// finished-but-bypassed block still reaches everyone who waited for it.
  /// A build that THROWS publishes the failure the same way: the builder
  /// stores its exception in `error` before erasing the entry, so every
  /// deduped waiter wakes with the cause in hand instead of stranded on a
  /// slot that will never fill — and the erased entry leaves the key
  /// rebuildable by the next lookup (a transient failure does not poison
  /// the block).
  struct Slot {
    std::shared_ptr<const GeometryBlock> block;  ///< null while building
    std::exception_ptr error;  ///< set iff the build threw; rethrown by waiters
    std::list<Key>::iterator lru;  ///< valid only when resident
  };

  static std::uint64_t key_hash(const Key& key) noexcept;

  void touch_locked(Slot& slot, const Key& key) PLS_REQUIRES(mu_);
  /// Bytes of resident smaller-radius blocks over `key`'s centers — strict
  /// prefixes a new radius-t block would supersede.
  std::size_t reclaimable_prefix_bytes_locked(const Key& key) const
      PLS_REQUIRES(mu_);
  /// Drops those prefix blocks (call only when the superseding block is
  /// being admitted — a bypassed contender must not evict anything).
  void retire_prefixes_locked(const Key& key) PLS_REQUIRES(mu_);
  /// One lookup's sketch record, aged on the derived cadence: a halving
  /// every max(kMinAgingPeriod, 10 x resident entries) records.
  void record_locked(const Key& key) PLS_REQUIRES(mu_);
  /// Admission decision: admits if the block fits (counting reclaimable
  /// prefix bytes); otherwise walks would-be LRU victims back to front and
  /// admits only if every victim needed for room has a lower sketch
  /// estimate than the contender (otherwise ++sketch_rejects).  Decision
  /// only — the same victims it approved are what evict_for_locked pops.
  bool admit_tinylfu_locked(const Key& key, std::size_t needed,
                            std::size_t reclaimable) PLS_REQUIRES(mu_);
  /// Evicts LRU victims until `needed` more bytes fit under the budget.
  void evict_for_locked(std::size_t needed) PLS_REQUIRES(mu_);
  void charge_locked(unsigned t, std::size_t bytes) PLS_REQUIRES(mu_);
  void discharge_locked(unsigned t, std::size_t bytes) PLS_REQUIRES(mu_);

  const AtlasOptions options_;

  mutable util::Mutex mu_;
  util::CondVar built_cv_;  ///< signals: an in-flight build landed
  std::map<Key, std::shared_ptr<Slot>> entries_ PLS_GUARDED_BY(mu_);
  std::list<Key> lru_ PLS_GUARDED_BY(mu_);  ///< front = most recently used
  FrequencySketch sketch_ PLS_GUARDED_BY(mu_);
  AtlasStats stats_ PLS_GUARDED_BY(mu_);
};

}  // namespace pls::radius

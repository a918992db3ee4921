// Stage 1 of the verification pipeline: the geometry atlas.
//
// Ball geometry (BFS layers + ball-internal CSR) depends only on the graph
// and the radius — never on certificates, states, or visibility — yet the
// pre-atlas engine rebuilt it on every run.  Exactly the workloads the
// tradeoff experiments care about re-verify thousands of labelings against
// ONE topology (the adversary's hill-climb, the large-t sweeps), so geometry
// is the textbook shared artifact: build once, serve every verifier and
// thread slot.
//
// GeometryAtlas is a memory-budgeted, LRU-evicting cache of GeometryStore
// blocks:
//
//   * Block granularity.  One entry covers a contiguous run of centers
//     (AtlasOptions::block_centers) built in a single BFS sweep with shared
//     scratch — per-ball entries would drown in map overhead, and sweeps
//     touch centers in index order anyway.
//   * Key = (graph epoch, radius, block index), matched exactly.  The graph
//     epoch (graph::Graph::epoch) is process-unique per built graph, so one
//     atlas safely serves any number of configurations over any number of
//     graphs.  A verifier runs at one radius t, so a lookup at t is served
//     only by a block built at t.
//   * Budget + plain LRU.  Resident bytes never exceed the configured
//     budget: a built block is admitted whenever it fits in the budget at
//     all, evicting least-recently-used blocks to make room; a block larger
//     than the whole budget is returned un-cached (stats.bypassed).
//     Returned blocks are shared_ptr-pinned — eviction never invalidates a
//     block a sweep still holds, it only stops the atlas from accounting
//     it.  byte_budget = 0 is the degenerate rebuild-every-run atlas (the
//     benchmark baseline).
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
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace pls::radius {

struct AtlasOptions {
  /// Resident-byte ceiling, never exceeded; 0 caches nothing (every lookup
  /// rebuilds — the benchmark's rebuild baseline).  The default holds the
  /// flagship workload (t = 8 over bench_verify_scale's n = 4096 random
  /// graph, 0.38 GB) entirely.
  std::size_t byte_budget = std::size_t{512} << 20;
  /// Centers per block: the build/eviction granule.
  std::uint32_t block_centers = 64;
};

struct AtlasStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;       ///< == blocks built
  std::uint64_t evictions = 0;
  std::uint64_t bypassed = 0;     ///< built but larger than the budget
  /// Always 0: no admission policy rejects a block that fits.  Kept only
  /// because prooflab-bench still reads it.
  std::uint64_t sketch_rejects = 0;
  std::uint64_t build_ns = 0;  ///< wall time spent building blocks
  /// Wall time lookups spent blocked on ANOTHER thread's in-flight build of
  /// the block they wanted — the convoy gauge: slots that waited here were
  /// busy without building anything.
  std::uint64_t wait_ns = 0;
  std::size_t bytes_in_use = 0;
  std::size_t peak_bytes = 0;

  double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }

  /// Phase accounting: the traffic between `earlier` and this snapshot.
  /// Replaces the retired reset()/reset_stats() pair — diffing two stats()
  /// snapshots cannot tear a phase boundary for sweeps still running, while
  /// a reset concurrent with traffic silently misattributed it.  The level
  /// fields keep their later values (bytes_in_use is live residency;
  /// peak_bytes stays the lifetime peak).
  AtlasStats since(const AtlasStats& earlier) const noexcept {
    AtlasStats out = *this;
    out.hits -= earlier.hits;
    out.misses -= earlier.misses;
    out.evictions -= earlier.evictions;
    out.bypassed -= earlier.bypassed;
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

  /// Geometry of `center`'s radius() ball.
  GeometryView ball(graph::NodeIndex center) const {
    PLS_REQUIRE(covers(center));
    return store_.view(center - first_);
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

  void touch_locked(Slot& slot) PLS_REQUIRES(mu_);
  /// Evicts LRU victims until `needed` more bytes fit under the budget.
  void evict_for_locked(std::size_t needed) PLS_REQUIRES(mu_);

  const AtlasOptions options_;

  mutable util::Mutex mu_;
  util::CondVar built_cv_;  ///< signals: an in-flight build landed
  std::map<Key, std::shared_ptr<Slot>> entries_ PLS_GUARDED_BY(mu_);
  std::list<Key> lru_ PLS_GUARDED_BY(mu_);  ///< front = most recently used
  AtlasStats stats_ PLS_GUARDED_BY(mu_);
};

}  // namespace pls::radius

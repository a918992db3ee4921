#include "radius/atlas.hpp"

#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/failpoint.hpp"

namespace pls::radius {

GeometryBlock::GeometryBlock(const graph::Graph& g,
                             graph::NodeIndex first_center,
                             graph::NodeIndex end_center, unsigned t)
    : first_(first_center), end_(end_center) {
  PLS_REQUIRE(first_center < end_center);
  PLS_REQUIRE(end_center <= g.n());
  graph::VisitEpochSet scratch;
  std::vector<graph::NodeIndex> frontier;
  for (graph::NodeIndex c = first_center; c < end_center; ++c)
    store_.build_center(g, c, t, scratch, frontier);
  store_.shrink_to_fit();
}

namespace {

/// Floor of the sketch's aging period: a near-empty cache must not halve
/// every few lookups and forget the frequencies admission compares.
constexpr std::uint64_t kMinAgingPeriod = 64;

}  // namespace

GeometryAtlas::GeometryAtlas(AtlasOptions options) : options_(options) {
  PLS_REQUIRE(options_.block_centers >= 1);
}

std::uint64_t GeometryAtlas::key_hash(const Key& key) noexcept {
  // Distinct multipliers keep (epoch, index, t) triples from aliasing under
  // xor; the sketch's own splitmix finalizer does the real mixing.
  return key.graph_epoch * 0x9E3779B97F4A7C15ull ^
         std::uint64_t{key.block_index} * 0xC2B2AE3D27D4EB4Full ^
         std::uint64_t{key.t} * 0x165667B19E3779F9ull;
}

std::shared_ptr<const GeometryBlock> GeometryAtlas::block(
    const graph::Graph& g, unsigned t, graph::NodeIndex center) {
  PLS_REQUIRE(t >= 1);
  PLS_REQUIRE(center < g.n());
  // The lookup span covers the whole resolution — including any wait on an
  // in-flight build and a nested "atlas.build" on the miss path — because
  // that is the latency a sweep slot actually pays at a block boundary.
  PLS_TRACE_SPAN("atlas.lookup", center);
  const std::uint32_t index = center / options_.block_centers;
  const Key wanted{g.epoch(), index, t};

  util::MutexLock lock(mu_);
  // The sketch sees every lookup, hit or miss: admission compares the
  // contender's access frequency against victims', and both sides earn
  // their counts here.
  record_locked(wanted);
  while (true) {
    // Any resident block over the same centers with radius >= t serves the
    // lookup (smaller radii are prefixes); the map order makes the smallest
    // such radius the lower bound.
    auto it = entries_.lower_bound(wanted);
    if (it != entries_.end() && it->first.graph_epoch == wanted.graph_epoch &&
        it->first.block_index == wanted.block_index) {
      if (it->second->block == nullptr) {
        // In flight on another thread.  Hold the slot itself: even if the
        // finished block is bypassed by the budget (and its entry erased),
        // the builder hands it to us through the slot — in-flight dedup
        // must never degenerate into serialized rebuilds of one block.
        const std::shared_ptr<Slot> pending = it->second;
        while (pending->block == nullptr && pending->error == nullptr)
          built_cv_.wait(lock);
        if (pending->block != nullptr) {
          ++stats_.hits;
          return pending->block;
        }
        // The build failed: the builder published its exception through the
        // slot and erased the entry, so the key stays rebuildable — but THIS
        // wave of deduped callers all fail with the build's cause rather
        // than queueing up to repeat a build that just proved it can throw.
        std::rethrow_exception(pending->error);
      }
      ++stats_.hits;
      touch_locked(*it->second, it->first);
      // A prefix-serve hit is a use of the RESIDENT block: credit its key
      // too, or a larger-radius block serving smaller-t traffic would look
      // cold to admission despite carrying all of it.
      if (it->first.t != wanted.t) record_locked(it->first);
      return it->second->block;
    }

    // Miss: claim the build, construct outside the lock.
    ++stats_.misses;
    auto [slot_it, inserted] =
        entries_.emplace(wanted, std::make_shared<Slot>());
    PLS_ASSERT(inserted);
    lock.unlock();

    const auto first =
        static_cast<graph::NodeIndex>(index * options_.block_centers);
    const auto end = static_cast<graph::NodeIndex>(
        std::min<std::size_t>(std::size_t{first} + options_.block_centers,
                              g.n()));
    std::shared_ptr<const GeometryBlock> built;
    try {
      PLS_TRACE_SPAN("atlas.build", index);
      // Chaos site: Action::kBadAlloc simulates the build OOMing — the
      // waiter-wakeup contract below is what the chaos suite regresses.
      PLS_FAILPOINT("radius.atlas.build");
      built = std::make_shared<const GeometryBlock>(g, first, end, t);
    } catch (...) {
      lock.lock();
      // Wake every deduped waiter WITH the failure (slot outlives the map
      // entry), and erase the entry so a later lookup may rebuild.
      slot_it->second->error = std::current_exception();
      entries_.erase(slot_it);
      built_cv_.notify_all();
      throw;
    }

    lock.lock();
    // Publish to any waiters first (through the shared slot), then decide
    // residency.  Admission is decided BEFORE retiring the smaller-radius
    // blocks this one supersedes: a bypassed contender must not evict
    // anything.
    slot_it->second->block = built;
    const std::size_t reclaimable = reclaimable_prefix_bytes_locked(wanted);
    if (admit_tinylfu_locked(wanted, built->bytes(), reclaimable)) {
      retire_prefixes_locked(wanted);
      evict_for_locked(built->bytes());
      lru_.push_front(wanted);
      slot_it->second->lru = lru_.begin();
      charge_locked(wanted.t, built->bytes());
    } else {
      // Rejected contender: hand the pinned block to the caller (and the
      // waiters) without caching it, so a cyclic sweep larger than the
      // budget keeps a stable resident subset instead of churning
      // everything to a 0% hit rate.
      entries_.erase(slot_it);
      ++stats_.bypassed;
    }
    built_cv_.notify_all();
    return built;
  }
}

void GeometryAtlas::touch_locked(Slot& slot, const Key& key) {
  (void)key;
  lru_.splice(lru_.begin(), lru_, slot.lru);
}

std::size_t GeometryAtlas::reclaimable_prefix_bytes_locked(
    const Key& key) const {
  std::size_t bytes = 0;
  auto it = entries_.lower_bound(Key{key.graph_epoch, key.block_index, 0});
  for (; it != entries_.end() && it->first.graph_epoch == key.graph_epoch &&
         it->first.block_index == key.block_index && it->first.t < key.t;
       ++it)
    if (it->second->block != nullptr) bytes += it->second->block->bytes();
  return bytes;
}

void GeometryAtlas::retire_prefixes_locked(const Key& key) {
  // A radius-t block strictly dominates every resident smaller-radius block
  // over the same centers (they are prefixes of it), so admitting the new
  // one must not leave the duplicates charged against the budget.
  auto it = entries_.lower_bound(Key{key.graph_epoch, key.block_index, 0});
  while (it != entries_.end() && it->first.graph_epoch == key.graph_epoch &&
         it->first.block_index == key.block_index && it->first.t < key.t) {
    if (it->second->block == nullptr) {  // another thread's in-flight build
      ++it;
      continue;
    }
    discharge_locked(it->first.t, it->second->block->bytes());
    lru_.erase(it->second->lru);
    it = entries_.erase(it);
    ++stats_.evictions;
  }
}

void GeometryAtlas::record_locked(const Key& key) {
  // W-TinyLFU's sample size: ~10x the cache capacity in entries.  A full
  // cache's resident count IS its capacity, so the cadence tracks the
  // budget and the block size without a knob; while the cache fills, the
  // period grows with it, and admission never consults the sketch anyway.
  const std::uint64_t resident = lru_.size();
  const std::uint64_t period = std::max(kMinAgingPeriod, 10 * resident);
  sketch_.record(key_hash(key), period);
}

bool GeometryAtlas::admit_tinylfu_locked(const Key& key, std::size_t needed,
                                         std::size_t reclaimable) {
  if (needed > options_.byte_budget) return false;  // can never fit
  const std::size_t in_use = stats_.bytes_in_use - reclaimable;
  if (in_use + needed <= options_.byte_budget) return true;
  // Full: the contender must out-score every LRU victim it needs to
  // displace.  Walk the same back-to-front order evict_for_locked pops in,
  // accumulating freeable bytes; the first victim at least as popular as
  // the contender vetoes the whole admission (evicting a hotter block for
  // a colder one can only lower hit rate).
  const std::uint32_t contender = sketch_.estimate(key_hash(key));
  std::size_t freeable = 0;
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    if (in_use + needed <= options_.byte_budget + freeable) break;
    // Smaller-radius blocks over the contender's own centers are already
    // counted as reclaimable (retired on admit, not LRU-evicted).
    if (it->graph_epoch == key.graph_epoch &&
        it->block_index == key.block_index && it->t < key.t)
      continue;
    if (sketch_.estimate(key_hash(*it)) >= contender) {
      ++stats_.sketch_rejects;
      return false;
    }
    const auto entry = entries_.find(*it);
    PLS_ASSERT(entry != entries_.end() && entry->second->block != nullptr);
    freeable += entry->second->block->bytes();
  }
  return in_use + needed <= options_.byte_budget + freeable;
}

void GeometryAtlas::evict_for_locked(std::size_t needed) {
  PLS_TRACE_SPAN("atlas.evict", needed);
  while (stats_.bytes_in_use + needed > options_.byte_budget &&
         !lru_.empty()) {
    const Key victim = lru_.back();
    lru_.pop_back();
    auto it = entries_.find(victim);
    PLS_ASSERT(it != entries_.end() && it->second->block != nullptr);
    discharge_locked(victim.t, it->second->block->bytes());
    entries_.erase(it);  // holders' shared_ptrs keep the block alive
    ++stats_.evictions;
  }
  PLS_ASSERT(stats_.bytes_in_use + needed <= options_.byte_budget);
}

void GeometryAtlas::charge_locked(unsigned t, std::size_t bytes) {
  stats_.bytes_in_use += bytes;
  stats_.peak_bytes = std::max(stats_.peak_bytes, stats_.bytes_in_use);
  auto& rb = stats_.by_radius[t];
  rb.bytes_in_use += bytes;
  rb.peak_bytes = std::max(rb.peak_bytes, rb.bytes_in_use);
}

void GeometryAtlas::discharge_locked(unsigned t, std::size_t bytes) {
  PLS_ASSERT(stats_.bytes_in_use >= bytes);
  stats_.bytes_in_use -= bytes;
  auto it = stats_.by_radius.find(t);
  PLS_ASSERT(it != stats_.by_radius.end() && it->second.bytes_in_use >= bytes);
  it->second.bytes_in_use -= bytes;
}

AtlasStats GeometryAtlas::stats() const {
  util::MutexLock lock(mu_);
  return stats_;
}

}  // namespace pls::radius

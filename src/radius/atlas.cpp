#include "radius/atlas.hpp"

#include "obs/metrics.hpp"
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

GeometryAtlas::GeometryAtlas(AtlasOptions options) : options_(options) {
  PLS_REQUIRE(options_.block_centers >= 1);
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
  if (const auto it = entries_.find(wanted); it != entries_.end()) {
    if (it->second->block == nullptr) {
      // In flight on another thread.  Hold the slot itself: even if the
      // finished block is bypassed by the budget (and its entry erased),
      // the builder hands it to us through the slot — in-flight dedup
      // must never degenerate into serialized rebuilds of one block.
      const std::shared_ptr<Slot> pending = it->second;
      const std::uint64_t wait_start = obs::steady_now_ns();
      while (pending->block == nullptr && pending->error == nullptr)
        built_cv_.wait(lock);
      stats_.wait_ns += obs::steady_now_ns() - wait_start;
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
    touch_locked(*it->second);
    return it->second->block;
  }

  // Miss: claim the build, construct outside the lock.
  ++stats_.misses;
  auto [slot_it, inserted] = entries_.emplace(wanted, std::make_shared<Slot>());
  PLS_ASSERT(inserted);
  lock.unlock();

  const auto first =
      static_cast<graph::NodeIndex>(index * options_.block_centers);
  const auto end = static_cast<graph::NodeIndex>(std::min<std::size_t>(
      std::size_t{first} + options_.block_centers, g.n()));
  std::shared_ptr<const GeometryBlock> built;
  const std::uint64_t build_start = obs::steady_now_ns();
  try {
    PLS_TRACE_SPAN("atlas.build", index);
    // Chaos site: Action::kBadAlloc simulates the build OOMing — the
    // waiter-wakeup contract below is what the chaos suite regresses.
    PLS_FAILPOINT("radius.atlas.build");
    built = std::make_shared<const GeometryBlock>(g, first, end, t);
  } catch (...) {
    const std::uint64_t build_ns = obs::steady_now_ns() - build_start;
    lock.lock();
    stats_.build_ns += build_ns;
    // Wake every deduped waiter WITH the failure (slot outlives the map
    // entry), and erase the entry so a later lookup may rebuild.
    slot_it->second->error = std::current_exception();
    entries_.erase(slot_it);
    built_cv_.notify_all();
    throw;
  }

  const std::uint64_t build_ns = obs::steady_now_ns() - build_start;
  lock.lock();
  stats_.build_ns += build_ns;
  // Publish to any waiters first (through the shared slot), then decide
  // residency: a block that fits in the budget at all is admitted.
  slot_it->second->block = built;
  if (built->bytes() <= options_.byte_budget) {
    evict_for_locked(built->bytes());
    lru_.push_front(wanted);
    slot_it->second->lru = lru_.begin();
    stats_.bytes_in_use += built->bytes();
    stats_.peak_bytes = std::max(stats_.peak_bytes, stats_.bytes_in_use);
  } else {
    // Larger than the whole budget: hand the pinned block to the caller
    // (and the waiters) without caching it.
    entries_.erase(slot_it);
    ++stats_.bypassed;
  }
  built_cv_.notify_all();
  return built;
}

void GeometryAtlas::touch_locked(Slot& slot) {
  lru_.splice(lru_.begin(), lru_, slot.lru);
}

void GeometryAtlas::evict_for_locked(std::size_t needed) {
  PLS_TRACE_SPAN("atlas.evict", needed);
  while (stats_.bytes_in_use + needed > options_.byte_budget &&
         !lru_.empty()) {
    const Key victim = lru_.back();
    lru_.pop_back();
    auto it = entries_.find(victim);
    PLS_ASSERT(it != entries_.end() && it->second->block != nullptr);
    PLS_ASSERT(stats_.bytes_in_use >= it->second->block->bytes());
    stats_.bytes_in_use -= it->second->block->bytes();
    entries_.erase(it);  // holders' shared_ptrs keep the block alive
    ++stats_.evictions;
  }
  PLS_ASSERT(stats_.bytes_in_use + needed <= options_.byte_budget);
}

AtlasStats GeometryAtlas::stats() const {
  util::MutexLock lock(mu_);
  return stats_;
}

}  // namespace pls::radius

#include "radius/batch.hpp"

#include <algorithm>

#include "graph/bfs_core.hpp"
#include "obs/trace.hpp"
#include "pls/engine.hpp"
#include "util/assert.hpp"
#include "util/failpoint.hpp"

namespace pls::radius {

BatchVerifier::BatchVerifier(const core::Scheme& scheme,
                             const local::Configuration& cfg, unsigned t,
                             BatchOptions options)
    : scheme_(scheme),
      ball_scheme_(dynamic_cast<const BallScheme*>(&scheme)),
      cfg_(cfg),
      t_(t),
      atlas_(options.atlas != nullptr
                 ? std::move(options.atlas)
                 : std::make_shared<GeometryAtlas>()) {
  PLS_REQUIRE(t >= 1);
  if (ball_scheme_ != nullptr) PLS_REQUIRE(t >= ball_scheme_->radius());
  pool_ = options.pool != nullptr
              ? std::move(options.pool)
              : std::make_shared<util::ThreadPool>(
                    options.threads == 0 ? util::ThreadPool::hardware_threads()
                                         : options.threads);
  PLS_REQUIRE(options.threads == 0 ||
              options.threads == pool_->thread_count());
  slots_.resize(pool_->thread_count());
  if (options.metrics != nullptr) {
    obs::MetricsRegistry& m = *options.metrics;
    metrics_.labelings = &m.counter("verify.labelings");
    metrics_.e2e = &m.histogram("verify.e2e_ns");
    metrics_.parse = &m.histogram("verify.parse_link_ns");
    metrics_.sweep = &m.histogram("verify.sweep_window_ns");
    metrics_.delta_e2e = &m.histogram("delta.e2e_ns");
    metrics_.delta_parse = &m.histogram("delta.reparse_link_ns");
    metrics_.delta_collect = &m.histogram("delta.collect_ns");
    metrics_.delta_sweep = &m.histogram("delta.resweep_ns");
    metrics_.sweep_chunks = &m.counter("verify.sweep_chunks");
    metrics_.sweep_steals = &m.counter("verify.sweep_steals");
    metrics_.worker_busy = &m.histogram("verify.worker_busy_ns");
    metrics_.witnesses = &m.counter("verify.witnesses");
    metrics_.clean_centers = &m.counter("verify.clean_centers");
  }
}

void BatchVerifier::parse_link(const core::Labeling& labeling) {
  const std::size_t n = cfg_.n();
  // Each entry is overwritten inside the parallel parse, which frees the
  // previous labeling's parse there instead of in one serial clear().  An
  // abandoned parse leaves old and new entries mixed; no resident state
  // survives it.
  parsed_.resize(n);
  // A range job like the sweep's, but not a sweep: sweep() records the
  // RangeStats of its own job only.  An expired request stops at the next
  // parse chunk, as it does in the sweep.
  pool_->for_range(
      n,
      [&](unsigned, std::size_t begin, std::size_t end) {
        for (std::size_t v = begin; v < end; ++v) {
          PLS_FAILPOINT("radius.parse");
          parsed_[v] = ball_scheme_->parse_cert(labeling.certs[v]);
        }
      },
      util::RangeOptions{.cancel = cancel_});
  // Link phase: intern the parses' link keys into small dense ids;
  // single-threaded, the sweep workers only read the linked parses.  The
  // table persists in the verifier, so ANY full run leaves one a later
  // run_delta can relink against.
  link_.link(parsed_);
  // Memo phase: the scheme's per-labeling facts and witnesses, read only by
  // this run's sweep.
  const std::optional<std::vector<graph::NodeIndex>> witnesses = [&] {
    PLS_TRACE_SPAN("parse.memo", n);
    PLS_FAILPOINT("radius.memo");
    return ball_scheme_->memoize(cfg_.graph(), parsed_);
  }();
  if (!witnesses.has_value()) {
    clean_.assign(n, 0);  // no clean path: every center runs verify_ball
    return;
  }
  // The clean set: every center farther than the scheme's radius from all
  // witnesses, by one multi-source BFS from them.
  PLS_TRACE_SPAN("parse.witness", witnesses->size());
  clean_.assign(n, 1);
  std::size_t clean = n;
  if (!witnesses->empty()) {
    graph::layered_bfs(cfg_.graph(), *witnesses, ball_scheme_->radius(),
                       reach_seen_, reached_, graph::ReachVisitor{});
    for (const graph::NodeIndex v : reached_) clean_[v] = 0;
    clean -= reached_.size();
  }
  if (metrics_.witnesses != nullptr) {
    metrics_.witnesses->add(witnesses->size());
    metrics_.clean_centers->add(clean);
  }
}

util::ThreadPool::RangeFn BatchVerifier::sweep_fn(
    const core::Labeling& labeling,
    std::span<const graph::NodeIndex> centers) {
  // Empty `centers` = the identity map over [0, n) (the full sweep); a
  // non-empty SORTED list re-sweeps exactly those centers (the delta
  // path).  Sortedness is what keeps the block walk below incremental: a
  // contiguous chunk re-requests a block only at block boundaries.
  const auto center_of = [centers](std::size_t i) {
    return centers.empty() ? static_cast<graph::NodeIndex>(i) : centers[i];
  };
  const std::span<std::uint8_t> accept = accept_;

  if (ball_scheme_ == nullptr) {
    // Plain 1-round scheme: the shared per-node routine, per-slot scratch.
    return [this, &labeling, center_of, accept](
               unsigned worker, std::size_t begin, std::size_t end) {
      PLS_TRACE_SPAN("sweep.slot", worker);
      std::vector<local::NeighborView>& scratch = slots_[worker].views;
      for (std::size_t i = begin; i < end; ++i) {
        const graph::NodeIndex v = center_of(i);
        accept[v] = core::detail::verify_one_round_at(scheme_, cfg_, labeling,
                                                      v, scratch);
      }
    };
  }

  const unsigned radius = ball_scheme_->radius();
  const local::Visibility mode = scheme_.visibility();
  return [this, &labeling, center_of, accept, radius, mode](
             unsigned worker, std::size_t begin, std::size_t end) {
    PLS_TRACE_SPAN("sweep.slot", worker);
    const graph::Graph& g = cfg_.graph();
    Slot& slot = slots_[worker];
    // The shared_ptr pins the current block across the chunk even if the
    // atlas evicts it meanwhile.
    std::shared_ptr<const GeometryBlock> block;
    for (std::size_t i = begin; i < end; ++i) {
      const graph::NodeIndex v = center_of(i);
      if (clean_[v]) {
        accept[v] = ball_scheme_->verify_memoized(cfg_, v, parsed_);
        continue;
      }
      if (block == nullptr || !block->covers(v))
        block = atlas_->block(g, radius, v);
      slot.view.bind(block->ball(v, radius), cfg_, labeling, mode);
      const RadiusContext ctx(slot.view, g.id(v), cfg_.state(v),
                              labeling.certs[v], mode, cfg_.n(), parsed_);
      accept[v] = ball_scheme_->verify_ball(ctx);
    }
  };
}

void BatchVerifier::sweep(const core::Labeling& labeling,
                          std::span<const graph::NodeIndex> centers) {
  if (centers.empty()) {
    accept_.assign(cfg_.n(), 0);
  } else {
    PLS_ASSERT(accept_.size() == cfg_.n());
  }
  const auto record = [this] {
    if (metrics_.sweep_chunks == nullptr) return;  // no registry supplied
    const util::RangeStats& stats = pool_->last_range_stats();
    metrics_.sweep_chunks->add(stats.chunks);
    metrics_.sweep_steals->add(stats.steals);
    for (const std::uint64_t busy : stats.worker_busy_ns)
      metrics_.worker_busy->record(busy);
  };
  // A ball scheme's full sweep claims exactly one atlas block per chunk, so
  // concurrent slots build distinct cold blocks instead of queueing behind
  // one builder.  The dirty re-sweep and plain 1-round schemes keep the
  // pool's chunk heuristic.  The token rides into the claim loop: an
  // expired request abandons its sweep at the next chunk boundary instead
  // of finishing a labeling nobody is waiting for.
  const util::RangeOptions range{
      .chunk = ball_scheme_ != nullptr && centers.empty()
                   ? atlas_->options().block_centers
                   : 0,
      .cancel = cancel_};
  try {
    pool_->for_range(centers.empty() ? cfg_.n() : centers.size(),
                     sweep_fn(labeling, centers), range);
  } catch (...) {
    record();  // the pool assembles RangeStats before it rethrows
    throw;
  }
  record();
}

core::Verdict BatchVerifier::verdict() const {
  return core::Verdict(std::vector<bool>(accept_.begin(), accept_.end()));
}

core::Verdict BatchVerifier::run_one(const core::Labeling& labeling) {
  PLS_REQUIRE(labeling.size() == cfg_.n());
  // Cancellation observed before any buffer is touched leaves the resident
  // state intact; once past this point an abandoned run clears it like any
  // other throwing run.
  if (cancel_ != nullptr && cancel_->cancelled()) throw util::CancelledError();
  // verify.e2e_ns: the whole full run — stage 2, the sweep, and verdict
  // assembly.
  obs::ScopedTimer e2e_timer(metrics_.e2e);

  // The buffers are about to be rewritten; should anything below throw, no
  // delta may build on them until a full run completes again.
  resident_valid_ = false;
  if (ball_scheme_ != nullptr) {
    PLS_TRACE_SPAN("parse.link", cfg_.n());
    obs::ScopedTimer parse_timer(metrics_.parse);
    parse_link(labeling);
  }
  if (metrics_.labelings != nullptr) metrics_.labelings->add(1);
  {
    PLS_TRACE_SPAN("sweep.window", cfg_.n());
    obs::ScopedTimer sweep_timer(metrics_.sweep);
    sweep(labeling, {});
  }

  // The parse cache and verdict bytes stay behind as the resident state
  // run_delta mutates in place.
  resident_valid_ = true;
  return verdict();
}

core::Verdict BatchVerifier::run_delta(const core::Labeling& next,
                                       const LabelingDelta& delta) {
  const std::size_t n = cfg_.n();
  PLS_REQUIRE(next.size() == n);
  PLS_REQUIRE(resident_valid_);  // a delta needs a full run to build on
  for (const graph::NodeIndex v : delta.touched) PLS_REQUIRE(v < n);
  ++delta_stats_.delta_runs;
  PLS_TRACE_SPAN("delta.run", delta.touched.size());
  obs::ScopedTimer e2e_timer(metrics_.delta_e2e);

  if (delta.touched.empty()) {
    // Nothing differs from the resident labeling: no parse, no link, no
    // sweep — the verdict is the resident one, re-counted fresh (Verdict
    // caches its rejection count per object, so the splice never carries a
    // stale count).
    ++delta_stats_.empty_runs;
    return verdict();
  }

  // Cancellation observed here — before any mutation — leaves the resident
  // base valid; past this point an abandoned delta invalidates it and the
  // next run must be a full one.
  if (cancel_ != nullptr && cancel_->cancelled()) throw util::CancelledError();

  // The resident buffers are inconsistent while we mutate them; they become
  // a valid delta base again only when this run completes.
  resident_valid_ = false;

  // Stage 2, incremental: re-parse exactly the touched certificates into
  // the resident cache (clean entries carry forward across the labeling
  // boundary), then re-link them against the verifier's LinkTable, whose
  // stable ids keep carried-forward parses comparable with fresh ones.
  if (ball_scheme_ != nullptr) {
    PLS_TRACE_SPAN("delta.reparse", delta.touched.size());
    obs::ScopedTimer parse_timer(metrics_.delta_parse);
    PLS_ASSERT(parsed_.size() == n);
    for (const graph::NodeIndex v : delta.touched) {
      PLS_FAILPOINT("radius.parse");
      parsed_[v] = ball_scheme_->parse_cert(next.certs[v]);
    }
    delta_stats_.certs_reparsed += delta.touched.size();
    link_.relink(parsed_, delta.touched);
    ++delta_stats_.links_incremental;
    delta_stats_.link_reseeds = link_.reseeds();
  }

  // Stage 3, dirty-center sweep: only centers whose decoding radius reaches
  // a touched node can change verdict; everyone else's is spliced from the
  // resident bytes untouched.  Hop distance is symmetric, so the dirty
  // centers are the nodes within that radius of a touched node: one
  // multi-source BFS, like the clean set's.  Plain 1-round decoders read
  // layer 1 only, so their dirty radius is 1 whatever t the verifier is
  // bound to.  Sorted, so each contiguous sweep chunk walks its atlas blocks
  // in index order.
  const unsigned dirty_radius =
      ball_scheme_ != nullptr ? ball_scheme_->radius() : 1u;
  {
    PLS_TRACE_SPAN("delta.collect", delta.touched.size());
    obs::ScopedTimer collect_timer(metrics_.delta_collect);
    graph::layered_bfs(cfg_.graph(), delta.touched, dirty_radius, reach_seen_,
                       reached_, graph::ReachVisitor{});
    std::sort(reached_.begin(), reached_.end());
  }
  const std::span<const graph::NodeIndex> dirty = reached_;
  // Every dirty center's ball holds a touched node, whose fresh parse
  // carries no memo: it leaves the clean set and re-sweeps on verify_ball.
  if (ball_scheme_ != nullptr)
    for (const graph::NodeIndex v : dirty) clean_[v] = 0;
  delta_stats_.centers_reswept += dirty.size();
  delta_stats_.verdicts_carried += n - dirty.size();
  {
    PLS_TRACE_SPAN("delta.resweep", dirty.size());
    obs::ScopedTimer sweep_timer(metrics_.delta_sweep);
    if (!dirty.empty()) sweep(next, dirty);
  }

  resident_valid_ = true;
  return verdict();
}

}  // namespace pls::radius

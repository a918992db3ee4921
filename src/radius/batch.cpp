#include "radius/batch.hpp"

#include "obs/trace.hpp"
#include "pls/engine.hpp"
#include "util/assert.hpp"

namespace pls::radius {

BatchVerifier::BatchVerifier(const core::Scheme& scheme,
                             const local::Configuration& cfg, unsigned t,
                             BatchOptions options)
    : scheme_(scheme),
      ball_scheme_(dynamic_cast<const BallScheme*>(&scheme)),
      cfg_(cfg),
      t_(t),
      threads_(options.threads == 0 ? util::ThreadPool::hardware_threads()
                                    : options.threads),
      atlas_(options.atlas != nullptr
                 ? std::move(options.atlas)
                 : std::make_shared<GeometryAtlas>()) {
  PLS_REQUIRE(t >= 1);
  if (ball_scheme_ != nullptr) PLS_REQUIRE(t >= ball_scheme_->radius());
  pool_ = std::make_unique<util::ThreadPool>(threads_);
  slots_.resize(threads_);
  // Per-verifier incremental-link state (null = scheme has no relink hook;
  // delta runs then fall back to a full link_parses pass).
  if (ball_scheme_ != nullptr && ball_scheme_->has_cert_parser())
    link_state_ = ball_scheme_->make_link_state();
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
  }
}

void BatchVerifier::finish_sweep() {
  const auto record = [this] {
    if (metrics_.sweep_chunks == nullptr) return;  // no registry supplied
    const util::RangeStats& stats = pool_->last_range_stats();
    metrics_.sweep_chunks->add(stats.chunks);
    metrics_.sweep_steals->add(stats.steals);
    for (const std::uint64_t busy : stats.worker_busy_ns)
      metrics_.worker_busy->record(busy);
  };
  try {
    pool_->finish_range();
  } catch (...) {
    record();  // the pool assembles RangeStats before it rethrows
    throw;
  }
  record();
}

void BatchVerifier::parse_link(const core::Labeling& labeling,
                               ParsedLabeling& out, bool parallel) {
  const std::size_t n = cfg_.n();
  out.pins.clear();  // the half's previous labeling is gone either way
  out.storage.clear();
  out.storage.resize(n);
  out.view.assign(n, nullptr);
  const auto parse_chunk = [&](unsigned, std::size_t begin, std::size_t end) {
    for (std::size_t v = begin; v < end; ++v) {
      out.storage[v] = ball_scheme_->parse_cert(labeling.certs[v]);
      out.view[v] = out.storage[v].get();
    }
  };
  if (parallel) {
    // A range job like the sweep's, but not a sweep: its RangeStats are
    // overwritten by the next sweep before finish_sweep records any.
    pool_->for_range(n, parse_chunk);
  } else {
    parse_chunk(0, 0, n);
  }
  // Link phase: intern payloads repeated across the per-node parses into
  // small dense ids; single-threaded, the sweep workers only read the
  // linked parses.  With incremental-link support the full link goes
  // through the verifier's persistent LinkState (same observable ids), so
  // ANY full run leaves a table a later run_delta can relink against.
  if (link_state_ != nullptr) {
    ball_scheme_->link_parses_stateful(*link_state_, out.storage);
  } else {
    ball_scheme_->link_parses(out.storage);
  }
}

util::ThreadPool::RangeFn BatchVerifier::sweep_fn(
    const core::Labeling& labeling, const ParsedLabeling& parsed,
    std::span<const graph::NodeIndex> centers,
    std::vector<std::uint8_t>& accept) {
  // Empty `centers` = the identity map over [0, n) (the full sweep); a
  // non-empty SORTED list re-sweeps exactly those centers (the delta
  // path).  Sortedness is what keeps the block walk below incremental: a
  // contiguous chunk re-requests a block only at block boundaries.
  const auto center_of = [centers](std::size_t i) {
    return centers.empty() ? static_cast<graph::NodeIndex>(i) : centers[i];
  };

  if (ball_scheme_ == nullptr) {
    // Plain 1-round scheme: the shared per-node routine, per-slot scratch.
    return [this, &labeling, &accept, center_of](unsigned worker,
                                                 std::size_t begin,
                                                 std::size_t end) {
      PLS_TRACE_SPAN("sweep.slot", worker);
      std::vector<local::NeighborView>& scratch = slots_[worker].views;
      for (std::size_t i = begin; i < end; ++i) {
        const graph::NodeIndex v = center_of(i);
        accept[v] = core::detail::verify_one_round_at(scheme_, cfg_, labeling,
                                                      v, scratch);
      }
    };
  }

  const std::span<const ParsedCert* const> cache =
      ball_scheme_->has_cert_parser()
          ? std::span<const ParsedCert* const>(parsed.view)
          : std::span<const ParsedCert* const>();
  const unsigned radius = ball_scheme_->radius();
  const local::Visibility mode = scheme_.visibility();
  return [this, &labeling, &accept, center_of, cache, radius, mode](
             unsigned worker, std::size_t begin, std::size_t end) {
    PLS_TRACE_SPAN("sweep.slot", worker);
    const graph::Graph& g = cfg_.graph();
    Slot& slot = slots_[worker];
    // The shared_ptr pins the current block across the chunk even if the
    // atlas evicts it meanwhile.
    std::shared_ptr<const GeometryBlock> block;
    for (std::size_t i = begin; i < end; ++i) {
      const graph::NodeIndex v = center_of(i);
      if (block == nullptr || !block->covers(v))
        block = atlas_->block(g, radius, v);
      slot.view.bind(block->ball(v, radius), cfg_, labeling, mode);
      const RadiusContext ctx(slot.view, g.id(v), cfg_.state(v),
                              labeling.certs[v], mode, cfg_.n(), cache);
      accept[v] = ball_scheme_->verify_ball(ctx);
    }
  };
}

void BatchVerifier::post_sweep(const core::Labeling& labeling,
                               const ParsedLabeling& parsed,
                               std::span<const graph::NodeIndex> centers,
                               std::vector<std::uint8_t>& accept) {
  if (centers.empty()) {
    accept.assign(cfg_.n(), 0);
  } else {
    PLS_ASSERT(accept.size() == cfg_.n());
  }
  // The token rides into the claim loop: an expired request abandons its
  // sweep at the next chunk boundary instead of finishing a labeling nobody
  // is waiting for.
  pool_->post_range(centers.empty() ? cfg_.n() : centers.size(),
                    sweep_fn(labeling, parsed, centers, accept),
                    util::RangeOptions{.cancel = cancel_});
}

std::vector<core::Verdict> BatchVerifier::run(
    std::span<const core::Labeling> labelings,
    std::span<const BufferPin> pins) {
  const std::size_t n = cfg_.n();
  for (const core::Labeling& lab : labelings)
    PLS_REQUIRE(lab.size() == n);
  // Pin of labeling i (nullptr when the caller passed none): parked in the
  // half that parses it so the overlap window holds both buffers alive.
  const auto pin_of = [pins](std::size_t i) {
    return i < pins.size() ? pins[i] : BufferPin();
  };
  const auto install_pin = [this, &pin_of](std::size_t i) {
    ParsedLabeling& half = parsed_[i % 2];
    half.pins.clear();
    if (BufferPin pin = pin_of(i); pin != nullptr)
      half.pins.push_back(std::move(pin));
  };

  std::vector<core::Verdict> verdicts;
  verdicts.reserve(labelings.size());
  if (labelings.empty()) return verdicts;  // resident state untouched

  const bool cached =
      ball_scheme_ != nullptr && ball_scheme_->has_cert_parser();

  // Cancellation observed before any buffer is touched leaves the resident
  // state intact; once past this point an abandoned run clears it like any
  // other throwing run.
  if (cancel_ != nullptr && cancel_->cancelled()) throw util::CancelledError();

  // The buffers are about to be rewritten; should anything below throw, no
  // delta may build on them until a full run completes again.
  resident_valid_ = false;

  // Stage 2 of the first labeling has nothing to overlap with — use the
  // idle pool.  parsed_/accept_ are the double buffers: stage 2 of
  // labeling i+1 fills the half the sweep of labeling i is not reading.
  if (cached) {
    PLS_TRACE_SPAN("parse.link", 0);
    obs::ScopedTimer parse_timer(metrics_.parse);
    parse_link(labelings[0], parsed_[0], /*parallel=*/true);
  }
  install_pin(0);

  if (metrics_.labelings != nullptr) metrics_.labelings->add(labelings.size());
  for (std::size_t i = 0; i < labelings.size(); ++i) {
    // Per-labeling cancellation boundary: the pool is quiescent here (the
    // previous iteration's finish_range completed), so abandoning between
    // labelings unwinds with no job in flight.
    if (cancel_ != nullptr && cancel_->cancelled())
      throw util::CancelledError();
    // verify.e2e_ns: one labeling's wall contribution to the batch — the
    // sweep window (including the overlapped stage-2 work of labeling i+1
    // on the calling thread) plus verdict materialization.
    obs::ScopedTimer e2e_timer(metrics_.e2e);
    {
      // The "sweep.window" span brackets post..finish on the calling
      // thread, so in a trace it structurally contains the "parse.link"
      // span of labeling i+1 — the pipelining overlap made visible.
      PLS_TRACE_SPAN("sweep.window", i);
      obs::ScopedTimer sweep_timer(metrics_.sweep);
      post_sweep(labelings[i], parsed_[i % 2], {}, accept_[i % 2]);
      // Overlap window: the workers are sweeping labeling i (with threads =
      // 1 the sweep is merely deferred — strictly sequential, same
      // verdicts).  A stage-2 throw must not unwind past the posted sweep:
      // the workers are writing into this object's buffers under the
      // caller's feet, so quiesce them first.
      if (cached && i + 1 < labelings.size()) {
        try {
          PLS_TRACE_SPAN("parse.link", i + 1);
          obs::ScopedTimer parse_timer(metrics_.parse);
          parse_link(labelings[i + 1], parsed_[(i + 1) % 2],
                     /*parallel=*/false);
          install_pin(i + 1);
        } catch (...) {
          finish_sweep();
          throw;
        }
      }
      finish_sweep();
    }

    std::vector<bool> bits(n);
    for (std::size_t v = 0; v < n; ++v) bits[v] = accept_[i % 2][v] != 0;
    verdicts.emplace_back(std::move(bits));
  }

  // The last labeling's stage-2 cache and verdict bytes stay behind as the
  // resident state run_delta mutates in place.
  resident_ = static_cast<unsigned>((labelings.size() - 1) % 2);
  resident_valid_ = true;
  return verdicts;
}

core::Verdict BatchVerifier::run_delta(const core::Labeling& next,
                                       const LabelingDelta& delta,
                                       BufferPin pin) {
  const std::size_t n = cfg_.n();
  PLS_REQUIRE(next.size() == n);
  PLS_REQUIRE(resident_valid_);  // a delta needs a full run to build on
  for (const graph::NodeIndex v : delta.touched) PLS_REQUIRE(v < n);
  ++delta_stats_.delta_runs;
  PLS_TRACE_SPAN("delta.run", delta.touched.size());
  obs::ScopedTimer e2e_timer(metrics_.delta_e2e);

  std::vector<std::uint8_t>& accept = accept_[resident_];
  const auto splice_verdict = [&] {
    std::vector<bool> bits(n);
    for (std::size_t v = 0; v < n; ++v) bits[v] = accept[v] != 0;
    return core::Verdict(std::move(bits));
  };

  if (delta.touched.empty()) {
    // Nothing differs from the resident labeling: no parse, no link, no
    // sweep — the verdict is the resident one, re-counted fresh (Verdict
    // caches its rejection count per object, so the splice never carries a
    // stale count).
    ++delta_stats_.empty_runs;
    return splice_verdict();
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
  // boundary), then re-link them — with stable ids through the scheme's
  // LinkState, or by the full-relink fallback, which reassigns every
  // resident entry consistently and is therefore equally correct.
  const bool cached =
      ball_scheme_ != nullptr && ball_scheme_->has_cert_parser();
  // The resident half's pins: the carried-forward parses are owned copies,
  // so earlier buffers' pins are no longer load-bearing — swap them for
  // the new frame's (defensively covering the parses just taken from it)
  // instead of accumulating one per delta across an unbounded stream.
  // Without a parse cache the half holds no views into any buffer at all,
  // so the pins are dropped outright.
  parsed_[resident_].pins.clear();
  if (cached && pin != nullptr)
    parsed_[resident_].pins.push_back(std::move(pin));
  if (cached) {
    PLS_TRACE_SPAN("delta.reparse", delta.touched.size());
    obs::ScopedTimer parse_timer(metrics_.delta_parse);
    ParsedLabeling& parsed = parsed_[resident_];
    PLS_ASSERT(parsed.storage.size() == n);
    for (const graph::NodeIndex v : delta.touched) {
      parsed.storage[v] = ball_scheme_->parse_cert(next.certs[v]);
      parsed.view[v] = parsed.storage[v].get();
    }
    delta_stats_.certs_reparsed += delta.touched.size();
    if (link_state_ != nullptr) {
      ball_scheme_->relink_parses(*link_state_, parsed.storage,
                                  delta.touched);
      ++delta_stats_.links_incremental;
      delta_stats_.link_reseeds = link_state_->reseeds;
    } else {
      ball_scheme_->link_parses(parsed.storage);
      ++delta_stats_.links_full;
    }
  }

  // Stage 3, dirty-center sweep: only centers whose decoding radius reaches
  // a touched node can change verdict; everyone else's is spliced from the
  // resident bytes untouched.  Plain 1-round decoders read layer 1 only, so
  // their dirty radius is 1 whatever t the verifier was pinned at.
  const unsigned dirty_radius =
      ball_scheme_ != nullptr ? ball_scheme_->radius() : 1u;
  std::span<const graph::NodeIndex> dirty;
  {
    PLS_TRACE_SPAN("delta.collect", delta.touched.size());
    obs::ScopedTimer collect_timer(metrics_.delta_collect);
    dirty = dirty_index_.collect(*atlas_, cfg_.graph(), dirty_radius,
                                 delta.touched);
  }
  delta_stats_.centers_reswept += dirty.size();
  delta_stats_.verdicts_carried += n - dirty.size();
  {
    PLS_TRACE_SPAN("delta.resweep", dirty.size());
    obs::ScopedTimer sweep_timer(metrics_.delta_sweep);
    // Blocking (no pipelining — delta streams are adaptive).
    if (!dirty.empty()) {
      post_sweep(next, parsed_[resident_], dirty, accept);
      finish_sweep();
    }
  }

  resident_valid_ = true;
  return splice_verdict();
}

core::Verdict BatchVerifier::run_delta(const core::Labeling& prev,
                                       const core::Labeling& next) {
  return run_delta(next, LabelingDelta::diff(prev, next));
}

core::Verdict BatchVerifier::run_one(const core::Labeling& labeling,
                                     BufferPin pin) {
  std::vector<core::Verdict> verdicts = run({&labeling, 1}, {&pin, 1});
  return std::move(verdicts.front());
}

}  // namespace pls::radius

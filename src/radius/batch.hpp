// Stages 2+3 of the verification pipeline, and its verifier front end.
//
// The staged pipeline splits a radius-t verification into three separately
// owned stages:
//
//   1. GEOMETRY  — labeling-independent ball CSRs, owned by GeometryAtlas
//                  (atlas.hpp): built once per (graph, t, center), shared
//                  across verifiers, thread slots, and t values.
//   2. PARSE/LINK — labeling-dependent, center-independent: each node's
//                  certificate parsed exactly once per labeling
//                  (BallScheme::parse_cert, fanned out over the pool), then
//                  the link phase interns the parses' link keys into dense
//                  class ids (detail::LinkTable, parse_link.hpp — owned
//                  here, the one link contract for every scheme), then the
//                  memo pass (BallScheme::memoize) records per-labeling
//                  facts every center would otherwise re-derive — for the
//                  fragment spread, each region's prefix and its members'
//                  base certificates — and reports the labeling's
//                  witnesses (fragment_spread.hpp).  One multi-source BFS
//                  from the witnesses, cut off at the scheme's radius,
//                  then marks every center it does not reach *clean*.
//                  Link, memo and clean set run on the calling thread:
//                  link and clean set in O(n + m), the fragment spread's
//                  memo and witnesses in O(t (n + m)).  Memo and clean set
//                  are the full run's own: only its sweep reads them.
//   3. SWEEP     — per-center verification fanned out over
//                  util::ThreadPool's chunked work-stealing split (skewed
//                  ball sizes rebalance across slots).  A clean center runs
//                  BallScheme::verify_memoized: the base decoder on the
//                  memoized certificates of its closed neighbourhood, with
//                  no geometry.  Every other center looks its atlas block
//                  up lazily, binds its ball and runs verify_ball, the
//                  oracle.  A full sweep's claim unit is one atlas block
//                  (AtlasOptions::block_centers centers, at most one lookup
//                  each), so concurrent slots build distinct cold blocks in
//                  parallel and none waits on another's build.  An honest
//                  full run is all clean and builds no geometry.
//
// BatchVerifier is bound to one (scheme, configuration, t) and verifies any
// number of labelings against it, one run_one call each: parse/link, then one
// blocking sweep, then verdict assembly.  What persists across calls is the
// geometry atlas, the thread pool and the buffers' capacity, so a loop of
// run_one calls reuses every ball it has built.  The atlas and the pool may
// be shared: verifiers bound to different (scheme, cfg, t) can sweep on one
// pool as long as one thread drives them all (serve::Server's tenants do),
// while each keeps its own per-slot scratch.  Verdicts are bit-identical
// to run_verifier_t_baseline at every thread count — parse results are
// per-node and scheduling-independent, the link phase is deterministic, and
// the sweep's writes are per-center disjoint.  threads = 1 runs strictly
// sequentially on the calling thread, spawning no threads.
//
// On top of the full run, the verifier is *delta-aware*: run_delta verifies a
// labeling that differs from the previously verified one at a declared set
// of touched nodes, exploiting the model's error-locality — a center's
// verdict depends only on the certificates in its radius-t ball, so a
// k-certificate mutation can flip verdicts only within distance t of those
// k nodes.  The delta path (a) re-parses only the touched certificates into
// the resident parse cache, carrying every clean entry forward across the
// labeling boundary; (b) re-links them incrementally through the verifier's
// LinkTable — stable class ids keep carried-forward parses comparable with
// fresh ones; (c) resolves the dirty-center set — every center within the
// decoding radius of a touched node, by one multi-source BFS from the
// touched nodes (hop distance is symmetric) — and sweeps only those over the
// pool, splicing carried-forward verdicts for the other centers.  Each dirty
// center leaves the clean set first (its ball holds a touched node, whose
// fresh parse has no memo), so a delta re-sweep always runs verify_ball and
// reads no memo.  Verdicts are bit-identical to a from-scratch run at every
// thread count; DeltaStats is the observable proof that an empty
// delta does no stage work at all.  pls::core::attack feeds its hill-climb
// steps through this path.
//
// run_verifier_t is a sequential run_one over a zero-budget atlas.
//
// Certificate bytes: every run is synchronous and reads its labelings'
// certificates only until it returns.  Parses are owned copies
// (BallScheme::parse_cert), so the resident state a later run_delta builds
// on never aliases a caller's buffer — certificates that alias external
// memory (util::BitString::aliasing) need only outlive the call.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "radius/atlas.hpp"
#include "radius/delta.hpp"
#include "radius/engine_t.hpp"
#include "radius/parse_link.hpp"
#include "util/thread_pool.hpp"

namespace pls::radius {

struct BatchOptions {
  /// Execution slots; 0 means util::ThreadPool::hardware_threads(), or the
  /// given pool's size.  1 runs strictly sequentially on the calling thread
  /// (no worker threads).  With a pool it must be 0 or pool->thread_count().
  unsigned threads = 0;
  /// Thread pool to sweep on; null creates a private pool of `threads`
  /// slots.  Share one pool across verifiers to run them all on the same
  /// workers: it runs one job at a time, so the verifiers sharing it must
  /// be driven from one thread (an overlapping run throws std::logic_error).
  std::shared_ptr<util::ThreadPool> pool;
  /// Geometry atlas to read/populate; null creates a private atlas with
  /// default AtlasOptions.  Share one atlas across verifiers to share
  /// geometry (it is thread-safe and keyed by graph epoch).
  std::shared_ptr<GeometryAtlas> atlas;
  /// Stage-latency sink (docs/metrics-schema.md: verify.* / delta.*
  /// histograms).  Null — the default — records nothing and reads no clock
  /// on any hot path; histogram handles are resolved once per name at
  /// construction, never per labeling.  Must outlive the verifier.
  obs::MetricsRegistry* metrics = nullptr;
};

class BatchVerifier {
 public:
  /// Binds (scheme, cfg, t).  Both must outlive the verifier.  Requires
  /// t >= 1, and t >= scheme.radius() for ball schemes.
  BatchVerifier(const core::Scheme& scheme, const local::Configuration& cfg,
                unsigned t, BatchOptions options = {});

  /// Verifies one labeling from scratch: parse/link, one sweep, verdict
  /// assembly.  Callable repeatedly with different labelings: the parse
  /// cache is rebuilt per call, while the geometry atlas and thread
  /// machinery persist, which is what the adversary's hill-climb loop
  /// amortizes.  The verdict is bit-identical to run_verifier_t_baseline at
  /// every thread count.
  core::Verdict run_one(const core::Labeling& labeling);

  /// The delta front door.  Verifies `next` given that it differs from the
  /// *resident* labeling — the one the last successful run_one()/run_delta()
  /// call verified — at most on delta.touched (an over-approximation is
  /// fine; see LabelingDelta).  Requires such a resident run; verdicts are
  /// bit-identical to run_one(next) at every thread count.  An empty
  /// mutation set does no parse, no link, and no sweep work (delta_stats()).
  core::Verdict run_delta(const core::Labeling& next,
                          const LabelingDelta& delta);

  /// Whether a resident labeling exists for run_delta to build on (set by
  /// every successful run, cleared while a run is in flight or after one
  /// throws).
  bool has_resident() const noexcept { return resident_valid_; }

  /// Cooperative cancellation: while set, every run checks the token on
  /// entry and at every chunk-claim boundary inside the full run's parallel
  /// parse and the sweep (ThreadPool's RangeOptions::cancel), and abandons
  /// the run with util::CancelledError.
  /// A run refused on entry has touched nothing: the resident state it
  /// found is still there for run_delta.  A run abandoned later leaves the
  /// verifier exactly like any other throwing run: no resident state
  /// (has_resident() false) and every buffer rebuilt from scratch by the
  /// next run, whose verdicts are therefore still bit-exact.  The token is
  /// read per run — the serving tier re-arms one token per request.  Null
  /// (the default) disables all checks.  Must outlive the runs it governs.
  void set_cancel(const util::CancelToken* cancel) noexcept {
    cancel_ = cancel;
  }

  /// Cumulative work counters of the delta path.
  const DeltaStats& delta_stats() const noexcept { return delta_stats_; }

  unsigned radius() const noexcept { return t_; }
  unsigned threads() const noexcept { return pool_->thread_count(); }
  const GeometryAtlas& atlas() const noexcept { return *atlas_; }
  const std::shared_ptr<GeometryAtlas>& atlas_ptr() const noexcept {
    return atlas_;
  }

 private:
  // Thread contract, in the terms the thread-safety analysis enforces
  // elsewhere: BatchVerifier is externally synchronized — one caller thread
  // drives run_one/run_delta, so no member below carries a capability
  // (there is deliberately no mutex to guard them with).  The only
  // cross-thread sharing is the pool's range jobs, each joined before the
  // call that started it returns: parse workers write disjoint entries of
  // `parsed_`; sweep workers read `parsed_`, `slots_` (their own slot), and
  // the labeling, and write disjoint bytes of `accept_`.  ThreadPool's job
  // hand-off (its annotated mutex, util/thread_pool.hpp) is the
  // happens-before edge in both directions.  The shared GeometryAtlas *is*
  // internally locked and annotated (atlas.hpp); a shared pool is driven by
  // the same one thread as every verifier on it; everything else here must
  // stay caller-thread-only.

  /// Stage 2 into `parsed_`: parses every certificate over the pool (the
  /// cancel token polled at every chunk claim), then links and memoizes the
  /// parses on the calling thread.  `clean_` becomes every center farther
  /// than the scheme's radius from all witnesses — one multi-source BFS —
  /// or no center, when the scheme has no clean path.
  void parse_link(const core::Labeling& labeling);
  /// The one stage-3 per-center verify body, shared by the full sweep and
  /// the dirty re-sweep: slot i of the returned range job verifies center
  /// centers[i] (or center i itself when `centers` is empty — the full
  /// sweep) and writes that center's `accept_` byte.  A clean center
  /// (`clean_`) runs verify_memoized and looks nothing up.  Any other center
  /// looks its block up lazily, again only where it leaves the block the
  /// chunk holds; since sweep() cuts a ball scheme's full sweep into one
  /// atlas block per chunk, that is at most one lookup per chunk there.
  /// The captured references must outlive the job's execution, and
  /// `accept_` must already have its final size.
  util::ThreadPool::RangeFn sweep_fn(const core::Labeling& labeling,
                                     std::span<const graph::NodeIndex> centers);
  /// Runs the stage-3 sweep over the pool and blocks until it completes:
  /// `centers` empty sweeps every center into a fresh `accept_` (the full
  /// sweep); a sorted center list re-verifies exactly those into the
  /// resident bytes (the delta path).  Publishes the sweep's RangeStats
  /// (chunk/steal counts, per-slot busy time) to the metrics sinks — also
  /// when the sweep throws (cancelled or faulted): its executed chunks and
  /// busy time were real work inside the sweep window.
  void sweep(const core::Labeling& labeling,
             std::span<const graph::NodeIndex> centers);
  /// The verdict the `accept_` bytes spell, counted fresh.
  core::Verdict verdict() const;

  const core::Scheme& scheme_;
  const BallScheme* ball_scheme_;  // nullptr for plain 1-round schemes
  const local::Configuration& cfg_;
  unsigned t_;
  std::shared_ptr<GeometryAtlas> atlas_;
  std::shared_ptr<util::ThreadPool> pool_;

  struct Slot {
    BallView view;
    std::vector<local::NeighborView> views;  // plain 1-round scratch
  };
  std::vector<Slot> slots_;

  // Stage-2 parse cache and stage-3 verdict bytes, members so their
  // capacity persists across run_one() calls — the adversary's hill-climb
  // calls run_one thousands of times per attack and must not reallocate per
  // candidate.  After a successful run they hold the *resident* state: the
  // carried-forward parses and verdicts the delta path splices from and
  // mutates in place.
  std::vector<std::unique_ptr<ParsedCert>> parsed_;  ///< stage 2, per node
  std::vector<std::uint8_t> accept_;
  /// Per center (ball schemes): 1 = clean, verified by verify_memoized.
  /// Set by every full run's parse_link; run_delta clears its dirty
  /// centers.
  std::vector<std::uint8_t> clean_;
  /// The multi-source BFS behind both the clean set and a delta's dirty
  /// set: its visited marks and the nodes it reached.  Both keep their
  /// capacity across runs.
  graph::VisitEpochSet reach_seen_;
  std::vector<graph::NodeIndex> reached_;
  bool resident_valid_ = false;  ///< a resident labeling exists for deltas

  // Stage-2 link phase: the interning table every full run resets and every
  // delta relinks against (parse_link.hpp).
  detail::LinkTable link_;
  DeltaStats delta_stats_;

  // Cooperative cancellation token (see set_cancel); caller-thread-only
  // like every other member — the pool reads it through RangeOptions.
  const util::CancelToken* cancel_ = nullptr;

  // Stage-latency histograms, resolved once from BatchOptions::metrics (all
  // null when no registry was supplied — ScopedTimer then reads no clock).
  struct StageMetrics {
    obs::Counter* labelings = nullptr;    ///< verify.labelings
    obs::Histogram* e2e = nullptr;        ///< verify.e2e_ns
    obs::Histogram* parse = nullptr;      ///< verify.parse_link_ns
    obs::Histogram* sweep = nullptr;      ///< verify.sweep_window_ns
    obs::Histogram* delta_e2e = nullptr;  ///< delta.e2e_ns
    obs::Histogram* delta_parse = nullptr;    ///< delta.reparse_link_ns
    obs::Histogram* delta_collect = nullptr;  ///< delta.collect_ns
    obs::Histogram* delta_sweep = nullptr;    ///< delta.resweep_ns
    obs::Counter* sweep_chunks = nullptr;     ///< verify.sweep_chunks
    obs::Counter* sweep_steals = nullptr;     ///< verify.sweep_steals
    obs::Histogram* worker_busy = nullptr;    ///< verify.worker_busy_ns
    obs::Counter* witnesses = nullptr;        ///< verify.witnesses
    obs::Counter* clean_centers = nullptr;    ///< verify.clean_centers
  };
  StageMetrics metrics_;
};

}  // namespace pls::radius

// Stages 2+3 of the verification pipeline, and its batch-labeling front end.
//
// The staged pipeline splits a radius-t verification into three separately
// owned stages:
//
//   1. GEOMETRY  — labeling-independent ball CSRs, owned by GeometryAtlas
//                  (atlas.hpp): built once per (graph, t, center), shared
//                  across verifiers, thread slots, and t values.
//   2. PARSE/LINK — labeling-dependent, center-independent: each node's
//                  certificate parsed exactly once per labeling
//                  (BallScheme::parse_cert), then the single-threaded link
//                  phase interns repeated payloads (link_parses).
//   3. SWEEP     — per-center verify_ball over geometry bound to the
//                  labeling, fanned out over util::ThreadPool's chunked
//                  work-stealing split (skewed ball sizes rebalance across
//                  slots).
//
// BatchVerifier pins one (scheme, configuration, t) and verifies any number
// of labelings against it.  For a batch, the stages overlap: while the pool
// sweeps labeling i, the calling thread (which joins the posted range's claim
// loop only at ThreadPool::finish_range) parses and links labeling i+1 into
// the other half of a double buffer.  Verdicts are bit-identical to
// per-labeling runs at every thread count — parse results are per-node and
// scheduling-independent, the link phase is deterministic, and each verdict
// depends only on its own labeling's stage-2 output — so the overlap is a
// pure wall-clock win.  threads = 1 degenerates to the strictly sequential
// parse -> link -> sweep per labeling, spawning no threads.
//
// On top of the batch, the verifier is *delta-aware*: run_delta verifies a
// labeling that differs from the previously verified one at a declared set
// of touched nodes, exploiting the model's error-locality — a center's
// verdict depends only on the certificates in its radius-t ball, so a
// k-certificate mutation can flip verdicts only within distance t of those
// k nodes.  The delta path (a) re-parses only the touched certificates into
// the resident half of the double-buffered parse cache, carrying every
// clean entry forward across the labeling boundary; (b) re-links them
// incrementally through BallScheme::relink_parses with per-verifier
// LinkState — stable class ids keep carried-forward parses comparable with
// fresh ones — falling back to a full link_parses for schemes without the
// hook; (c) resolves the dirty-center set through the reverse-ball index
// (DirtyIndex, delta.hpp — ball symmetry served by the geometry atlas) and
// sweeps only those over the pool, splicing carried-forward verdicts for
// the clean centers.  Verdicts are bit-identical to a from-scratch run at
// every thread count; DeltaStats is the observable proof that an empty
// delta does no stage work at all.  pls::core::attack feeds its hill-climb
// steps through this path.
//
// run_one is the single-labeling entry point (a batch of one; run_verifier_t
// is a sequential run_one over a zero-budget atlas).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "radius/atlas.hpp"
#include "radius/delta.hpp"
#include "radius/engine_t.hpp"
#include "util/thread_pool.hpp"

namespace pls::radius {

/// Keeps an externally owned buffer alive: labelings whose certificates
/// alias caller-managed memory (util::BitString::aliasing — the serving
/// tier's zero-copy wire path) pass one of these alongside, and the
/// verifier parks it in the ParsedLabeling half that parsed the labeling.
/// The pin is what makes the pipelining window safe: while the sweep of
/// labeling i overlaps the parse of labeling i+1, BOTH halves hold their
/// own buffer's pin, so releasing a request buffer early cannot yank bytes
/// out from under an in-flight stage.  The engine itself never reads a
/// labeling's raw certificate bytes after the run that verified it returns
/// (parse_cert outputs are owned copies; the delta path re-reads only the
/// NEXT labeling's touched certs), so callers may mutate or free a pinned
/// buffer once their run call returns — dropping the pin is then the
/// verifier's bookkeeping, not a correctness event.
using BufferPin = std::shared_ptr<const void>;

struct BatchOptions {
  /// Execution slots; 0 means util::ThreadPool::hardware_threads().
  /// 1 runs strictly sequentially on the calling thread (no worker threads).
  unsigned threads = 0;
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
  /// Pins (scheme, cfg, t).  Both must outlive the verifier.  Requires
  /// t >= 1, and t >= scheme.radius() for ball schemes.
  BatchVerifier(const core::Scheme& scheme, const local::Configuration& cfg,
                unsigned t, BatchOptions options = {});

  /// Verifies every labeling of the span, pipelined as described above.
  /// verdicts[i] is bit-identical to a fresh per-labeling run_one (and to
  /// run_verifier_t_baseline) at every thread count.  `pins[i]` (optional,
  /// may be shorter than `labelings` or empty) keeps labeling i's aliased
  /// buffer alive through its parse + sweep window; see BufferPin.
  std::vector<core::Verdict> run(std::span<const core::Labeling> labelings,
                                 std::span<const BufferPin> pins = {});

  /// Batch of one — the single-labeling entry point.  Callable repeatedly
  /// with different labelings: the parse cache is rebuilt per call, while
  /// the geometry atlas and thread machinery persist, which is what the
  /// adversary's hill-climb loop amortizes.
  core::Verdict run_one(const core::Labeling& labeling,
                        BufferPin pin = nullptr);

  /// The delta front door.  Verifies `next` given that it differs from the
  /// *resident* labeling — the one the last successful run()/run_one()/
  /// run_delta() call verified (for run(span), the span's last element) —
  /// at most on delta.touched (an over-approximation is fine; see
  /// LabelingDelta).  Requires such a resident run; verdicts are
  /// bit-identical to run_one(next) at every thread count.  An empty
  /// mutation set does no parse, no link, and no sweep work (delta_stats()).
  core::Verdict run_delta(const core::Labeling& next,
                          const LabelingDelta& delta,
                          BufferPin pin = nullptr);

  /// Convenience for callers that did not track their mutations: diffs the
  /// two labelings (O(n) certificate compares — the hill-climb passes an
  /// explicit delta instead) and applies the delta.  `prev` must be the
  /// resident labeling.
  core::Verdict run_delta(const core::Labeling& prev,
                          const core::Labeling& next);

  /// Whether a resident labeling exists for run_delta to build on (set by
  /// every successful run, cleared while a run is in flight or after one
  /// throws).
  bool has_resident() const noexcept { return resident_valid_; }

  /// Cooperative cancellation: while set, every run checks the token at
  /// per-labeling boundaries and at every chunk-claim boundary inside the
  /// sweep (ThreadPool's RangeOptions::cancel), and abandons the run with
  /// util::CancelledError.  An abandoned run leaves
  /// the verifier exactly like any other throwing run: no resident state
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
  unsigned threads() const noexcept { return threads_; }
  const GeometryAtlas& atlas() const noexcept { return *atlas_; }
  const std::shared_ptr<GeometryAtlas>& atlas_ptr() const noexcept {
    return atlas_;
  }

 private:
  // Thread contract, in the terms the thread-safety analysis enforces
  // elsewhere: BatchVerifier is externally synchronized — one caller thread
  // drives run/run_one/run_delta, so no member below carries a capability
  // (there is deliberately no mutex to guard them with).  The only
  // cross-thread sharing is the posted sweep job: workers read `parsed_`,
  // `slots_` (their own slot), and the labeling, and write disjoint bytes of
  // an `accept_` half; ThreadPool's job hand-off (its annotated mutex,
  // util/thread_pool.hpp) is the happens-before edge in both directions.
  // The shared GeometryAtlas *is* internally locked and annotated
  // (atlas.hpp); everything else here must stay caller-thread-only.

  /// Stage-2 output for one labeling: the per-node parse-once cache, plus
  /// the pin of the buffer its labeling's certificates may alias.  The pin
  /// lives exactly as long as the half could be read by an in-flight stage:
  /// installed when the half is (re)parsed, dropped when the half is next
  /// rebuilt (the parses themselves are owned, so holding it longer is
  /// bookkeeping, not correctness — see BufferPin).
  struct ParsedLabeling {
    std::vector<std::unique_ptr<ParsedCert>> storage;
    std::vector<const ParsedCert*> view;
    std::vector<BufferPin> pins;
  };

  void parse_link(const core::Labeling& labeling, ParsedLabeling& out,
                  bool parallel);
  /// The one stage-3 per-center verify body, shared by the full sweep and
  /// the dirty re-sweep: slot i of the returned range job verifies center
  /// centers[i] (or center i itself when `centers` is empty — the full
  /// sweep) and writes accept[center].  The captured references must
  /// outlive the job's execution.
  util::ThreadPool::RangeFn sweep_fn(const core::Labeling& labeling,
                                     const ParsedLabeling& parsed,
                                     std::span<const graph::NodeIndex> centers,
                                     std::vector<std::uint8_t>& accept);
  /// Posts the stage-3 sweep over the pool and returns: `centers` empty
  /// sweeps every center of a fresh accept vector (the full sweep); a
  /// sorted center list re-verifies exactly those into the resident accept
  /// bytes (the delta path).  The caller may overlap stage 2 of the next
  /// labeling, then calls finish_sweep().
  void post_sweep(const core::Labeling& labeling, const ParsedLabeling& parsed,
                  std::span<const graph::NodeIndex> centers,
                  std::vector<std::uint8_t>& accept);
  /// Completes the posted sweep and publishes its RangeStats (chunk/steal
  /// counts, per-slot busy time) to the metrics sinks — also when the sweep
  /// throws (cancelled or faulted): its executed chunks and busy time were
  /// real work inside the sweep window.
  void finish_sweep();

  const core::Scheme& scheme_;
  const BallScheme* ball_scheme_;  // nullptr for plain 1-round schemes
  const local::Configuration& cfg_;
  unsigned t_;
  unsigned threads_;
  std::shared_ptr<GeometryAtlas> atlas_;
  std::unique_ptr<util::ThreadPool> pool_;

  struct Slot {
    BallView view;
    std::vector<local::NeighborView> views;  // plain 1-round scratch
  };
  std::vector<Slot> slots_;

  // The pipeline's double buffers, members so their capacity persists
  // across run()/run_one() calls — the adversary's hill-climb calls
  // run_one thousands of times per attack and must not reallocate per
  // candidate.  During run(), no labeling's parse outlives its iteration:
  // each buffer is rebuilt (clear + resize) before its labeling's sweep is
  // posted.  After a successful run, the LAST labeling's half stays behind
  // as the *resident* state (resident_ names it) — the carried-forward
  // parses and verdicts the delta path splices from and mutates in place.
  ParsedLabeling parsed_[2];
  std::vector<std::uint8_t> accept_[2];
  unsigned resident_ = 0;        ///< buffer half holding the resident state
  bool resident_valid_ = false;  ///< a resident labeling exists for deltas

  // Delta-path machinery: the reverse-ball index and the scheme's
  // persistent interning state (null when the scheme has no incremental
  // link — delta runs then fall back to a full link_parses).
  DirtyIndex dirty_index_;
  std::unique_ptr<LinkState> link_state_;
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
  };
  StageMetrics metrics_;
};

}  // namespace pls::radius

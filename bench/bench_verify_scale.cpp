// Experiment R2 — staged verification at scale.
//
// Four scenarios over the spanning-tree spread:
//
// 1. Single labeling (the PR 2 experiment): the pre-pipeline reference
//    engine (one ball at a time, every ball certificate re-parsed at every
//    center) against BatchVerifier::run_one (staged pipeline: geometry
//    atlas + parse-once cache + optional thread pool) at n = 4096, t in
//    {1, 2, 4, 8}.  Emits the time–size tradeoff curve as JSON.  Each
//    session is a fresh verifier, so its geometry is cold.  An honest
//    marking takes the clean path and builds no geometry, so at t = 8 a
//    labeling of empty certificates, whose every center is dirty, is timed
//    as well: its --threads-slot session over the 1-slot one measures how
//    well parallel slots build distinct atlas blocks
//    (--require-cold-session-speedup).  That pair is timed three times,
//    alternating which side runs first, and the gate reads the median
//    ratio.
//
// 2. Multi-labeling batch (the adversary's workload): L labelings derived
//    from the honest marking by hill-climb-style point mutations, all
//    verified against ONE (scheme, cfg, t).  A run_one loop on one
//    BatchVerifier + a warm GeometryAtlas (geometry built once, served to
//    every labeling) — the loop the server and the adversary run — against
//    the rebuild-every-run baseline (byte_budget = 0 atlas: same code path, no
//    geometry retained — the pre-atlas behavior).  Reports throughput
//    (labelings/sec), the atlas hit rate, and resident bytes.
//
// 3. Incremental delta stream (the hill-climb's inner loop): a single-cert
//    mutation stream — labeling i is labeling i-1 with exactly one node's
//    certificate replaced — verified (a) by a run_one loop over a warm atlas
//    (the full re-verify every served full pays) and (b) through
//    BatchVerifier::run_delta with the mutated node declared per step, so
//    only the touched certificate is re-parsed and only the dirty centers
//    (the mutated node's radius-t ball, by ball symmetry) are re-swept.
//    Always n = 4096 on a 64x64 grid — incremental verification is a
//    locality play, so the instance is the bounded-growth regime where
//    radius-8 balls are 3.5% of the graph, not the expander-like random
//    instance whose balls cover 2/3 of it (the emitted dirty_fraction
//    quantifies that boundary); --smoke only shortens the stream.  Reports
//    both throughputs, the delta work counters, and per-phase atlas hit
//    rates (snapshot-diffed AtlasStats, AtlasStats::since).
//
// 4. Admission (the atlas's LRU under budget pressure): a delta stream
//    whose touched nodes are zipf-popular (rank through a random
//    permutation) on scenario 3's grid, replayed against an atlas whose
//    budget holds a quarter of the geometry.  The hot nodes' radius-t balls
//    concentrate the block traffic, so LRU keeps the zipf head resident
//    while the cold tail churns through the rest of the budget.  Reports
//    the delta-phase hit rate (the --require-admission-hit-rate gate),
//    labelings/sec, evictions and bypasses; the constrained replay is
//    asserted verdict-identical to an unconstrained ground-truth replay.
//
// Verdict identity is asserted everywhere: scenario 1 across
// baseline/sequential/parallel runs per row; scenario 2 across the rebuild
// loop and warm run_one loops at threads {1, 2, hardware}, and against
// run_verifier_t_baseline for the first few labelings (all of them under
// --smoke — the naive engine is too slow to oracle 100 full-size labelings);
// scenario 3 delta vs. full runs for every labeling of the stream, delta at
// threads {1, 2, hardware} over a prefix, and the stream head against the
// naive engine (full runs only — it is a 4096-node t = 8 instance).
//
// Per-stage latency (parse/link, sweep window, delta stages) is recorded
// into an obs::MetricsRegistry by the verifiers themselves
// (BatchOptions::metrics); the emitted JSON carries the full snapshot —
// count/mean/p50/p90/p95/p99 per stage — and stderr quotes the headline
// p50/p99.  --trace-out additionally records the timed batch contender with
// obs::TraceRecorder and writes a chrome://tracing document showing each
// labeling's parse.link span followed by its sweep window, and per-slot
// sweep skew.  --max-disabled-span-ns gates the observability tax: the measured
// per-span cost of an instrumented-but-disabled trace point (one relaxed
// atomic load) must stay under the bound.
//
// Usage: bench_verify_scale [--smoke] [--out FILE] [--batch-out FILE]
//                           [--incremental-out FILE] [--trace-out FILE]
//                           [--admission-out FILE] [--seed S] [--threads T]
//                           [--t T] [--labelings L] [--require-batch-speedup X]
//                           [--require-cold-session-speedup R]
//                           [--require-incremental-speedup X]
//                           [--max-disabled-span-ns X] [--zipf-s S]
//                           [--require-admission-hit-rate R]
//   --smoke                   n = 1024 for scenarios 1-2, fewer labelings
//                             (CI-friendly; scenario 3 stays at n = 4096)
//   --out FILE                write the tradeoff JSON there instead of stdout
//   --batch-out FILE          additionally write the batch-scenario JSON
//   --incremental-out FILE    additionally write the delta-scenario JSON
//   --trace-out FILE          record the timed batch run; write chrome-trace
//                             JSON there (load via chrome://tracing)
//   --admission-out FILE      additionally write the admission-scenario JSON
//   --seed S                  base RNG seed (echoed into every JSON)
//   --threads T               thread count for the timed runs (default: hw)
//   --t T                     batch/incremental radius (default 8)
//   --labelings L             batch + stream size (default 100; 16 under
//                             --smoke)
//   --require-batch-speedup X fail if batch+atlas throughput gain < X
//   --require-cold-session-speedup R fail if the t = 8 row's cold run_one at
//                             --threads slots is < R x its cold 1-slot run
//                             (median of three seq/par ratios); checked
//                             only at >= 4 threads
//   --require-incremental-speedup X fail if delta-vs-full gain < X
//   --max-disabled-span-ns X  fail if a disabled trace span costs > X ns
//   --zipf-s S                admission-stream skew exponent (default 1.0)
//   --require-admission-hit-rate R fail if the budget-constrained atlas's
//                             delta-phase hit rate on the zipf stream < R
#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "radius/batch.hpp"
#include "radius/fragment_spread.hpp"
#include "schemes/spanning_tree.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace pls;

constexpr graph::RawId kIdSpace = graph::RawId{1} << 56;

// Default base seed; --seed overrides.  The stream RNGs are salted so the
// default reproduces the historical per-scenario seeds (0xBA115CA1E for the
// instance, 0xA71A5 for the batch stream) exactly.
constexpr std::uint64_t kDefaultSeed = 0xBA11'5CA1Eull;
constexpr std::uint64_t kBatchSalt = kDefaultSeed ^ 0xA7'1A5ull;
constexpr std::uint64_t kIncrementalSalt = 0xDE17A'BA11ull;
constexpr std::uint64_t kAdmissionSalt = 0xAD317'CAC3Eull;

struct Row {
  std::string scheme;
  std::size_t n = 0;
  unsigned t = 0;
  std::size_t max_cert_bits = 0;
  double avg_cert_bits = 0.0;
  double baseline_ms = 0.0;     ///< pre-pipeline engine (re-parse per ball)
  double session_seq_ms = 0.0;  ///< run_one, threads = 1, honest marking
  double session_par_ms = 0.0;  ///< run_one, threads = T, honest marking
  /// seq/par ratio of each timed cold pair, in run order: the row's one
  /// honest pair, or at t = 8 the gated pairs on an all-dirty labeling.
  std::vector<double> cold_speedups;
  unsigned threads = 1;
  bool verdicts_identical = false;
};

/// The multi-labeling scenario's result sheet.
struct BatchResult {
  std::size_t n = 0;
  unsigned t = 0;
  std::size_t labelings = 0;
  unsigned threads = 1;
  double rebuild_ms = 0.0;  ///< per-run geometry rebuild (budget-0 atlas)
  double batch_ms = 0.0;    ///< BatchVerifier + warm atlas
  double rebuild_per_sec = 0.0;
  double batch_per_sec = 0.0;
  double speedup = 0.0;
  radius::AtlasStats atlas;
  std::size_t baseline_checked = 0;  ///< labelings oracled vs the naive engine
  bool verdicts_identical = false;
};

double time_ms(const std::function<core::Verdict()>& run,
               core::Verdict& out) {
  const auto start = std::chrono::steady_clock::now();
  out = run();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

bool same_verdict(const core::Verdict& a, const core::Verdict& b) {
  return a.accept() == b.accept();
}

double median(std::vector<double> xs) {
  PLS_REQUIRE(!xs.empty());
  const auto mid = xs.begin() + static_cast<std::ptrdiff_t>(xs.size() / 2);
  std::nth_element(xs.begin(), mid, xs.end());
  return *mid;
}

/// Cold seq/par pairs timed for the gated t = 8 row (one pair elsewhere).
/// The gate reads the median of three pairs, alternating which side runs
/// first, rather than one sample.
constexpr unsigned kGatedColdPairs = 3;

/// Untimed all-slot work before the gated pairs.  On a 4-vCPU VM that had
/// idled for >= 25 s, parallel work got about one core's worth of time for
/// its first ~2 s: every pair then read ~1x, and a 2 s four-core spin just
/// before the bench made the same runs read ~3x.  That measures the host
/// waking idle vCPUs, not the code, so the gated pairs start after it.
constexpr std::chrono::seconds kGatedWarmup{3};

Row measure(const core::Scheme& scheme, const local::Configuration& cfg,
            unsigned t, unsigned threads) {
  Row row;
  row.scheme = std::string(scheme.name());
  row.n = cfg.n();
  row.t = t;
  row.threads = threads;

  const core::Labeling lab = scheme.mark(cfg);
  row.max_cert_bits = lab.max_bits();
  row.avg_cert_bits =
      static_cast<double>(lab.total_bits()) / static_cast<double>(cfg.n());

  core::Verdict baseline;
  row.baseline_ms = time_ms(
      [&] { return radius::run_verifier_t_baseline(scheme, cfg, lab, t); },
      baseline);
  // A fresh verifier per run, so every run builds its geometry cold.
  const auto run_one = [&](const core::Labeling& l, unsigned slots) {
    radius::BatchOptions options;
    options.threads = slots;
    return radius::BatchVerifier(scheme, cfg, t, options).run_one(l);
  };
  // Micro-assert for the staged pipeline: the run_one path serves geometry
  // through the atlas and interns chunk payloads into dense ids after the
  // parallel parse (the verifier's LinkTable), while the baseline engine
  // rebuilds balls and re-parses raw BitStrings everywhere — any divergence
  // between the two shows up right here.
  row.verdicts_identical = true;
  // Times `pairs` seq/par pairs of cold sessions on `l`, alternating which
  // side runs first; returns each pair's ratio, in run order.
  std::vector<double> seq_ms, par_ms;
  const auto time_pairs = [&](const core::Labeling& l,
                              const core::Verdict& expected, unsigned pairs) {
    std::vector<double> ratios;
    seq_ms.clear();
    par_ms.clear();
    for (unsigned pair = 0; pair < pairs; ++pair) {
      core::Verdict seq, par;
      const auto time_seq = [&] {
        seq_ms.push_back(time_ms([&] { return run_one(l, 1); }, seq));
      };
      const auto time_par = [&] {
        par_ms.push_back(time_ms([&] { return run_one(l, threads); }, par));
      };
      if (pair % 2 == 0) {
        time_seq();
        time_par();
      } else {
        time_par();
        time_seq();
      }
      ratios.push_back(seq_ms.back() / par_ms.back());
      row.verdicts_identical = row.verdicts_identical &&
                               same_verdict(expected, seq) &&
                               same_verdict(expected, par);
    }
    return ratios;
  };
  row.cold_speedups = time_pairs(lab, baseline, 1);
  row.session_seq_ms = median(seq_ms);
  row.session_par_ms = median(par_ms);
  if (t == 8) {
    // The gated pairs time a labeling of empty, hence malformed,
    // certificates: every center is dirty, looks its atlas block up and
    // binds its ball, so each session builds all of its geometry cold.  An
    // honest full takes the clean path and builds none, so its sessions no
    // longer measure parallel block builds.
    core::Labeling dirty;
    dirty.certs.assign(cfg.n(), local::Certificate{});
    const core::Verdict dirty_baseline =
        radius::run_verifier_t_baseline(scheme, cfg, dirty, t);
    const auto until = std::chrono::steady_clock::now() + kGatedWarmup;
    while (std::chrono::steady_clock::now() < until)
      row.verdicts_identical = row.verdicts_identical &&
                               same_verdict(dirty_baseline,
                                            run_one(dirty, threads));
    row.cold_speedups = time_pairs(dirty, dirty_baseline, kGatedColdPairs);
  }
  PLS_ASSERT(row.verdicts_identical);
  PLS_ASSERT(baseline.all_accept());  // honest marking on a legal instance
  return row;
}

/// Hill-climb-style candidate stream: each labeling is the previous one with
/// one node's certificate replaced (by a donor node's certificate or random
/// bits) — exactly the adversary's usage pattern.
std::vector<core::Labeling> candidate_labelings(const core::Scheme& scheme,
                                                const local::Configuration& cfg,
                                                std::size_t count,
                                                util::Rng& rng) {
  std::vector<core::Labeling> labs;
  labs.reserve(count);
  labs.push_back(scheme.mark(cfg));
  const std::size_t n = cfg.n();
  while (labs.size() < count) {
    core::Labeling next = labs.back();
    const std::size_t v = rng.below(n);
    if (rng.below(2) == 0) {
      next.certs[v] = next.certs[rng.below(n)];
    } else {
      next.certs[v] = local::random_state(rng.below(64), rng);
    }
    labs.push_back(std::move(next));
  }
  return labs;
}

/// One run_one per labeling, in order, on the same verifier.
std::vector<core::Verdict> run_each(radius::BatchVerifier& verifier,
                                    std::span<const core::Labeling> labs) {
  std::vector<core::Verdict> verdicts;
  verdicts.reserve(labs.size());
  for (const core::Labeling& lab : labs)
    verdicts.push_back(verifier.run_one(lab));
  return verdicts;
}

BatchResult measure_batch(const core::Scheme& scheme,
                          const local::Configuration& cfg, unsigned t,
                          unsigned threads,
                          std::span<const core::Labeling> labs,
                          std::size_t baseline_checked,
                          obs::MetricsRegistry& registry, bool trace) {
  BatchResult r;
  r.n = cfg.n();
  r.t = t;
  r.labelings = labs.size();
  r.threads = threads;

  // Rebuild-every-run baseline: the identical staged code path with a
  // byte_budget = 0 atlas (nothing retained between runs) — what every
  // pre-atlas caller paid.
  std::vector<core::Verdict> rebuild_verdicts;
  rebuild_verdicts.reserve(labs.size());
  {
    radius::BatchOptions options;
    options.threads = threads;
    options.atlas = std::make_shared<radius::GeometryAtlas>(
        radius::AtlasOptions{0, 64});
    radius::BatchVerifier rebuild(scheme, cfg, t, options);
    const auto start = std::chrono::steady_clock::now();
    for (const core::Labeling& lab : labs)
      rebuild_verdicts.push_back(rebuild.run_one(lab));
    const auto stop = std::chrono::steady_clock::now();
    r.rebuild_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
  }

  // A run_one loop on one BatchVerifier + warm atlas, the timed contender —
  // the run the stage histograms (and, under --trace-out, the chrome trace)
  // describe.
  std::vector<core::Verdict> batch_verdicts;
  {
    radius::BatchOptions options;
    options.threads = threads;
    options.metrics = &registry;
    radius::BatchVerifier batch(scheme, cfg, t, options);
    if (trace) obs::TraceRecorder::enable();
    const auto start = std::chrono::steady_clock::now();
    batch_verdicts = run_each(batch, labs);
    const auto stop = std::chrono::steady_clock::now();
    if (trace) obs::TraceRecorder::disable();
    r.batch_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    r.atlas = batch.atlas().stats();
  }

  r.rebuild_per_sec =
      static_cast<double>(labs.size()) / (r.rebuild_ms / 1000.0);
  r.batch_per_sec = static_cast<double>(labs.size()) / (r.batch_ms / 1000.0);
  r.speedup = r.rebuild_ms / r.batch_ms;

  // Verdict identity: batch == rebuild for every labeling, run_one loops at
  // threads {1, 2, hardware} all equal (untimed), and the first
  // `baseline_checked` labelings against the naive reference engine.
  bool identical = true;
  for (std::size_t i = 0; i < labs.size(); ++i)
    identical = identical &&
                same_verdict(rebuild_verdicts[i], batch_verdicts[i]);
  for (const unsigned check_threads :
       {1u, 2u, util::ThreadPool::hardware_threads()}) {
    radius::BatchOptions options;
    options.threads = check_threads;
    radius::BatchVerifier batch(scheme, cfg, t, options);
    const std::vector<core::Verdict> verdicts = run_each(batch, labs);
    for (std::size_t i = 0; i < labs.size(); ++i)
      identical = identical && same_verdict(verdicts[i], batch_verdicts[i]);
  }
  r.baseline_checked = std::min(baseline_checked, labs.size());
  for (std::size_t i = 0; i < r.baseline_checked; ++i)
    identical = identical &&
                same_verdict(radius::run_verifier_t_baseline(scheme, cfg,
                                                             labs[i], t),
                             batch_verdicts[i]);
  r.verdicts_identical = identical;
  PLS_ASSERT(identical);
  return r;
}

/// Scenario 3's result sheet.
struct IncrementalResult {
  std::size_t n = 0;
  unsigned t = 0;
  std::size_t labelings = 0;
  unsigned threads = 1;
  double full_ms = 0.0;    ///< run_one loop, warm atlas (full re-verify)
  double delta_ms = 0.0;   ///< one seeding run + run_delta per mutation
  double full_per_sec = 0.0;
  double delta_per_sec = 0.0;
  double speedup = 0.0;
  radius::DeltaStats delta_stats;
  double dirty_fraction = 0.0;       ///< avg re-swept centers / n per delta
  double full_phase_hit_rate = 0.0;  ///< atlas, full phase only
  double delta_phase_hit_rate = 0.0; ///< atlas, delta phase only
  std::size_t baseline_checked = 0;
  bool verdicts_identical = false;
};

/// Single-certificate mutation stream with the mutated node recorded per
/// step — the delta path's declared input.  labs[0] is the honest marking;
/// labs[i] replaces one certificate of labs[i-1] (donor copy or random
/// bits), touched[i-1] names the node.
struct MutationStream {
  std::vector<core::Labeling> labs;
  std::vector<graph::NodeIndex> touched;
};

MutationStream mutation_stream(const core::Scheme& scheme,
                               const local::Configuration& cfg,
                               std::size_t count, util::Rng& rng) {
  MutationStream stream;
  stream.labs.reserve(count);
  stream.labs.push_back(scheme.mark(cfg));
  const std::size_t n = cfg.n();
  while (stream.labs.size() < count) {
    core::Labeling next = stream.labs.back();
    const auto v = static_cast<graph::NodeIndex>(rng.below(n));
    if (rng.below(2) == 0) {
      next.certs[v] = next.certs[rng.below(n)];
    } else {
      next.certs[v] = local::random_state(rng.below(64), rng);
    }
    stream.labs.push_back(std::move(next));
    stream.touched.push_back(v);
  }
  return stream;
}

/// Replays the stream through run_delta on `verifier` (one full seeding run
/// for labs[0], then one delta per mutation).
std::vector<core::Verdict> replay_deltas(radius::BatchVerifier& verifier,
                                         const MutationStream& stream) {
  std::vector<core::Verdict> verdicts;
  verdicts.reserve(stream.labs.size());
  verdicts.push_back(verifier.run_one(stream.labs.front()));
  radius::LabelingDelta delta;
  delta.touched.resize(1);
  for (std::size_t i = 1; i < stream.labs.size(); ++i) {
    delta.touched[0] = stream.touched[i - 1];
    verdicts.push_back(verifier.run_delta(stream.labs[i], delta));
  }
  return verdicts;
}

IncrementalResult measure_incremental(const core::Scheme& scheme,
                                      const local::Configuration& cfg,
                                      unsigned t, unsigned threads,
                                      const MutationStream& stream,
                                      std::size_t baseline_checked,
                                      obs::MetricsRegistry& registry) {
  IncrementalResult r;
  r.n = cfg.n();
  r.t = t;
  r.labelings = stream.labs.size();
  r.threads = threads;

  // Both contenders share one warm atlas: geometry is scenario 2's subject,
  // not this one's, so it is built once up front and both phases run
  // steady-state.  Snapshot diffs (AtlasStats::since) bracket the phases for
  // per-phase hit rates — the retired reset_stats could misattribute
  // concurrent traffic to the wrong phase; a diff of two snapshots cannot.
  radius::BatchOptions options;
  options.threads = threads;
  options.atlas = std::make_shared<radius::GeometryAtlas>();
  options.metrics = &registry;
  radius::BatchVerifier full(scheme, cfg, t, options);
  radius::BatchVerifier delta(scheme, cfg, t, options);
  full.run_one(stream.labs.front());  // warm the shared geometry
  const radius::AtlasStats warm = options.atlas->stats();

  std::vector<core::Verdict> full_verdicts;
  {
    const auto start = std::chrono::steady_clock::now();
    full_verdicts = run_each(full, stream.labs);
    const auto stop = std::chrono::steady_clock::now();
    r.full_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
  }
  const radius::AtlasStats after_full = options.atlas->stats();
  r.full_phase_hit_rate = after_full.since(warm).hit_rate();

  std::vector<core::Verdict> delta_verdicts;
  {
    const auto start = std::chrono::steady_clock::now();
    delta_verdicts = replay_deltas(delta, stream);
    const auto stop = std::chrono::steady_clock::now();
    r.delta_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
  }
  r.delta_phase_hit_rate = options.atlas->stats().since(after_full).hit_rate();
  r.delta_stats = delta.delta_stats();

  const auto count = static_cast<double>(stream.labs.size());
  r.full_per_sec = count / (r.full_ms / 1000.0);
  r.delta_per_sec = count / (r.delta_ms / 1000.0);
  r.speedup = r.full_ms / r.delta_ms;
  r.dirty_fraction =
      r.delta_stats.delta_runs == 0
          ? 0.0
          : static_cast<double>(r.delta_stats.centers_reswept) /
                (static_cast<double>(r.delta_stats.delta_runs) *
                 static_cast<double>(cfg.n()));

  // Verdict identity: delta == full batch for EVERY labeling of the stream,
  // delta at threads {1, 2, hardware} over a prefix (untimed), and the
  // stream head against the naive reference engine.
  bool identical = full_verdicts.size() == delta_verdicts.size();
  for (std::size_t i = 0; identical && i < full_verdicts.size(); ++i)
    identical = same_verdict(full_verdicts[i], delta_verdicts[i]);
  const std::size_t prefix = std::min<std::size_t>(10, stream.labs.size());
  MutationStream head;
  head.labs.assign(stream.labs.begin(),
                   stream.labs.begin() + static_cast<std::ptrdiff_t>(prefix));
  head.touched.assign(
      stream.touched.begin(),
      stream.touched.begin() + static_cast<std::ptrdiff_t>(prefix - 1));
  for (const unsigned check_threads :
       {1u, 2u, util::ThreadPool::hardware_threads()}) {
    radius::BatchOptions check_options;
    check_options.threads = check_threads;
    check_options.atlas = options.atlas;
    radius::BatchVerifier check(scheme, cfg, t, check_options);
    const std::vector<core::Verdict> got = replay_deltas(check, head);
    for (std::size_t i = 0; identical && i < got.size(); ++i)
      identical = same_verdict(got[i], full_verdicts[i]);
  }
  r.baseline_checked = std::min(baseline_checked, stream.labs.size());
  for (std::size_t i = 0; identical && i < r.baseline_checked; ++i)
    identical = same_verdict(
        radius::run_verifier_t_baseline(scheme, cfg, stream.labs[i], t),
        full_verdicts[i]);
  r.verdicts_identical = identical;
  PLS_ASSERT(identical);
  return r;
}

// ---- Scenario 4: admission under budget pressure (zipf popularity) ------

/// Scenario 4's result sheet: a zipf-skewed delta stream replayed against a
/// budget-constrained atlas.
struct AdmissionResult {
  std::size_t n = 0;
  unsigned t = 0;
  std::size_t labelings = 0;
  unsigned threads = 1;
  double zipf_s = 0.0;
  std::size_t geometry_bytes = 0;  ///< all blocks resident (unconstrained)
  std::size_t byte_budget = 0;     ///< the constrained budget
  double ms = 0.0;                 ///< the timed delta phase
  double per_sec = 0.0;
  radius::AtlasStats stats;        ///< delta phase only
  bool verdicts_identical = false;
};

/// Mutation stream whose touched nodes are zipf-popular: rank r of the
/// sampler maps through a random permutation, so a handful of "hot" nodes —
/// and therefore the geometry blocks their radius-t balls live in — absorb
/// most of the delta traffic while the cold tail trickles.
MutationStream zipf_mutation_stream(const core::Scheme& scheme,
                                    const local::Configuration& cfg,
                                    std::size_t count, double s,
                                    util::Rng& rng) {
  const std::vector<std::uint64_t> perm = rng.permutation(cfg.n());
  const bench::ZipfSampler zipf(cfg.n(), s);
  MutationStream stream;
  stream.labs.reserve(count);
  stream.labs.push_back(scheme.mark(cfg));
  const std::size_t n = cfg.n();
  while (stream.labs.size() < count) {
    core::Labeling next = stream.labs.back();
    const auto v = static_cast<graph::NodeIndex>(perm[zipf.sample(rng)]);
    if (rng.below(2) == 0) {
      next.certs[v] = next.certs[rng.below(n)];
    } else {
      next.certs[v] = local::random_state(rng.below(64), rng);
    }
    stream.labs.push_back(std::move(next));
    stream.touched.push_back(v);
  }
  return stream;
}

AdmissionResult measure_admission(const core::Scheme& scheme,
                                  const local::Configuration& cfg, unsigned t,
                                  unsigned threads,
                                  const MutationStream& stream,
                                  double zipf_s) {
  AdmissionResult r;
  r.n = cfg.n();
  r.t = t;
  r.labelings = stream.labs.size();
  r.threads = threads;
  r.zipf_s = zipf_s;

  const auto replay = [&](const std::shared_ptr<radius::GeometryAtlas>& atlas,
                          radius::AtlasStats* delta_phase) {
    radius::BatchOptions options;
    options.threads = threads;
    options.atlas = atlas;
    radius::BatchVerifier verifier(scheme, cfg, t, options);
    std::vector<core::Verdict> verdicts;
    verdicts.reserve(stream.labs.size());
    // The reported stats cover the delta phase only (snapshot diff).
    verdicts.push_back(verifier.run_one(stream.labs.front()));
    const radius::AtlasStats warm = atlas->stats();
    radius::LabelingDelta delta;
    delta.touched.resize(1);
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 1; i < stream.labs.size(); ++i) {
      delta.touched[0] = stream.touched[i - 1];
      verdicts.push_back(verifier.run_delta(stream.labs[i], delta));
    }
    const auto stop = std::chrono::steady_clock::now();
    if (delta_phase != nullptr) {
      r.ms = std::chrono::duration<double, std::milli>(stop - start).count();
      *delta_phase = atlas->stats().since(warm);
    }
    return verdicts;
  };

  // Ground truth on an unconstrained atlas.  The honest seeding full takes
  // the clean path and builds nothing, so the residency after the replay is
  // the geometry the stream's dirty centers touch: the footprint the budget
  // then squeezes.
  auto full_atlas = std::make_shared<radius::GeometryAtlas>();
  const std::vector<core::Verdict> truth = replay(full_atlas, nullptr);
  r.geometry_bytes = full_atlas->stats().bytes_in_use;
  // A quarter of the geometry fits: one hot node's radius-t ball spans a
  // sizable block range on the grid, so the budget must reward keeping the
  // zipf head resident while staying far too small for the whole sweep.
  r.byte_budget = std::max<std::size_t>(1, r.geometry_bytes / 4);
  // Finer blocks than the default: a budget of a quarter of the geometry
  // then holds many blocks, so the zipf head and the cold tail compete
  // block by block.
  const std::vector<core::Verdict> got =
      replay(std::make_shared<radius::GeometryAtlas>(radius::AtlasOptions{
                 .byte_budget = r.byte_budget, .block_centers = 16}),
             &r.stats);
  r.per_sec = static_cast<double>(stream.labs.size() - 1) / (r.ms / 1000.0);

  // Admission is a performance property, never a correctness one: the
  // constrained replay must agree with the unconstrained ground truth.
  bool identical = got.size() == truth.size();
  for (std::size_t i = 0; identical && i < truth.size(); ++i)
    identical = same_verdict(got[i], truth[i]);
  r.verdicts_identical = identical;
  PLS_ASSERT(identical);
  return r;
}

/// Writes the admission-scenario object (nested under "admission" in the
/// top-level artifact; --admission-out wraps it as its own root).
void emit_admission(obs::JsonWriter& json, const AdmissionResult& r,
                    std::uint64_t seed) {
  json.begin_object();
  json.kv("bench", "verify_admission");
  json.kv("seed", seed);
  json.kv("n", r.n);
  json.kv("t", r.t);
  json.kv("labelings", r.labelings);
  json.kv("threads", r.threads);
  json.kv("zipf_s", r.zipf_s);
  json.kv("geometry_bytes", r.geometry_bytes);
  json.kv("byte_budget", r.byte_budget);
  json.kv("ms", r.ms);
  json.kv("labelings_per_sec", r.per_sec);
  json.kv("hit_rate", r.stats.hit_rate());
  json.kv("evictions", r.stats.evictions);
  json.kv("bypassed", r.stats.bypassed);
  json.kv("verdicts_identical", r.verdicts_identical);
  json.end_object();
}

/// The t = 8 row (always measured), where ball geometry dominates a cold
/// session.
const Row& t8_row(const std::vector<Row>& rows) {
  const auto it = std::find_if(rows.begin(), rows.end(),
                               [](const Row& r) { return r.t == 8; });
  PLS_REQUIRE(it != rows.end());
  return *it;
}

double t8_speedup_sequential(const std::vector<Row>& rows) {
  const Row& r = t8_row(rows);
  return r.baseline_ms / r.session_seq_ms;
}

/// Writes the incremental-scenario object into an in-progress document (the
/// top-level artifact nests it; --incremental-out wraps it as its own root).
void emit_incremental(obs::JsonWriter& json, const IncrementalResult& r,
                      const obs::MetricsSnapshot& metrics,
                      std::uint64_t seed) {
  json.begin_object();
  json.kv("bench", "verify_incremental");
  json.kv("seed", seed);
  json.kv("n", r.n);
  json.kv("t", r.t);
  json.kv("labelings", r.labelings);
  json.kv("threads", r.threads);
  json.kv("full_ms", r.full_ms);
  json.kv("delta_ms", r.delta_ms);
  json.kv("full_labelings_per_sec", r.full_per_sec);
  json.kv("delta_labelings_per_sec", r.delta_per_sec);
  json.kv("speedup", r.speedup);
  json.kv("delta_runs", r.delta_stats.delta_runs);
  json.kv("certs_reparsed", r.delta_stats.certs_reparsed);
  json.kv("links_incremental", r.delta_stats.links_incremental);
  json.kv("centers_reswept", r.delta_stats.centers_reswept);
  json.kv("verdicts_carried", r.delta_stats.verdicts_carried);
  json.kv("dirty_fraction", r.dirty_fraction);
  json.kv("full_phase_hit_rate", r.full_phase_hit_rate);
  json.kv("delta_phase_hit_rate", r.delta_phase_hit_rate);
  json.kv("baseline_checked", r.baseline_checked);
  json.kv("verdicts_identical", r.verdicts_identical);
  json.key("metrics");
  metrics.write_json(json);
  json.end_object();
}

void emit_batch(obs::JsonWriter& json, const BatchResult& b,
                const obs::MetricsSnapshot& metrics, std::uint64_t seed) {
  json.begin_object();
  json.kv("bench", "verify_batch");
  json.kv("seed", seed);
  json.kv("n", b.n);
  json.kv("t", b.t);
  json.kv("labelings", b.labelings);
  json.kv("threads", b.threads);
  json.kv("rebuild_ms", b.rebuild_ms);
  json.kv("batch_ms", b.batch_ms);
  json.kv("rebuild_labelings_per_sec", b.rebuild_per_sec);
  json.kv("batch_labelings_per_sec", b.batch_per_sec);
  json.kv("speedup", b.speedup);
  json.kv("atlas_hits", b.atlas.hits);
  json.kv("atlas_misses", b.atlas.misses);
  json.kv("atlas_hit_rate", b.atlas.hit_rate());
  json.kv("atlas_evictions", b.atlas.evictions);
  json.kv("atlas_bytes_in_use", b.atlas.bytes_in_use);
  json.kv("atlas_peak_bytes", b.atlas.peak_bytes);
  json.kv("baseline_checked", b.baseline_checked);
  json.kv("verdicts_identical", b.verdicts_identical);
  json.key("metrics");
  metrics.write_json(json);
  json.end_object();
}

void emit(std::ostream& out, const std::vector<Row>& rows,
          const BatchResult& batch, const obs::MetricsSnapshot& batch_metrics,
          const IncrementalResult& incremental,
          const obs::MetricsSnapshot& incr_metrics,
          const AdmissionResult& admission,
          double disabled_span_ns, std::uint64_t seed) {
  const double t8_speedup_seq = t8_speedup_sequential(rows);
  const double t8_speedup_par =
      t8_row(rows).baseline_ms / t8_row(rows).session_par_ms;
  obs::JsonWriter json(out);
  json.begin_object();
  json.kv("bench", "verify_scale");
  json.kv("id_space", kIdSpace);
  json.kv("seed", seed);
  json.kv("t8_speedup_sequential", t8_speedup_seq);
  json.kv("t8_speedup_parallel", t8_speedup_par);
  json.kv("disabled_span_ns", disabled_span_ns);
  json.key("rows");
  json.begin_array();
  for (const Row& r : rows) {
    json.begin_object();
    json.kv("scheme", r.scheme);
    json.kv("n", r.n);
    json.kv("t", r.t);
    json.kv("max_cert_bits", r.max_cert_bits);
    json.kv("avg_cert_bits", r.avg_cert_bits);
    json.kv("baseline_ms", r.baseline_ms);
    json.kv("session_seq_ms", r.session_seq_ms);
    json.kv("session_par_ms", r.session_par_ms);
    json.key("cold_speedups");
    json.begin_array();
    for (const double x : r.cold_speedups) json.value(x);
    json.end_array();
    json.kv("threads", r.threads);
    json.kv("verdicts_identical", r.verdicts_identical);
    json.end_object();
  }
  json.end_array();
  json.key("batch");
  emit_batch(json, batch, batch_metrics, seed);
  json.key("incremental");
  emit_incremental(json, incremental, incr_metrics, seed);
  json.key("admission");
  emit_admission(json, admission, seed);
  json.end_object();
  PLS_ASSERT(json.finished());
}

/// The observability tax when nothing observes: per-iteration cost of one
/// instrumented-but-disabled trace span (a relaxed atomic load, no clock
/// read).  The CI overhead gate bounds this number.
double disabled_span_cost_ns(std::size_t iters) {
  PLS_REQUIRE(!obs::TraceRecorder::enabled());
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    PLS_TRACE_SPAN("overhead.gate");
  }
  const auto stop = std::chrono::steady_clock::now();
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
          .count();
  return static_cast<double>(ns) / static_cast<double>(iters);
}

}  // namespace

int main(int argc, char** argv) {
  bench::CliArgs args(argc, argv);
  const bool smoke = args.take_flag("smoke");
  const std::string out_path = args.take_value("out").value_or("");
  const std::string batch_out_path = args.take_value("batch-out").value_or("");
  const std::string incremental_out_path =
      args.take_value("incremental-out").value_or("");
  const std::string trace_out_path = args.take_value("trace-out").value_or("");
  const std::uint64_t seed = args.take_seed(kDefaultSeed);
  const unsigned threads =
      args.take_unsigned("threads", util::ThreadPool::hardware_threads());
  const unsigned batch_t = args.take_unsigned("t", 8);
  const std::size_t labeling_count =
      args.take_size("labelings", smoke ? 16 : 100);
  const double require_batch_speedup =
      args.take_double("require-batch-speedup", 0.0);
  const double require_cold_session_speedup =
      args.take_double("require-cold-session-speedup", 0.0);
  const double require_incremental_speedup =
      args.take_double("require-incremental-speedup", 0.0);
  const double max_disabled_span_ns =
      args.take_double("max-disabled-span-ns", 0.0);
  const std::string admission_out_path =
      args.take_value("admission-out").value_or("");
  const double zipf_s = args.take_double("zipf-s", 1.0);
  const double require_admission_hit_rate =
      args.take_double("require-admission-hit-rate", 0.0);
  if (!args.finish("bench_verify_scale [--smoke] [--out FILE] "
                   "[--batch-out FILE] [--incremental-out FILE] "
                   "[--trace-out FILE] [--admission-out FILE] "
                   "[--seed S] [--threads T] [--t T] [--labelings L] "
                   "[--require-batch-speedup X] "
                   "[--require-cold-session-speedup R] "
                   "[--require-incremental-speedup X] "
                   "[--max-disabled-span-ns X] [--zipf-s S] "
                   "[--require-admission-hit-rate R]"))
    return 2;
  PLS_REQUIRE(batch_t >= 1 && labeling_count >= 1 && threads >= 1);

  const std::size_t n = smoke ? 1024 : 4096;
  util::Rng rng(seed);
  graph::Graph base_graph = graph::random_connected(n, n / 2, rng);
  auto g = std::make_shared<const graph::Graph>(
      graph::relabel_random(base_graph, rng, kIdSpace));

  const schemes::StpLanguage language;
  const schemes::StpScheme stp(language);
  const local::Configuration cfg = language.sample_legal(g, rng);

  std::vector<Row> rows;
  for (const unsigned t : {1u, 2u, 4u, 8u}) {
    if (t == 1) {
      rows.push_back(measure(stp, cfg, 1, threads));
    } else {
      const radius::FragmentSpreadScheme spread(stp, t);
      rows.push_back(measure(spread, cfg, t, threads));
    }
    const Row& r = rows.back();
    std::cerr << r.scheme << " n=" << r.n << " t=" << r.t
              << " max_bits=" << r.max_cert_bits
              << " baseline_ms=" << r.baseline_ms
              << " session_seq_ms=" << r.session_seq_ms
              << " session_par_ms=" << r.session_par_ms << "\n";
  }

  // Scenario 2: the adversary-style batch.  Oracle every labeling against
  // the naive engine under --smoke; at full size the naive engine takes
  // ~10 s per labeling, so oracle only the first two (the batch/rebuild/
  // thread-count cross-checks still cover all of them).
  const radius::FragmentSpreadScheme batch_spread(stp, batch_t);
  const core::Scheme& batch_scheme =
      batch_t == 1 ? static_cast<const core::Scheme&>(stp)
                   : static_cast<const core::Scheme&>(batch_spread);
  util::Rng batch_rng(seed ^ kBatchSalt);
  const std::vector<core::Labeling> labs =
      candidate_labelings(batch_scheme, cfg, labeling_count, batch_rng);
  obs::MetricsRegistry batch_registry;
  const BatchResult batch =
      measure_batch(batch_scheme, cfg, batch_t, threads, labs,
                    smoke ? labs.size() : 2, batch_registry,
                    !trace_out_path.empty());
  const obs::MetricsSnapshot batch_metrics = batch_registry.snapshot();
  {
    const obs::HistogramSnapshot& sweep =
        batch_metrics.histograms.at("verify.sweep_window_ns");
    const obs::HistogramSnapshot& e2e =
        batch_metrics.histograms.at("verify.e2e_ns");
    std::cerr << "batch n=" << batch.n << " t=" << batch.t
              << " labelings=" << batch.labelings
              << " threads=" << batch.threads
              << " rebuild_ms=" << batch.rebuild_ms
              << " batch_ms=" << batch.batch_ms << " speedup=" << batch.speedup
              << " atlas_hit_rate=" << batch.atlas.hit_rate()
              << " e2e_p50_us=" << static_cast<double>(e2e.quantile(0.5)) / 1e3
              << " e2e_p99_us=" << static_cast<double>(e2e.quantile(0.99)) / 1e3
              << " sweep_p50_us="
              << static_cast<double>(sweep.quantile(0.5)) / 1e3
              << " sweep_p99_us="
              << static_cast<double>(sweep.quantile(0.99)) / 1e3 << "\n";
  }
  if (!trace_out_path.empty()) {
    std::ofstream trace_out(trace_out_path);
    if (!trace_out) {
      std::cerr << "cannot open " << trace_out_path << "\n";
      return 1;
    }
    obs::TraceRecorder::export_chrome_trace(trace_out);
    std::cout << "wrote " << trace_out_path << "\n";
  }

  // Scenario 3: the incremental delta stream.  Always n = 4096 — the dirty
  // fraction (mutated node's ball / n) is what the speedup measures, so a
  // smaller smoke instance would gate a different quantity; --smoke keeps
  // the stream short instead.  The topology is a 64x64 grid: incremental
  // verification is a *locality* play, and the grid is the bounded-growth
  // regime the t-PLS tradeoff targets — |B(v, 8)| <= 145 = 3.5% of n, so
  // re-sweeping only the dirty ball can win big.  (On the random
  // random_connected(n, n/2) instance of scenarios 1-2 the radius-8 ball
  // already covers ~2/3 of the graph — its random-attachment spanning tree
  // has O(log n) depth — and NO delta scheme can beat ~1.5x there; the
  // emitted dirty_fraction makes that boundary explicit.)
  const std::size_t incr_side = 64;
  IncrementalResult incremental;
  obs::MetricsRegistry incr_registry;
  {
    util::Rng incr_rng(seed ^ kIncrementalSalt);
    graph::Graph incr_base = graph::grid(incr_side, incr_side);
    auto incr_g = std::make_shared<const graph::Graph>(
        graph::relabel_random(incr_base, incr_rng, kIdSpace));
    const local::Configuration incr_cfg =
        language.sample_legal(incr_g, incr_rng);
    const radius::FragmentSpreadScheme incr_spread(stp, batch_t);
    const core::Scheme& incr_scheme =
        batch_t == 1 ? static_cast<const core::Scheme&>(stp)
                     : static_cast<const core::Scheme&>(incr_spread);
    const MutationStream stream =
        mutation_stream(incr_scheme, incr_cfg, labeling_count, incr_rng);
    incremental = measure_incremental(incr_scheme, incr_cfg, batch_t, threads,
                                      stream, smoke ? 1 : 2, incr_registry);
    const obs::MetricsSnapshot snap = incr_registry.snapshot();
    const obs::HistogramSnapshot& delta_e2e =
        snap.histograms.at("delta.e2e_ns");
    std::cerr << "incremental n=" << incremental.n << " t=" << incremental.t
              << " labelings=" << incremental.labelings
              << " threads=" << incremental.threads
              << " full_ms=" << incremental.full_ms
              << " delta_ms=" << incremental.delta_ms
              << " speedup=" << incremental.speedup
              << " dirty_fraction=" << incremental.dirty_fraction
              << " delta_phase_hit_rate=" << incremental.delta_phase_hit_rate
              << " delta_e2e_p50_us="
              << static_cast<double>(delta_e2e.quantile(0.5)) / 1e3
              << " delta_e2e_p99_us="
              << static_cast<double>(delta_e2e.quantile(0.99)) / 1e3 << "\n";
  }
  const obs::MetricsSnapshot incr_metrics = incr_registry.snapshot();

  // Scenario 4: admission.  Same bounded-growth grid as scenario 3 (the
  // skew is over *blocks*, so the instance must have many distinct blocks
  // with local balls), a delta stream whose touched nodes are zipf-popular,
  // and an atlas budget holding a quarter of the geometry, so LRU evicts
  // under pressure while the hot head stays resident.  The stream length is
  // fixed (independent of --labelings) so the hit rate is measured over the
  // same traffic under --smoke.
  AdmissionResult admission;
  {
    util::Rng adm_rng(seed ^ kAdmissionSalt);
    graph::Graph adm_base = graph::grid(incr_side, incr_side);
    auto adm_g = std::make_shared<const graph::Graph>(
        graph::relabel_random(adm_base, adm_rng, kIdSpace));
    const local::Configuration adm_cfg = language.sample_legal(adm_g, adm_rng);
    // t = 2, not batch_t: admission is a block-traffic property, and a
    // radius-8 ball spans a third of the grid's rows — smearing every
    // node's popularity over dozens of blocks until the key stream is
    // nearly uniform.  A t = 2 ball stays within a couple of blocks, so the
    // zipf skew lands on block keys undiluted.
    const unsigned adm_t = 2;
    const radius::FragmentSpreadScheme adm_scheme(stp, adm_t);
    const MutationStream adm_stream = zipf_mutation_stream(
        adm_scheme, adm_cfg, smoke ? 48 : 160, zipf_s, adm_rng);
    admission = measure_admission(adm_scheme, adm_cfg, adm_t, threads,
                                  adm_stream, zipf_s);
    std::cerr << "admission n=" << admission.n << " t=" << admission.t
              << " labelings=" << admission.labelings
              << " zipf_s=" << admission.zipf_s
              << " budget=" << admission.byte_budget << "/"
              << admission.geometry_bytes
              << " hit_rate=" << admission.stats.hit_rate()
              << " evictions=" << admission.stats.evictions
              << " bypassed=" << admission.stats.bypassed
              << " per_sec=" << admission.per_sec << "\n";
  }

  const double disabled_span_ns = disabled_span_cost_ns(1u << 20);
  std::cerr << "disabled_span_ns=" << disabled_span_ns << "\n";

  if (out_path.empty()) {
    emit(std::cout, rows, batch, batch_metrics, incremental, incr_metrics,
         admission, disabled_span_ns, seed);
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cannot open " << out_path << "\n";
      return 1;
    }
    emit(out, rows, batch, batch_metrics, incremental, incr_metrics,
         admission, disabled_span_ns, seed);
    std::cout << "wrote " << out_path << "\n";
  }
  if (!batch_out_path.empty()) {
    std::ofstream out(batch_out_path);
    if (!out) {
      std::cerr << "cannot open " << batch_out_path << "\n";
      return 1;
    }
    obs::JsonWriter json(out);
    emit_batch(json, batch, batch_metrics, seed);
    PLS_ASSERT(json.finished());
    std::cout << "wrote " << batch_out_path << "\n";
  }
  if (!incremental_out_path.empty()) {
    std::ofstream out(incremental_out_path);
    if (!out) {
      std::cerr << "cannot open " << incremental_out_path << "\n";
      return 1;
    }
    obs::JsonWriter json(out);
    emit_incremental(json, incremental, incr_metrics, seed);
    PLS_ASSERT(json.finished());
    std::cout << "wrote " << incremental_out_path << "\n";
  }
  if (!admission_out_path.empty()) {
    std::ofstream out(admission_out_path);
    if (!out) {
      std::cerr << "cannot open " << admission_out_path << "\n";
      return 1;
    }
    obs::JsonWriter json(out);
    emit_admission(json, admission, seed);
    PLS_ASSERT(json.finished());
    std::cout << "wrote " << admission_out_path << "\n";
  }

  if (require_cold_session_speedup > 0.0) {
    // A fresh verifier per run, so both sides build every block cold: the
    // parallel side's slots must build distinct blocks concurrently.  The
    // gate reads the median of the row's alternating pairs.  The bound
    // assumes >= 4 slots; below that it is out of reach whatever the code
    // does (2 slots top out near 2x), so the gate only reports.
    const Row& r = t8_row(rows);
    const double speedup = median(r.cold_speedups);
    std::ostringstream what;
    what << "t=8 cold session speedup " << speedup << " (median of";
    for (const double x : r.cold_speedups) what << " " << x;
    what << ") at " << r.threads << " threads";
    if (r.threads < 4) {
      std::cerr << what.str() << ": gate skipped (needs >= 4)\n";
    } else if (speedup < require_cold_session_speedup) {
      std::cerr << "FAIL: " << what.str() << " < required "
                << require_cold_session_speedup << "\n";
      return 1;
    } else {
      std::cerr << what.str() << " >= required "
                << require_cold_session_speedup << "\n";
    }
  }
  if (require_batch_speedup > 0.0) {
    if (batch.speedup < require_batch_speedup) {
      std::cerr << "FAIL: batch speedup " << batch.speedup << " < required "
                << require_batch_speedup << "\n";
      return 1;
    }
    std::cerr << "batch speedup " << batch.speedup << " >= required "
              << require_batch_speedup << "\n";
  }
  if (require_incremental_speedup > 0.0) {
    if (incremental.speedup < require_incremental_speedup) {
      std::cerr << "FAIL: incremental speedup " << incremental.speedup
                << " < required " << require_incremental_speedup << "\n";
      return 1;
    }
    std::cerr << "incremental speedup " << incremental.speedup
              << " >= required " << require_incremental_speedup << "\n";
  }
  if (require_admission_hit_rate > 0.0) {
    const double hit_rate = admission.stats.hit_rate();
    if (hit_rate < require_admission_hit_rate) {
      std::cerr << "FAIL: admission hit rate " << hit_rate << " < required "
                << require_admission_hit_rate << "\n";
      return 1;
    }
    std::cerr << "admission hit rate " << hit_rate << " >= required "
              << require_admission_hit_rate << "\n";
  }
  if (max_disabled_span_ns > 0.0) {
    if (disabled_span_ns > max_disabled_span_ns) {
      std::cerr << "FAIL: disabled span costs " << disabled_span_ns
                << " ns > allowed " << max_disabled_span_ns << "\n";
      return 1;
    }
    std::cerr << "disabled span " << disabled_span_ns << " ns <= allowed "
              << max_disabled_span_ns << "\n";
  }
  return 0;
}

// BatchVerifier: a loop of run_one calls on one verifier must be
// bit-identical to the naive reference engine at every thread count, even
// though the parse cache, verdict bytes, link table and atlas persist from
// one labeling to the next — a stale or crossed parse would be a reuse bug,
// not a logic bug.  These tests pin that down (certificates swapped between
// consecutive labelings, aliased labelings freed after the run), plus the
// stage metrics a full run records.
#include "radius/batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "obs/metrics.hpp"
#include "radius/fragment_spread.hpp"
#include "schemes/mst.hpp"
#include "schemes/registry.hpp"
#include "schemes/spanning_tree.hpp"
#include "testing/helpers.hpp"

namespace pls::radius {
namespace {

using core::Labeling;
using core::Verdict;
using pls::testing::share;

std::shared_ptr<const graph::Graph> graph_for(
    const schemes::SchemeEntry& entry, util::Rng& rng) {
  if (entry.needs_weighted)
    return share(
        graph::reweight_random(graph::random_connected(16, 10, rng), rng));
  if (entry.needs_bipartite) return share(graph::grid(2, 8));
  return share(graph::random_connected(16, 10, rng));
}

Labeling random_labeling(std::size_t n, util::Rng& rng) {
  Labeling lab;
  for (std::size_t v = 0; v < n; ++v)
    lab.certs.push_back(local::random_state(rng.below(96), rng));
  return lab;
}

/// One run_one per labeling, in order, on the same verifier.
std::vector<Verdict> run_each(BatchVerifier& verifier,
                              std::span<const Labeling> labs) {
  std::vector<Verdict> verdicts;
  for (const Labeling& lab : labs) verdicts.push_back(verifier.run_one(lab));
  return verdicts;
}

void expect_batch_equals_baselines(const core::Scheme& scheme,
                                   const local::Configuration& cfg,
                                   unsigned t,
                                   std::span<const Labeling> labs,
                                   const std::string& label) {
  std::vector<Verdict> oracle;
  oracle.reserve(labs.size());
  for (const Labeling& lab : labs)
    oracle.push_back(run_verifier_t_baseline(scheme, cfg, lab, t));

  for (const unsigned threads : {1u, 2u, util::ThreadPool::hardware_threads()}) {
    const BatchOptions options = pls::testing::split_sweep_options(threads);
    BatchVerifier batch(scheme, cfg, t, options);
    const std::vector<Verdict> got = run_each(batch, labs);
    ASSERT_EQ(got.size(), labs.size());
    for (std::size_t i = 0; i < labs.size(); ++i)
      EXPECT_EQ(oracle[i].accept(), got[i].accept())
          << label << " labeling " << i << " threads " << threads;
  }
}

// Registry-wide: every scheme, honest + garbage batches, all thread counts.
TEST(BatchVerifier, RegistryBatchesMatchPerLabelingBaseline) {
  util::Rng rng(50901);
  for (const schemes::SchemeEntry& entry : schemes::standard_catalog()) {
    auto g = graph_for(entry, rng);
    const local::Configuration cfg = entry.language->sample_legal(g, rng);
    std::vector<Labeling> labs;
    labs.push_back(entry.scheme->mark(cfg));
    for (int i = 0; i < 3; ++i) labs.push_back(random_labeling(cfg.n(), rng));
    expect_batch_equals_baselines(*entry.scheme, cfg, 1, labs,
                                  entry.label + "/plain");

    const FragmentSpreadScheme spread(*entry.scheme, 2);
    std::vector<Labeling> spread_labs;
    spread_labs.push_back(spread.mark(cfg));
    for (int i = 0; i < 3; ++i)
      spread_labs.push_back(random_labeling(cfg.n(), rng));
    expect_batch_equals_baselines(spread, cfg, 2, spread_labs,
                                  entry.label + "/spread");
  }
}

// Certificates SWAP between consecutive labelings of a run_one loop.  If any
// stage-2 parse survived a labeling change in the verifier's reused parse
// cache, these verdicts would diverge from the per-labeling oracle — nodes
// would be judged on another labeling's parse.
TEST(BatchVerifier, SwappedCertificatesAcrossBatchNeverReuseStaleParses) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const FragmentSpreadScheme spread(base, 4);
  util::Rng rng(50902);
  auto g = share(graph::random_connected(22, 14, rng));
  const local::Configuration cfg = language.sample_legal(g, rng);

  const Labeling honest = spread.mark(cfg);
  std::vector<Labeling> labs;
  labs.push_back(honest);
  // Alternate: full rotation, selective swaps, back to honest — adjacent
  // labelings differ exactly where a stale parse would bite.
  Labeling rotated = honest;
  std::rotate(rotated.certs.begin(), rotated.certs.begin() + 1,
              rotated.certs.end());
  labs.push_back(rotated);
  labs.push_back(honest);
  Labeling swapped = honest;
  for (std::size_t v = 0; v + 1 < swapped.certs.size(); v += 2)
    std::swap(swapped.certs[v], swapped.certs[v + 1]);
  labs.push_back(swapped);
  labs.push_back(honest);
  Labeling malformed = honest;
  malformed.certs[3] = local::Certificate{};
  labs.push_back(malformed);
  labs.push_back(honest);

  expect_batch_equals_baselines(spread, cfg, 4, labs, "swap-batch");
}

// Rounds of run_one on one verifier at threads = 2, each round a tampered
// labeling and then a honest/tampered/honest sequence: the shared atlas and
// buffers must not leak state from one labeling to the next.
TEST(BatchVerifier, RepeatedRunOneRoundsNeverLeakState) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const FragmentSpreadScheme spread(base, 2);
  util::Rng rng(50903);
  auto g = share(graph::grid(4, 5));
  const local::Configuration cfg = language.sample_legal(g, rng);
  const Labeling honest = spread.mark(cfg);

  BatchOptions options;
  options.threads = 2;
  BatchVerifier batch(spread, cfg, 2, options);
  for (int round = 0; round < 3; ++round) {
    Labeling tampered = honest;
    tampered.certs[rng.below(cfg.n())] = local::random_state(24, rng);
    EXPECT_EQ(batch.run_one(tampered).accept(),
              run_verifier_t_baseline(spread, cfg, tampered, 2).accept());
    std::vector<Labeling> labs = {honest, tampered, honest};
    const std::vector<Verdict> got = run_each(batch, labs);
    for (std::size_t i = 0; i < labs.size(); ++i)
      EXPECT_EQ(got[i].accept(),
                run_verifier_t_baseline(spread, cfg, labs[i], 2).accept());
  }
  // Geometry was shared across all of it: exactly one build per block.
  EXPECT_GT(batch.atlas().stats().hits, 0u);
}

TEST(BatchVerifier, InputValidation) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const FragmentSpreadScheme spread(base, 4);
  auto g = share(graph::path(5));
  const auto cfg = language.make_tree(g, 0);

  BatchVerifier batch(spread, cfg, 4);
  Labeling wrong;
  wrong.certs.assign(2, local::Certificate{});
  EXPECT_THROW(batch.run_one(wrong), std::logic_error);
  EXPECT_THROW(BatchVerifier(spread, cfg, 0), std::logic_error);
  EXPECT_THROW(BatchVerifier(spread, cfg, 2), std::logic_error);
}

// The throughput claim's correctness half, in miniature: a run_one loop over
// one shared atlas equals the rebuild-every-run loop (budget-0 atlas) verdict
// for verdict.
TEST(BatchVerifier, WarmAtlasEqualsRebuildLoop) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const FragmentSpreadScheme spread(base, 4);
  util::Rng rng(50904);
  auto g = share(graph::random_connected(28, 16, rng));
  const local::Configuration cfg = language.sample_legal(g, rng);

  std::vector<Labeling> labs;
  labs.push_back(spread.mark(cfg));
  for (int i = 0; i < 5; ++i) {
    Labeling next = labs.back();
    next.certs[rng.below(cfg.n())] = local::random_state(rng.below(48), rng);
    labs.push_back(std::move(next));
  }

  BatchOptions warm_options;
  warm_options.threads = 1;
  BatchVerifier warm(spread, cfg, 4, warm_options);

  BatchOptions cold_options;
  cold_options.threads = 1;
  cold_options.atlas = std::make_shared<GeometryAtlas>(
      AtlasOptions{.byte_budget = 0, .block_centers = 16});
  BatchVerifier cold(spread, cfg, 4, cold_options);

  const std::vector<Verdict> warm_verdicts = run_each(warm, labs);
  for (std::size_t i = 0; i < labs.size(); ++i)
    EXPECT_EQ(warm_verdicts[i].accept(), cold.run_one(labs[i]).accept());

  EXPECT_GT(warm.atlas().stats().hits, 0u);
  EXPECT_EQ(cold.atlas().stats().hits, 0u);
  EXPECT_EQ(cold.atlas().stats().bytes_in_use, 0u);
}

/// A deliberately skewed instance: a dense chorded ring on the lowest
/// `core` indices (fat radius-t balls, all in the first chunks' home slot)
/// with `chains` sparse tails of `chain_len` nodes hanging off it (tiny
/// balls).  The shape the work-stealing sweep exists for.
graph::Graph skewed_core_chain_graph(std::size_t core, std::size_t chains,
                                     std::size_t chain_len) {
  graph::Graph::Builder b;
  const std::size_t n = core + chains * chain_len;
  for (std::size_t v = 0; v < n; ++v)
    b.add_node(static_cast<graph::RawId>(v));
  for (std::size_t v = 0; v < core; ++v)
    b.add_edge(static_cast<graph::NodeIndex>(v),
               static_cast<graph::NodeIndex>((v + 1) % core));
  // Deterministic chords (strides coprime-ish to the ring, distinct from
  // each other's complements) — dense without duplicate edges.
  for (const std::size_t stride : {std::size_t{5}, std::size_t{11}}) {
    for (std::size_t v = 0; v < core; ++v)
      b.add_edge(static_cast<graph::NodeIndex>(v),
                 static_cast<graph::NodeIndex>((v + stride) % core));
  }
  std::size_t next = core;
  for (std::size_t c = 0; c < chains; ++c) {
    auto prev = static_cast<graph::NodeIndex>(c % core);
    for (std::size_t i = 0; i < chain_len; ++i) {
      const auto v = static_cast<graph::NodeIndex>(next++);
      b.add_edge(prev, v);
      prev = v;
    }
  }
  return std::move(b).build();
}

// The scheduler gate: on the skewed instance, the work-stealing sweep must
// match the baseline engine bit for bit at threads {1, 2, hw} — for full
// runs and for the delta path's dirty re-sweep — even though
// the chunk assignment is nondeterministic.
TEST(BatchVerifier, SkewedInstanceIdenticalAcrossThreads) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const FragmentSpreadScheme spread(base, 4);
  util::Rng rng(50905);
  auto g = share(skewed_core_chain_graph(48, 12, 24));
  const local::Configuration cfg = language.sample_legal(g, rng);

  std::vector<Labeling> labs;
  labs.push_back(spread.mark(cfg));
  Labeling tampered_core = labs[0];
  tampered_core.certs[20] = local::random_state(32, rng);
  labs.push_back(tampered_core);
  labs.push_back(random_labeling(cfg.n(), rng));

  std::vector<Verdict> oracle;
  for (const Labeling& lab : labs)
    oracle.push_back(run_verifier_t_baseline(spread, cfg, lab, 4));

  // One fixed delta on top of the last labeling: a core cert and a
  // chain-tail cert flip back to honest.
  const auto tail = static_cast<graph::NodeIndex>(cfg.n() - 1);
  Labeling delta_next = labs.back();
  delta_next.certs[10] = labs[0].certs[10];
  delta_next.certs[tail] = labs[0].certs[tail];
  const Verdict delta_oracle =
      run_verifier_t_baseline(spread, cfg, delta_next, 4);

  for (const unsigned threads :
       {1u, 2u, util::ThreadPool::hardware_threads()}) {
    const BatchOptions options = pls::testing::split_sweep_options(threads);
    BatchVerifier batch(spread, cfg, 4, options);
    const std::vector<Verdict> got = run_each(batch, labs);
    ASSERT_EQ(got.size(), labs.size());
    for (std::size_t i = 0; i < labs.size(); ++i)
      EXPECT_EQ(oracle[i].accept(), got[i].accept())
          << "labeling " << i << " threads " << threads;
    LabelingDelta delta;
    delta.touched = {10, tail};
    EXPECT_EQ(batch.run_delta(delta_next, delta).accept(),
              delta_oracle.accept())
        << "delta threads " << threads;
  }
}

/// Delegates to `inner`, tripping `token` once `trip_after` nodes have been
/// verified: a cancellation that lands mid-sweep at a deterministic point.
/// Single-threaded use only (the call counter is unsynchronized).
class CancellingScheme final : public core::Scheme {
 public:
  CancellingScheme(const core::Scheme& inner, util::CancelToken& token,
                   std::size_t trip_after)
      : inner_(inner), token_(token), trip_after_(trip_after) {}

  std::string_view name() const noexcept override { return inner_.name(); }
  const core::Language& language() const noexcept override {
    return inner_.language();
  }
  local::Visibility visibility() const noexcept override {
    return inner_.visibility();
  }
  Labeling mark(const local::Configuration& cfg) const override {
    return inner_.mark(cfg);
  }
  bool verify(const local::VerifierContext& ctx) const override {
    if (++calls_ == trip_after_) token_.cancel();
    return inner_.verify(ctx);
  }
  std::size_t proof_size_bound(std::size_t n,
                               std::size_t state_bits) const override {
    return inner_.proof_size_bound(n, state_bits);
  }

 private:
  const core::Scheme& inner_;
  util::CancelToken& token_;
  std::size_t trip_after_;
  mutable std::size_t calls_ = 0;
};

// An abandoned sweep still did work inside its sweep window: the chunks it
// executed before the cancel and its slot's busy time must reach the
// verify.* counters, or pool.busy_frac under-reports exactly under overload.
TEST(BatchVerifier, CancelledSweepStillRecordsItsExecutedChunks) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  util::CancelToken token;
  // 64 nodes at threads = 1: default chunk = 64 / 16 = 4 centers.  The
  // token trips on the 10th verify (chunk 2); that chunk finishes, the next
  // claim is refused — 3 chunks executed out of 16.
  const CancellingScheme scheme(base, token, 10);
  auto g = share(graph::path(64));
  const local::Configuration cfg = language.make_tree(g, 0);
  const Labeling honest = base.mark(cfg);

  obs::MetricsRegistry registry;
  BatchOptions options;
  options.threads = 1;
  options.metrics = &registry;
  BatchVerifier verifier(scheme, cfg, 1, options);
  verifier.set_cancel(&token);
  EXPECT_THROW((void)verifier.run_one(honest), util::CancelledError);
  EXPECT_FALSE(verifier.has_resident());

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("verify.sweep_chunks"), 3u);
  EXPECT_EQ(snap.counters.at("verify.sweep_steals"), 0u);
  EXPECT_EQ(snap.histograms.at("verify.worker_busy_ns").count, 1u);
  EXPECT_EQ(snap.histograms.at("verify.sweep_window_ns").count, 1u);

  // The retry completes and adds all 16 chunks on top.
  token.reset();
  EXPECT_TRUE(verifier.run_one(honest).all_accept());
  EXPECT_EQ(registry.snapshot().counters.at("verify.sweep_chunks"), 3u + 16u);
}

// The first labeling's parallel parse runs on the same chunked pool path as
// the sweep, but it is not a sweep: only the sweep's chunks and busy time
// may reach the verify.sweep_* instruments.
TEST(BatchVerifier, ParallelParseIsNotCountedAsASweep) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const FragmentSpreadScheme spread(base, 2);
  auto g = share(graph::path(64));
  const local::Configuration cfg = language.make_tree(g, 0);

  obs::MetricsRegistry registry;
  BatchOptions options;
  options.threads = 1;  // the parse's default chunk = 64 / 16 = 4: 16 chunks
  options.metrics = &registry;
  BatchVerifier verifier(spread, cfg, 2, options);
  EXPECT_TRUE(verifier.run_one(spread.mark(cfg)).all_accept());

  // The sweep claims one chunk per atlas block: ceil(64 / 64) = 1.
  const std::size_t block = verifier.atlas().options().block_centers;
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("verify.sweep_chunks"),
            (cfg.n() + block - 1) / block);
  EXPECT_EQ(snap.histograms.at("verify.worker_busy_ns").count, 1u);
}

// A full sweep claims one atlas block per chunk and looks each block up
// exactly once, at every thread count and block size — including a block
// size that leaves a ragged tail block (7 does not divide 50) and one
// larger than the graph.  A cold run therefore builds every block and hits
// none (no slot ever waits on another's build of the same block); a warm
// rerun hits every block once.  Both labelings make every center dirty, so
// every center looks its block up, and both verdicts mix accepts with
// rejects, so a sweep that bound the wrong balls would not match them.
TEST(BatchVerifier, ColdFullSweepLooksUpEachBlockOnce) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const FragmentSpreadScheme spread(base, 2);
  util::Rng rng(50910);
  auto g = share(graph::random_connected(50, 30, rng));
  const local::Configuration cfg = language.sample_legal(g, rng);
  const Labeling first = pls::testing::beaconed_residues(spread, cfg, rng);
  Labeling second = first;
  second.certs[17] = local::random_state(40, rng);
  const Verdict first_oracle = run_verifier_t_baseline(spread, cfg, first, 2);
  const Verdict second_oracle = run_verifier_t_baseline(spread, cfg, second, 2);
  EXPECT_TRUE(pls::testing::mixed(first_oracle));
  EXPECT_TRUE(pls::testing::mixed(second_oracle));
  EXPECT_NE(first_oracle.accept(), second_oracle.accept());

  const std::size_t n = cfg.n();
  for (const unsigned threads : {1u, 2u, 4u}) {
    for (const std::size_t block : {std::size_t{1}, std::size_t{7},
                                    std::size_t{64}, n + 5}) {
      const std::size_t blocks = (n + block - 1) / block;
      BatchOptions options;
      options.threads = threads;
      options.atlas = std::make_shared<GeometryAtlas>(AtlasOptions{
          .block_centers = static_cast<std::uint32_t>(block)});
      BatchVerifier verifier(spread, cfg, 2, options);
      const std::string label = "threads " + std::to_string(threads) +
                                " block " + std::to_string(block);

      EXPECT_EQ(verifier.run_one(first).accept(), first_oracle.accept())
          << label;
      const AtlasStats cold = verifier.atlas().stats();
      EXPECT_EQ(cold.misses, blocks) << label;
      EXPECT_EQ(cold.hits, 0u) << label;

      EXPECT_EQ(verifier.run_one(second).accept(), second_oracle.accept())
          << label;
      const AtlasStats warm = verifier.atlas().stats().since(cold);
      EXPECT_EQ(warm.hits, blocks) << label;
      EXPECT_EQ(warm.misses, 0u) << label;
    }
  }
}

// The convoy gauge without a trace: a single verifier's cold 4-slot full
// sweep builds distinct blocks on every slot, so its lookups spend no time
// blocked on another slot's build while the builds themselves took time.
// Every center of the labeling is dirty, so the sweep looks every block up;
// its verdict mixes accepts with rejects.
TEST(BatchVerifier, ColdFullSweepNeverWaitsOnAnotherSlotsBuild) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const FragmentSpreadScheme spread(base, 4);
  util::Rng rng(50911);
  auto g = share(graph::random_connected(96, 60, rng));
  const local::Configuration cfg = language.sample_legal(g, rng);
  const Labeling lab = pls::testing::beaconed_residues(spread, cfg, rng);
  const Verdict oracle = run_verifier_t_baseline(spread, cfg, lab, 4);
  EXPECT_TRUE(pls::testing::mixed(oracle));

  BatchOptions options;
  options.threads = 4;
  options.atlas = std::make_shared<GeometryAtlas>(
      AtlasOptions{.block_centers = 4});  // 24 blocks for 4 slots
  BatchVerifier verifier(spread, cfg, 4, options);
  EXPECT_EQ(verifier.run_one(lab).accept(), oracle.accept());

  const AtlasStats stats = verifier.atlas().stats();
  EXPECT_EQ(stats.misses, 24u);
  EXPECT_EQ(stats.wait_ns, 0u);
  EXPECT_GT(stats.build_ns, 0u);
}

// An honest labeling has no witnesses, so a full run verifies every center
// on the clean path: the base decoder over memoized certificates, with no
// atlas lookup and no ball bound.  The verdict is still the reference
// engine's.
TEST(BatchVerifier, HonestFullRunTouchesNoGeometry) {
  const schemes::StpLanguage stp_language;
  const schemes::StpScheme stp(stp_language);
  const schemes::MstLanguage mst_language;
  const schemes::MstScheme mst(mst_language);
  util::Rng rng(50912);
  const auto check = [](const core::Scheme& base,
                        const local::Configuration& cfg, unsigned t) {
    const FragmentSpreadScheme spread(base, t);
    const Labeling honest = spread.mark(cfg);
    const Verdict oracle = run_verifier_t_baseline(spread, cfg, honest, t);
    for (const unsigned threads :
         {1u, 2u, util::ThreadPool::hardware_threads()}) {
      SCOPED_TRACE(::testing::Message()
                   << spread.name() << " threads " << threads);
      obs::MetricsRegistry registry;
      BatchOptions options = pls::testing::split_sweep_options(threads);
      options.metrics = &registry;
      BatchVerifier verifier(spread, cfg, t, options);
      EXPECT_EQ(verifier.run_one(honest).accept(), oracle.accept());
      const AtlasStats atlas = verifier.atlas().stats();
      EXPECT_EQ(atlas.hits + atlas.misses, 0u);
      const obs::MetricsSnapshot snap = registry.snapshot();
      EXPECT_EQ(snap.counters.at("verify.clean_centers"), cfg.n());
      EXPECT_EQ(snap.counters.at("verify.witnesses"), 0u);
    }
  };
  check(stp, stp_language.sample_legal(share(graph::grid(10, 10)), rng), 4);
  check(stp, stp_language.sample_legal(share(graph::grid(10, 10)), rng), 8);
  check(mst,
        mst_language.sample_legal(
            share(graph::reweight_random(graph::grid(8, 8), rng)), rng),
        4);
}

// verify.e2e_ns times the whole full run: stage 2 and the sweep window are
// nested inside it, so its sum bounds theirs exactly.
TEST(BatchVerifier, FullRunE2eCoversParseLinkAndSweep) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const FragmentSpreadScheme spread(base, 2);
  auto g = share(graph::path(64));
  const local::Configuration cfg = language.make_tree(g, 0);

  obs::MetricsRegistry registry;
  BatchOptions options;
  options.threads = 2;
  options.metrics = &registry;
  BatchVerifier verifier(spread, cfg, 2, options);
  EXPECT_TRUE(verifier.run_one(spread.mark(cfg)).all_accept());

  const obs::MetricsSnapshot snap = registry.snapshot();
  const obs::HistogramSnapshot& e2e = snap.histograms.at("verify.e2e_ns");
  const obs::HistogramSnapshot& parse =
      snap.histograms.at("verify.parse_link_ns");
  const obs::HistogramSnapshot& window =
      snap.histograms.at("verify.sweep_window_ns");
  EXPECT_EQ(e2e.count, 1u);
  EXPECT_EQ(parse.count, 1u);
  EXPECT_EQ(window.count, 1u);
  EXPECT_GE(e2e.sum, parse.sum + window.sum);
}

/// An aliased twin of `src`: one contiguous byte buffer (a stand-in for a
/// wire frame) plus a labeling whose certificates alias into it zero-copy.
struct AliasedCopy {
  Labeling lab;
  std::shared_ptr<std::vector<std::uint8_t>> buffer;
};

AliasedCopy alias_of(const Labeling& src) {
  AliasedCopy out;
  std::size_t total = 0;
  for (const local::Certificate& c : src.certs)
    total += (c.bit_size() + 7) / 8;
  out.buffer = std::make_shared<std::vector<std::uint8_t>>(total);
  std::size_t off = 0;
  for (const local::Certificate& c : src.certs) {
    const std::size_t nbytes = (c.bit_size() + 7) / 8;
    if (nbytes > 0) std::copy_n(c.data(), nbytes, out.buffer->data() + off);
    out.lab.certs.push_back(
        local::Certificate::aliasing(out.buffer->data() + off, c.bit_size()));
    off += nbytes;
  }
  return out;
}

// The zero-copy contract, producer side: aliased labelings are bit-identical
// to owned ones, and the producer may free every buffer — labelings AND
// bytes — the moment the last run_one returns.  The verifier holds nothing
// of them: parses own their bytes, so the post-run delta below reads no
// freed memory (the ASan job proves it).
TEST(BatchVerifier, AliasedLabelingsMatchOwnedAndOutliveTheProducer) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const FragmentSpreadScheme spread(base, 2);
  util::Rng rng(50906);
  auto g = share(graph::random_connected(18, 10, rng));
  const local::Configuration cfg = language.sample_legal(g, rng);
  const Labeling honest = spread.mark(cfg);
  Labeling tampered = honest;
  tampered.certs[5] = local::random_state(32, rng);
  const std::vector<Labeling> owned = {honest, tampered, honest};

  Labeling delta_next = honest;
  delta_next.certs[2] = local::random_state(24, rng);
  LabelingDelta delta;
  delta.touched = {2};
  const Verdict delta_oracle =
      run_verifier_t_baseline(spread, cfg, delta_next, 2);

  for (const unsigned threads : {1u, 2u}) {
    const BatchOptions options = pls::testing::split_sweep_options(threads);
    BatchVerifier batch(spread, cfg, 2, options);
    {
      std::vector<AliasedCopy> aliased;
      std::vector<Labeling> labs;
      for (const Labeling& lab : owned) {
        aliased.push_back(alias_of(lab));
        labs.push_back(aliased.back().lab);
      }
      const std::vector<Verdict> got = run_each(batch, labs);
      ASSERT_EQ(got.size(), owned.size());
      for (std::size_t i = 0; i < owned.size(); ++i)
        EXPECT_EQ(got[i].accept(),
                  run_verifier_t_baseline(spread, cfg, owned[i], 2).accept())
            << "labeling " << i << " threads " << threads;
      // Producer teardown: every alias and every buffer is freed here.
    }
    EXPECT_EQ(batch.run_delta(delta_next, delta).accept(),
              delta_oracle.accept())
        << "threads " << threads;
  }
}

// The other direction of the contract: once run_one has returned, the
// engine holds no raw-byte dependence on the labeling's buffer — the
// producer may scribble over it, and resident state (parse cache, verdict
// bytes, delta base) is unaffected.
TEST(BatchVerifier, BufferMutationAfterRunReturnsCannotChangeVerdicts) {
  const schemes::StpLanguage language;
  const schemes::StpScheme base(language);
  const FragmentSpreadScheme spread(base, 2);
  util::Rng rng(50907);
  auto g = share(graph::random_connected(18, 10, rng));
  const local::Configuration cfg = language.sample_legal(g, rng);
  const Labeling honest = spread.mark(cfg);

  Labeling delta_next = honest;
  delta_next.certs[2] = local::random_state(24, rng);
  LabelingDelta delta;
  delta.touched = {2};

  BatchOptions options;
  options.threads = 2;
  BatchVerifier batch(spread, cfg, 2, options);

  AliasedCopy copy = alias_of(honest);
  const Verdict first = batch.run_one(copy.lab);
  EXPECT_EQ(first.accept(),
            run_verifier_t_baseline(spread, cfg, honest, 2).accept());

  copy.lab = Labeling{};  // the aliases go first...
  for (std::uint8_t& byte : *copy.buffer) byte = 0xFF;  // ...then the bytes

  EXPECT_EQ(batch.run_delta(delta_next, delta).accept(),
            run_verifier_t_baseline(spread, cfg, delta_next, 2).accept());
  EXPECT_EQ(batch.run_one(honest).accept(),
            run_verifier_t_baseline(spread, cfg, honest, 2).accept());
}

}  // namespace
}  // namespace pls::radius

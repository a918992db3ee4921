// Deterministic fault injection (util/failpoint.hpp) against the serving
// stack: injected atlas, stage-2 parse/link and delta-copy OOMs, wire
// corruption, and sweep stalls must leave the server AVAILABLE (shedding
// and failing requests, never crashing or hanging), keep every served
// verdict bit-identical to an offline oracle, and replay byte-for-byte
// under a fixed seed.  The whole suite is compiled against
// -DPROOFLAB_FAILPOINTS=ON (the chaos CI job); in a normal build only the
// compiled-out smoke test below remains.
#include "util/failpoint.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "radius/atlas.hpp"
#include "radius/batch.hpp"
#include "radius/fragment_spread.hpp"
#include "schemes/spanning_tree.hpp"
#include "serve/server.hpp"
#include "testing/helpers.hpp"

namespace pls::serve {
namespace {

using core::Labeling;
using pls::testing::share;
namespace failpoint = util::failpoint;

#if !defined(PROOFLAB_FAILPOINTS)

TEST(Chaos, FailpointsAreCompiledOut) {
  // The registry still links (arm/disarm are library code), but no site is
  // compiled into the binaries: arming the hottest site must never fire.
  failpoint::arm("radius.atlas.build",
                 failpoint::Plan{.action = failpoint::Action::kError});
  const schemes::StpLanguage language;
  const schemes::StpScheme scheme(language);
  util::Rng rng(90001);
  auto g = share(graph::grid(3, 3));
  const local::Configuration cfg = language.sample_legal(g, rng);
  radius::BatchOptions options;
  options.threads = 1;
  radius::BatchVerifier verifier(scheme, cfg, 1, options);
  EXPECT_TRUE(verifier.run_one(scheme.mark(cfg)).all_accept());
  EXPECT_EQ(failpoint::hits("radius.atlas.build"), 0u);
  failpoint::disarm_all();
}

#else  // PROOFLAB_FAILPOINTS

Server::Frame frame_of(std::vector<std::uint8_t> bytes) {
  return std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
}

/// Every test starts and ends with a clean registry — a leaked arm would
/// bleed faults into later tests.
class Chaos : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::disarm_all(); }
  void TearDown() override { failpoint::disarm_all(); }

  schemes::StpLanguage language;
  schemes::StpScheme scheme{language};
  util::Rng rng{90002};
  std::shared_ptr<const graph::Graph> g = share(graph::grid(4, 4));
  local::Configuration cfg = language.sample_legal(g, rng);
  Labeling honest = scheme.mark(cfg);
  std::uint64_t epoch = cfg.graph().epoch();
};

TEST_F(Chaos, AtlasBuildFaultWakesEveryWaiterAndStaysRebuildable) {
  // Regression for the in-flight dedup wakeup: a THROWING build must wake
  // deduped waiters with the failure (not strand them, not serialize them
  // into rebuild attempts), and the erased entry must leave the key
  // rebuildable once the fault clears.
  radius::GeometryAtlas atlas;
  failpoint::arm("radius.atlas.build",
                 failpoint::Plan{.action = failpoint::Action::kBadAlloc,
                                 .probability = 1.0,
                                 .seed = 7,
                                 .max_fires = 1});
  constexpr int kThreads = 4;
  std::atomic<int> threw{0};
  std::atomic<int> served{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&] {
      try {
        if (atlas.block(*g, 1, 0) != nullptr) served.fetch_add(1);
      } catch (const std::bad_alloc&) {
        threw.fetch_add(1);
      }
    });
  for (std::thread& t : threads) t.join();
  // max_fires = 1: exactly one build attempt faulted; every thread either
  // saw that failure (builder or deduped waiter) or arrived after the erase
  // and rebuilt successfully.  Nobody hangs, nobody gets a null block.
  EXPECT_EQ(failpoint::fires("radius.atlas.build"), 1u);
  EXPECT_GE(threw.load(), 1);
  EXPECT_EQ(threw.load() + served.load(), kThreads);

  // The key is rebuildable after the transient fault.
  EXPECT_NE(atlas.block(*g, 1, 0), nullptr);
}

TEST_F(Chaos, ColdBlockSweepFaultRetriesExact) {
  // A cold 4-slot full sweep claims one atlas block per chunk, so the one
  // injected build fault fails exactly one slot's block: the run throws and
  // drops its resident state, while the blocks the other claims built stay
  // admitted.  The retry on the same verifier (and so the same pool) is
  // verdict-exact and builds only what the faulted sweep never admitted.
  // Every center of the labeling is dirty, so the sweep looks every block
  // up (an honest full takes the clean path and builds no geometry), and
  // its verdict mixes accepts with rejects.
  const radius::FragmentSpreadScheme spread(scheme, 2);
  auto grid = share(graph::grid(8, 8));
  const local::Configuration grid_cfg = language.sample_legal(grid, rng);
  const Labeling lab = pls::testing::beaconed_residues(spread, grid_cfg, rng);
  const core::Verdict oracle =
      radius::run_verifier_t_baseline(spread, grid_cfg, lab, 2);
  EXPECT_TRUE(pls::testing::mixed(oracle));
  constexpr std::uint32_t kBlock = 4;
  const std::uint64_t blocks = (grid_cfg.n() + kBlock - 1) / kBlock;

  obs::MetricsRegistry metrics;
  radius::BatchOptions options;
  options.threads = 4;
  options.metrics = &metrics;
  options.atlas = std::make_shared<radius::GeometryAtlas>(
      radius::AtlasOptions{.block_centers = kBlock});
  radius::BatchVerifier verifier(spread, grid_cfg, 2, options);

  failpoint::arm("radius.atlas.build",
                 failpoint::Plan{.action = failpoint::Action::kBadAlloc,
                                 .probability = 1.0,
                                 .seed = 11,
                                 .max_fires = 1});
  EXPECT_THROW((void)verifier.run_one(lab), std::bad_alloc);
  EXPECT_FALSE(verifier.has_resident());
  EXPECT_EQ(failpoint::fires("radius.atlas.build"), 1u);

  // Every successful build was admitted (the default budget holds them
  // all); the faulted build counted a miss but left no entry.
  const radius::AtlasStats before = verifier.atlas().stats();
  EXPECT_EQ(before.bypassed, 0u);
  EXPECT_EQ(before.evictions, 0u);
  const std::uint64_t resident =
      before.misses - failpoint::fires("radius.atlas.build");
  const std::uint64_t chunks_before =
      metrics.snapshot().counters.at("verify.sweep_chunks");

  EXPECT_EQ(verifier.run_one(lab).accept(), oracle.accept());
  EXPECT_TRUE(verifier.has_resident());
  const radius::AtlasStats retry = verifier.atlas().stats().since(before);
  EXPECT_EQ(retry.misses, blocks - resident);
  EXPECT_EQ(retry.hits, resident);
  EXPECT_EQ(metrics.snapshot().counters.at("verify.sweep_chunks") -
                chunks_before,
            blocks);
}

TEST_F(Chaos, InjectedFaultFailsTheRequestNotTheServer) {
  // A t = 2 ball scheme: only ball schemes consult the atlas, so this is
  // the tenant whose sweep the injected build fault can reach (a plain
  // 1-round scheme never builds geometry).  Only dirty centers look
  // geometry up, so the faulted full makes every center dirty.
  const radius::FragmentSpreadScheme spread(scheme, 2);
  const Labeling spread_honest = spread.mark(cfg);
  const Labeling dirty = pls::testing::beaconed_residues(spread, cfg, rng);
  obs::MetricsRegistry metrics;
  ServerOptions options;
  options.threads = 1;
  options.metrics = &metrics;
  // A private atlas, so the injected build fault hits THIS request's sweep.
  options.atlas = std::make_shared<radius::GeometryAtlas>();
  Server server(options);
  const std::uint32_t id = server.add_tenant("solo", spread, cfg, 2);

  failpoint::arm("radius.atlas.build",
                 failpoint::Plan{.action = failpoint::Action::kError,
                                 .probability = 1.0,
                                 .seed = 3,
                                 .max_fires = 1});
  server.submit(frame_of(encode_full(id, epoch, 2, dirty)), Server::now_ns());
  const std::optional<Server::Response> faulted = server.serve_next();
  ASSERT_TRUE(faulted.has_value());
  EXPECT_FALSE(faulted->wire_ok);
  EXPECT_STREQ(faulted->error, "internal fault during verification");
  EXPECT_EQ(faulted->rejection.kind, RejectKind::kFaulted);

  // The base died with the abandoned run: a delta fails fast by name...
  Labeling next = spread_honest;
  next.certs[3] = local::random_state(24, rng);
  const std::vector<graph::NodeIndex> touched = {3};
  server.submit(
      frame_of(encode_delta(id, epoch, 2,
                            static_cast<std::uint32_t>(cfg.n()), touched,
                            next)),
      Server::now_ns());
  const std::optional<Server::Response> orphan = server.serve_next();
  ASSERT_TRUE(orphan.has_value());
  EXPECT_STREQ(orphan->error, "no delta base resident");
  EXPECT_EQ(orphan->rejection.kind, RejectKind::kCancelled);

  // ...and the next full recovers the tenant with an oracle-exact verdict.
  server.submit(frame_of(encode_full(id, epoch, 2, spread_honest)),
                Server::now_ns());
  const std::optional<Server::Response> recovered = server.serve_next();
  ASSERT_TRUE(recovered.has_value());
  ASSERT_TRUE(recovered->wire_ok) << recovered->error;
  radius::BatchOptions oracle_options;
  oracle_options.threads = 1;
  radius::BatchVerifier oracle(spread, cfg, 2, oracle_options);
  EXPECT_EQ(recovered->verdict.accept(),
            oracle.run_one(spread_honest).accept());

  const obs::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("serve.faults"), 1u);
}

/// One bad_alloc armed at `site`, during a served full frame (when the site
/// is on the full path) and then during a served delta (when the site is on
/// the delta path).  Each faulted request must come back kFaulted and count
/// exactly one serve.faults; the base dies with it, releasing its frame, so
/// the next delta is cancelled by name; and the next full frame serves a
/// verdict bit-identical to run_verifier_t_baseline.  Checked at threads
/// {1, 2, hw}.
void expect_fault_contained(const char* site, const core::Scheme& served,
                            unsigned t, const local::Configuration& cfg,
                            util::Rng& rng, bool full_hits_site,
                            bool delta_hits_site = true) {
  const Labeling honest = served.mark(cfg);
  // The recovery full carries a tampered certificate, so the oracle
  // comparison covers rejecting verdicts too.
  Labeling tampered = honest;
  tampered.certs[5] = local::random_state(40, rng);
  Labeling next = honest;
  next.certs[3] = local::random_state(24, rng);
  const std::vector<graph::NodeIndex> touched = {3};
  const std::uint64_t epoch = cfg.graph().epoch();
  const auto n = static_cast<std::uint32_t>(cfg.n());
  const std::vector<bool> expected =
      radius::run_verifier_t_baseline(served, cfg, tampered, t).accept();

  for (const unsigned threads :
       {1u, 2u, util::ThreadPool::hardware_threads()}) {
    SCOPED_TRACE(::testing::Message() << site << " threads " << threads);

    obs::MetricsRegistry metrics;
    ServerOptions options;
    options.threads = threads;
    options.metrics = &metrics;
    Server server(options);
    const std::uint32_t id = server.add_tenant("solo", served, cfg, t);
    // The last submitted frame, to watch the base frame's lifetime.
    std::weak_ptr<const std::vector<std::uint8_t>> last_frame;
    const auto serve = [&](std::vector<std::uint8_t> bytes) {
      Server::Frame frame = frame_of(std::move(bytes));
      last_frame = frame;
      server.submit(std::move(frame), Server::now_ns());
      std::optional<Server::Response> r = server.serve_next();
      EXPECT_TRUE(r.has_value());
      return r.value_or(Server::Response{});
    };
    const auto faults = [&] {
      return metrics.snapshot().counters.at("serve.faults");
    };
    // Arms one bad_alloc, serves the frame, and checks the containment.
    const auto expect_faulted = [&](std::vector<std::uint8_t> bytes,
                                    std::uint64_t faults_before) {
      failpoint::arm(site,
                     failpoint::Plan{.action = failpoint::Action::kBadAlloc,
                                     .probability = 1.0,
                                     .seed = 5,
                                     .max_fires = 1});
      const Server::Response faulted = serve(std::move(bytes));
      EXPECT_EQ(failpoint::fires(site), 1u);
      failpoint::disarm(site);
      EXPECT_FALSE(faulted.wire_ok);
      EXPECT_STREQ(faulted.error, "internal fault during verification");
      EXPECT_EQ(faulted.rejection.kind, RejectKind::kFaulted);
      EXPECT_EQ(faults(), faults_before + 1);
    };
    // After a fault: the next delta has no base, the next full is exact.
    const auto expect_recovers = [&] {
      const Server::Response orphan =
          serve(encode_delta(id, epoch, t, n, touched, next));
      EXPECT_STREQ(orphan.error, "no delta base resident");
      EXPECT_EQ(orphan.rejection.kind, RejectKind::kCancelled);
      const Server::Response recovered =
          serve(encode_full(id, epoch, t, tampered));
      ASSERT_TRUE(recovered.wire_ok) << recovered.error;
      EXPECT_EQ(recovered.verdict.accept(), expected);
    };

    std::uint64_t faults_before = 0;
    // During a served full frame.
    if (full_hits_site) {
      expect_faulted(encode_full(id, epoch, t, honest), faults_before++);
      expect_recovers();
    }

    // During a served delta, behind a resident full whose frame is released
    // with the lost base.
    if (!delta_hits_site) continue;
    ASSERT_TRUE(serve(encode_full(id, epoch, t, honest)).wire_ok);
    const auto base_frame = last_frame;
    EXPECT_FALSE(base_frame.expired());
    expect_faulted(encode_delta(id, epoch, t, n, touched, next),
                   faults_before);
    EXPECT_TRUE(base_frame.expired());
    expect_recovers();
  }
}

// Stage-2 sites: only ball schemes have a stage-2 parse/link, so these run
// a t = 2 spread.
TEST_F(Chaos, ParseFaultFailsTheRequestAndLosesOnlyTheBase) {
  const radius::FragmentSpreadScheme spread(scheme, 2);
  expect_fault_contained("radius.parse", spread, 2, cfg, rng, true);
}

TEST_F(Chaos, LinkFaultFailsTheRequestAndLosesOnlyTheBase) {
  const radius::FragmentSpreadScheme spread(scheme, 2);
  expect_fault_contained("radius.link", spread, 2, cfg, rng, true);
}

// The memo pass (memo, witnesses, clean set) is part of every full run's
// stage 2; a delta never reaches it, re-seed or not.
TEST_F(Chaos, MemoFaultFailsTheRequestAndLosesOnlyTheBase) {
  const radius::FragmentSpreadScheme spread(scheme, 2);
  expect_fault_contained("radius.memo", spread, 2, cfg, rng, true, false);
}

// The server's per-delta certificate copy runs for every scheme; fulls never
// reach it.  Both the plain 1-round scheme (whose re-sweep reads the base's
// raw certificates) and a t = 2 spread.
TEST_F(Chaos, DeltaCopyFaultFailsTheRequestAndLosesOnlyTheBase) {
  expect_fault_contained("serve.delta_copy", scheme, 1, cfg, rng, false);
  const radius::FragmentSpreadScheme spread(scheme, 2);
  expect_fault_contained("serve.delta_copy", spread, 2, cfg, rng, false);
}

TEST_F(Chaos, DeadlineExpiresMidSweepThenTenantRecovers) {
  // Stall every sweep chunk 1 ms: a 5 ms TTL survives admission and parse
  // but dies inside the sweep — cooperative cancellation at a chunk
  // boundary, never a silently late verdict.
  auto big = share(graph::grid(16, 16));
  const local::Configuration big_cfg = language.sample_legal(big, rng);
  const Labeling big_honest = scheme.mark(big_cfg);
  const std::uint64_t big_epoch = big_cfg.graph().epoch();

  obs::MetricsRegistry metrics;
  ServerOptions options;
  options.threads = 1;
  options.metrics = &metrics;
  Server server(options);
  const std::uint32_t id = server.add_tenant("solo", scheme, big_cfg, 1);

  // Warm the atlas first so the stalled run pays only sweep time.
  server.submit(frame_of(encode_full(id, big_epoch, 1, big_honest)),
                Server::now_ns());
  ASSERT_TRUE(server.serve_next()->wire_ok);

  failpoint::arm("pool.chunk",
                 failpoint::Plan{.action = failpoint::Action::kDelay,
                                 .probability = 1.0,
                                 .seed = 11,
                                 .max_fires = 0,
                                 .delay_ns = 1'000'000});
  server.submit(
      frame_of(encode_full(id, big_epoch, 1, big_honest, 5'000'000)),
      Server::now_ns());
  const std::optional<Server::Response> expired = server.serve_next();
  ASSERT_TRUE(expired.has_value());
  EXPECT_FALSE(expired->wire_ok);
  EXPECT_STREQ(expired->error, "deadline expired during verification");
  EXPECT_EQ(expired->rejection.kind, RejectKind::kExpired);
  failpoint::disarm("pool.chunk");

  // Base lost mid-run; the recovery full is oracle-exact.
  server.submit(frame_of(encode_full(id, big_epoch, 1, big_honest)),
                Server::now_ns());
  const std::optional<Server::Response> recovered = server.serve_next();
  ASSERT_TRUE(recovered.has_value());
  ASSERT_TRUE(recovered->wire_ok) << recovered->error;
  radius::BatchOptions oracle_options;
  oracle_options.threads = 1;
  radius::BatchVerifier oracle(scheme, big_cfg, 1, oracle_options);
  EXPECT_EQ(recovered->verdict.accept(), oracle.run_one(big_honest).accept());

  const obs::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_GE(snap.counters.at("serve.cancelled_sweeps"), 1u);
  EXPECT_GE(snap.counters.at("serve.expired"), 1u);
}

TEST_F(Chaos, DeadlineExpiresDuringStageTwoParse) {
  // Stall every pool chunk 1 ms: at one slot a full parse of the 256-node
  // grid's certificates runs as 16 chunks, so a 5 ms TTL fires inside stage
  // 2.  The parse polls the token at its chunk claims, as the sweep does:
  // the run stops there, with certificates left unparsed and no sweep chunk
  // run.
  const radius::FragmentSpreadScheme spread(scheme, 2);
  auto big = share(graph::grid(16, 16));
  const local::Configuration big_cfg = language.sample_legal(big, rng);
  const Labeling big_honest = spread.mark(big_cfg);
  const std::uint64_t big_epoch = big_cfg.graph().epoch();
  const auto n = static_cast<std::uint32_t>(big_cfg.n());

  obs::MetricsRegistry metrics;
  ServerOptions options;
  options.threads = 1;
  options.metrics = &metrics;
  Server server(options);
  const std::uint32_t id = server.add_tenant("solo", spread, big_cfg, 2);
  const auto serve = [&](std::vector<std::uint8_t> bytes) {
    server.submit(frame_of(std::move(bytes)), Server::now_ns());
    std::optional<Server::Response> r = server.serve_next();
    EXPECT_TRUE(r.has_value());
    return r.value_or(Server::Response{});
  };
  const auto sweep_chunks = [&] {
    return metrics.snapshot().counters.at("verify.sweep_chunks");
  };

  // Warm the atlas and install a delta base.
  ASSERT_TRUE(serve(encode_full(id, big_epoch, 2, big_honest)).wire_ok);
  const std::uint64_t chunks_before = sweep_chunks();

  failpoint::arm("pool.chunk",
                 failpoint::Plan{.action = failpoint::Action::kDelay,
                                 .probability = 1.0,
                                 .seed = 11,
                                 .max_fires = 0,
                                 .delay_ns = 1'000'000});
  // Never fires: counts the certificates the abandoned run parsed.
  failpoint::arm("radius.parse",
                 failpoint::Plan{.action = failpoint::Action::kDelay,
                                 .probability = 0.0,
                                 .seed = 12});
  const Server::Response expired =
      serve(encode_full(id, big_epoch, 2, big_honest, 5'000'000));
  const std::uint64_t parsed = failpoint::hits("radius.parse");
  failpoint::disarm_all();
  EXPECT_STREQ(expired.error, "deadline expired during verification");
  EXPECT_EQ(expired.rejection.kind, RejectKind::kExpired);
  EXPECT_LT(parsed, n);
  EXPECT_EQ(sweep_chunks(), chunks_before);

  // The base died with the abandoned run: the next delta fails fast...
  Labeling next = big_honest;
  next.certs[3] = local::random_state(24, rng);
  const std::vector<graph::NodeIndex> touched = {3};
  const Server::Response orphan =
      serve(encode_delta(id, big_epoch, 2, n, touched, next));
  EXPECT_STREQ(orphan.error, "no delta base resident");
  EXPECT_EQ(orphan.rejection.kind, RejectKind::kCancelled);

  // ...and the next full equals the reference engine.
  const Server::Response recovered =
      serve(encode_full(id, big_epoch, 2, big_honest));
  ASSERT_TRUE(recovered.wire_ok) << recovered.error;
  EXPECT_EQ(
      recovered.verdict.accept(),
      radius::run_verifier_t_baseline(spread, big_cfg, big_honest, 2).accept());
}

TEST_F(Chaos, SweepCompletingPastDeadlineIsNotServed) {
  // The post-run deadline checkpoint: when every chunk is claimed before
  // the token trips, the sweep completes instead of unwinding — the late
  // verdict must still be withheld.  path(2) at one thread sweeps exactly
  // two chunks; seed 3 at probability 0.5 draws [no-fire, fire], so only
  // the SECOND chunk stalls: both claims poll the token microseconds after
  // dispatch (well inside the 10 ms TTL), then the 50 ms stall pushes
  // completion far past the deadline with no poll left to trip.
  auto two = share(graph::path(2));
  const local::Configuration two_cfg = language.sample_legal(two, rng);
  const Labeling two_honest = scheme.mark(two_cfg);
  const std::uint64_t two_epoch = two_cfg.graph().epoch();

  obs::MetricsRegistry metrics;
  ServerOptions options;
  options.threads = 1;
  options.metrics = &metrics;
  Server server(options);
  const std::uint32_t id = server.add_tenant("solo", scheme, two_cfg, 1);

  failpoint::arm("pool.chunk",
                 failpoint::Plan{.action = failpoint::Action::kDelay,
                                 .probability = 0.5,
                                 .seed = 3,
                                 .max_fires = 1,
                                 .delay_ns = 50'000'000});
  server.submit(
      frame_of(encode_full(id, two_epoch, 1, two_honest, 10'000'000)),
      Server::now_ns());
  const std::optional<Server::Response> late = server.serve_next();
  failpoint::disarm("pool.chunk");
  ASSERT_TRUE(late.has_value());
  EXPECT_FALSE(late->wire_ok);
  EXPECT_STREQ(late->error, "deadline expired after verification");
  EXPECT_EQ(late->rejection.kind, RejectKind::kExpired);

  // The run COMPLETED, so the base it installed is exact — a delta behind
  // the late full serves an oracle-identical verdict, unlike the abandoned
  // and dispatch-dropped cases where the base dies with the frame.
  Labeling next = two_honest;
  next.certs[1] = local::random_state(24, rng);
  const std::vector<graph::NodeIndex> touched = {1};
  server.submit(
      frame_of(encode_delta(id, two_epoch, 1,
                            static_cast<std::uint32_t>(two_cfg.n()), touched,
                            next)),
      Server::now_ns());
  const std::optional<Server::Response> after = server.serve_next();
  ASSERT_TRUE(after.has_value());
  ASSERT_TRUE(after->wire_ok) << after->error;
  radius::BatchOptions oracle_options;
  oracle_options.threads = 1;
  radius::BatchVerifier oracle(scheme, two_cfg, 1, oracle_options);
  (void)oracle.run_one(two_honest);
  radius::LabelingDelta delta;
  delta.touched = touched;
  EXPECT_EQ(after->verdict.accept(), oracle.run_delta(next, delta).accept());

  const obs::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("serve.expired"), 1u);
  // Completion, not cancellation: the token never tripped a claim.
  EXPECT_EQ(snap.counters.at("serve.cancelled_sweeps"), 0u);
  // Late completions never feed the slack histogram.
  EXPECT_EQ(snap.histograms.count("serve.deadline_slack_ns") != 0
                ? snap.histograms.at("serve.deadline_slack_ns").count
                : 0u,
            0u);
}

// One pool per server: a faulted and a cancelled sweep of tenant A stop on
// the pool every tenant shares.  Each fails only A's request; tenant B's
// delta base survives, and B's next full on the same server is exact.
TEST_F(Chaos, OneTenantsFaultAndCancellationLeaveTheSharedPoolUsable) {
  const radius::FragmentSpreadScheme spread(scheme, 2);
  // Tenant A: a 256-node grid over 4-center blocks, so a full sweep is 64
  // chunks and a 1 ms stall per chunk outlasts a 5 ms TTL at every thread
  // count.  Tenant B: the fixture's 16-node grid.
  auto big = share(graph::grid(16, 16));
  const local::Configuration a_cfg = language.sample_legal(big, rng);
  const Labeling a_honest = spread.mark(a_cfg);
  const Labeling a_dirty = pls::testing::beaconed_residues(spread, a_cfg, rng);
  const std::uint64_t a_epoch = a_cfg.graph().epoch();
  const Labeling b_honest = spread.mark(cfg);
  Labeling b_tampered = b_honest;
  b_tampered.certs[5] = local::random_state(40, rng);
  Labeling b_next = b_honest;
  b_next.certs[3] = local::random_state(24, rng);
  const std::vector<graph::NodeIndex> touched = {3};
  const auto n = static_cast<std::uint32_t>(cfg.n());
  const auto baseline = [&](const Labeling& lab) {
    return radius::run_verifier_t_baseline(spread, cfg, lab, 2).accept();
  };

  for (const unsigned threads :
       {1u, 2u, util::ThreadPool::hardware_threads()}) {
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    ServerOptions options;
    options.threads = threads;
    options.atlas = std::make_shared<radius::GeometryAtlas>(
        radius::AtlasOptions{.block_centers = 4});
    Server server(options);
    const std::uint32_t a = server.add_tenant("a", spread, a_cfg, 2);
    const std::uint32_t b = server.add_tenant("b", spread, cfg, 2);
    const auto serve = [&](std::vector<std::uint8_t> bytes) {
      server.submit(frame_of(std::move(bytes)), Server::now_ns());
      std::optional<Server::Response> r = server.serve_next();
      EXPECT_TRUE(r.has_value());
      return r.value_or(Server::Response{});
    };
    const auto expect_b_exact = [&](const Labeling& lab) {
      const Server::Response r = serve(encode_full(b, epoch, 2, lab));
      ASSERT_TRUE(r.wire_ok) << r.error;
      EXPECT_EQ(r.verdict.accept(), baseline(lab));
    };
    expect_b_exact(b_honest);

    // A's first full builds its geometry (every center of it is dirty);
    // one build faults.
    failpoint::arm("radius.atlas.build",
                   failpoint::Plan{.action = failpoint::Action::kError,
                                   .probability = 1.0,
                                   .seed = 3,
                                   .max_fires = 1});
    const Server::Response faulted = serve(encode_full(a, a_epoch, 2, a_dirty));
    EXPECT_EQ(failpoint::fires("radius.atlas.build"), 1u);
    failpoint::disarm("radius.atlas.build");
    EXPECT_EQ(faulted.rejection.kind, RejectKind::kFaulted);
    // B's base survived A's fault.
    const Server::Response delta =
        serve(encode_delta(b, epoch, 2, n, touched, b_next));
    ASSERT_TRUE(delta.wire_ok) << delta.error;
    EXPECT_EQ(delta.verdict.accept(), baseline(b_next));
    expect_b_exact(b_tampered);

    // Warm A, then let its next full's deadline fire mid-sweep.
    ASSERT_TRUE(serve(encode_full(a, a_epoch, 2, a_honest)).wire_ok);
    failpoint::arm("pool.chunk",
                   failpoint::Plan{.action = failpoint::Action::kDelay,
                                   .probability = 1.0,
                                   .seed = 11,
                                   .max_fires = 0,
                                   .delay_ns = 1'000'000});
    const Server::Response expired =
        serve(encode_full(a, a_epoch, 2, a_honest, 5'000'000));
    failpoint::disarm("pool.chunk");
    EXPECT_STREQ(expired.error, "deadline expired during verification");
    EXPECT_EQ(expired.rejection.kind, RejectKind::kExpired);
    expect_b_exact(b_honest);
  }
}

/// Runs a fixed trail of full-labeling requests — some doomed by injected
/// wire faults — and returns the responses.  Arms the same seeds each call.
std::vector<Server::Response> run_faulted_trail(
    const schemes::StpScheme& scheme, const local::Configuration& cfg,
    const std::vector<Labeling>& fulls, unsigned threads,
    obs::MetricsRegistry* metrics) {
  failpoint::disarm_all();
  failpoint::arm("serve.wire_ingest",
                 failpoint::Plan{.action = failpoint::Action::kError,
                                 .probability = 0.3,
                                 .seed = 42});
  failpoint::arm("pool.chunk",
                 failpoint::Plan{.action = failpoint::Action::kDelay,
                                 .probability = 0.2,
                                 .seed = 43,
                                 .max_fires = 0,
                                 .delay_ns = 20'000});
  ServerOptions options;
  options.threads = threads;
  options.metrics = metrics;
  options.max_queued_cost = 3 * cfg.n();  // sheds inside the burst
  Server server(options);
  const std::uint32_t id =
      server.add_tenant("solo", scheme, cfg, 1);
  const std::uint64_t epoch = cfg.graph().epoch();
  std::vector<Server::Response> out;
  for (std::size_t i = 0; i < fulls.size(); ++i) {
    // Every 5th request is dead on arrival (deterministic expiry).
    const bool expired = i % 5 == 4;
    const std::uint64_t ttl = expired ? 1'000'000 : 0;
    const std::uint64_t arrival =
        expired ? Server::now_ns() - 5'000'000 : Server::now_ns();
    server.submit(frame_of(encode_full(id, epoch, 1, fulls[i], ttl)),
                  arrival);
    // Serve every other submit, so the queue oscillates around the bound.
    if (i % 2 == 1) {
      if (std::optional<Server::Response> r = server.serve_next();
          r.has_value())
        out.push_back(std::move(*r));
    }
  }
  std::vector<Server::Response> tail = server.drain();
  for (Server::Response& r : tail) out.push_back(std::move(r));
  failpoint::disarm_all();
  return out;
}

TEST_F(Chaos, FaultedTrailReplaysIdenticallyPerSeed) {
  std::vector<Labeling> fulls;
  util::Rng lab_rng(90003);
  for (int i = 0; i < 12; ++i) {
    Labeling lab;
    for (std::size_t v = 0; v < cfg.n(); ++v)
      lab.certs.push_back(local::random_state(lab_rng.below(64), lab_rng));
    fulls.push_back(std::move(lab));
  }
  fulls[0] = honest;

  obs::MetricsRegistry m1, m2;
  const std::vector<Server::Response> first =
      run_faulted_trail(scheme, cfg, fulls, 1, &m1);
  const std::vector<Server::Response> second =
      run_faulted_trail(scheme, cfg, fulls, 1, &m2);

  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].seq, second[i].seq) << i;
    EXPECT_EQ(first[i].wire_ok, second[i].wire_ok) << i;
    EXPECT_STREQ(first[i].error, second[i].error);
    EXPECT_EQ(first[i].rejection.kind, second[i].rejection.kind) << i;
    EXPECT_EQ(first[i].verdict.accept(), second[i].verdict.accept()) << i;
  }
  // Shed/expired/fault counts are part of the deterministic contract.
  const obs::MetricsSnapshot s1 = m1.snapshot();
  const obs::MetricsSnapshot s2 = m2.snapshot();
  for (const char* key : {"serve.shed", "serve.expired",
                          "serve.rejected_frames", "serve.faults"})
    EXPECT_EQ(s1.counters.at(key), s2.counters.at(key)) << key;
  // The trail genuinely exercised the fault paths.
  EXPECT_GT(s1.counters.at("serve.rejected_frames"), 0u);
  EXPECT_GT(s1.counters.at("serve.expired"), 0u);
}

TEST_F(Chaos, ServedVerdictsMatchOracleAtEveryThreadCount) {
  // Whatever the injected faults do to WHICH requests survive, every served
  // verdict must be bit-identical to the offline oracle — at one thread,
  // two, and the hardware count.
  std::vector<Labeling> fulls;
  util::Rng lab_rng(90004);
  for (int i = 0; i < 10; ++i) {
    Labeling lab;
    for (std::size_t v = 0; v < cfg.n(); ++v)
      lab.certs.push_back(local::random_state(lab_rng.below(64), lab_rng));
    fulls.push_back(std::move(lab));
  }
  fulls[0] = honest;

  for (const unsigned threads :
       {1u, 2u, util::ThreadPool::hardware_threads()}) {
    const std::vector<Server::Response> responses =
        run_faulted_trail(scheme, cfg, fulls, threads, nullptr);
    radius::BatchOptions oracle_options;
    oracle_options.threads = threads;
    radius::BatchVerifier oracle(scheme, cfg, 1, oracle_options);
    std::size_t served = 0;
    for (const Server::Response& r : responses) {
      if (!r.wire_ok) continue;
      ASSERT_LT(r.seq, fulls.size());
      EXPECT_EQ(r.verdict.accept(),
                oracle.run_one(fulls[r.seq]).accept())
          << "seq " << r.seq << " threads " << threads;
      ++served;
    }
    EXPECT_GT(served, 0u) << "threads " << threads;
  }
}

TEST_F(Chaos, WireIngestFaultCountsAreThreadCountInvariant) {
  // The ingest site runs on the dispatcher thread only, so WHICH submits
  // are corrupted is a pure function of the seed — independent of sweep
  // parallelism.
  std::vector<Labeling> fulls(6, honest);
  const auto rejected_seqs = [&](unsigned threads) {
    std::vector<std::uint64_t> seqs;
    for (const Server::Response& r :
         run_faulted_trail(scheme, cfg, fulls, threads, nullptr))
      if (!r.wire_ok && r.rejection.kind == RejectKind::kMalformed)
        seqs.push_back(r.seq);
    return seqs;
  };
  const std::vector<std::uint64_t> at_one = rejected_seqs(1);
  EXPECT_EQ(at_one, rejected_seqs(2));
  EXPECT_EQ(at_one, rejected_seqs(util::ThreadPool::hardware_threads()));
}

#endif  // PROOFLAB_FAILPOINTS

}  // namespace
}  // namespace pls::serve

// Server: the wire path (encode → submit → DRR → zero-copy dispatch) must
// be bit-identical to the in-memory BatchVerifier::run_one/run_delta path
// for every registry scheme at every thread count; the DRR schedule must be
// starvation-free; malformed or mismatched frames must surface as named
// rejections without billing a tenant; request frames must be held exactly
// as long as the zero-copy aliases need them, then released; and every
// tenant sweeps on the server's one pool, whose verifiers are built (and
// refused) at registration.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <filesystem>

#include "radius/fragment_spread.hpp"
#include "schemes/registry.hpp"
#include "schemes/spanning_tree.hpp"
#include "testing/helpers.hpp"

namespace pls::serve {
namespace {

using core::Labeling;
using core::Verdict;
using pls::testing::share;

Server::Frame frame_of(std::vector<std::uint8_t> bytes) {
  return std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
}

std::shared_ptr<const graph::Graph> graph_for(
    const schemes::SchemeEntry& entry, util::Rng& rng) {
  if (entry.needs_weighted)
    return share(
        graph::reweight_random(graph::random_connected(14, 8, rng), rng));
  if (entry.needs_bipartite) return share(graph::grid(2, 7));
  return share(graph::random_connected(14, 8, rng));
}

Labeling random_labeling(std::size_t n, util::Rng& rng) {
  Labeling lab;
  for (std::size_t v = 0; v < n; ++v)
    lab.certs.push_back(local::random_state(rng.below(96), rng));
  return lab;
}

/// One tenant's scripted request stream: three fulls (honest, garbage,
/// honest) and one delta on top — the same sequence the in-memory oracle
/// replays below.
struct Script {
  const core::Scheme* scheme = nullptr;
  const local::Configuration* cfg = nullptr;
  unsigned t = 0;
  Labeling honest;
  Labeling garbage;
  Labeling next;  ///< honest with `touched` certificates replaced
  std::vector<graph::NodeIndex> touched;
};

// The acceptance criterion: wire-path verdicts are bit-identical to the
// in-memory BatchVerifier::run_one/run_delta path, registry-wide (plain t=1
// and fragment-spread t=2 per entry), at threads {1, 2, hardware}, with all
// of the ~30 tenants sweeping on the server's one pool.
TEST(Server, RegistryWireVerdictsMatchInMemoryAtAllThreadCounts) {
  util::Rng rng(60901);
  // The catalog must outlive the scripts: they point at its schemes.
  const std::vector<schemes::SchemeEntry> catalog =
      schemes::standard_catalog();
  std::deque<local::Configuration> cfgs;
  std::deque<radius::FragmentSpreadScheme> spreads;
  std::vector<Script> scripts;
  for (const schemes::SchemeEntry& entry : catalog) {
    auto g = graph_for(entry, rng);
    cfgs.push_back(entry.language->sample_legal(g, rng));
    const local::Configuration& cfg = cfgs.back();
    spreads.emplace_back(*entry.scheme, 2);
    for (const auto& [scheme, t] :
         {std::pair<const core::Scheme*, unsigned>{entry.scheme.get(), 1u},
          {&spreads.back(), 2u}}) {
      Script s;
      s.scheme = scheme;
      s.cfg = &cfg;
      s.t = t;
      s.honest = scheme->mark(cfg);
      s.garbage = random_labeling(cfg.n(), rng);
      s.touched = {1, static_cast<graph::NodeIndex>(cfg.n() - 2)};
      s.next = s.honest;
      for (const graph::NodeIndex v : s.touched)
        s.next.certs[v] = local::random_state(40, rng);
      scripts.push_back(std::move(s));
    }
  }

  for (const unsigned threads :
       {1u, 2u, util::ThreadPool::hardware_threads()}) {
    ServerOptions options;
    options.threads = threads;
    Server server(options);
    for (std::size_t i = 0; i < scripts.size(); ++i) {
      const std::uint32_t id = server.add_tenant(
          "tenant" + std::to_string(i), *scripts[i].scheme, *scripts[i].cfg,
          scripts[i].t);
      ASSERT_EQ(id, i);
    }
    std::vector<std::vector<std::uint64_t>> seqs(scripts.size());
    for (std::size_t i = 0; i < scripts.size(); ++i) {
      const Script& s = scripts[i];
      const auto id = static_cast<std::uint32_t>(i);
      const std::uint64_t epoch = s.cfg->graph().epoch();
      for (const Labeling* lab : {&s.honest, &s.garbage, &s.honest})
        server.submit(frame_of(encode_full(id, epoch, s.t, *lab)),
                      Server::now_ns());
      server.submit(frame_of(encode_delta(id, epoch, s.t,
                                          static_cast<std::uint32_t>(
                                              s.cfg->n()),
                                          s.touched, s.next)),
                    Server::now_ns());
    }
    const std::vector<Server::Response> responses = server.drain();
    ASSERT_EQ(responses.size(), scripts.size() * 4);

    // Regroup by tenant in submission order and replay against a fresh
    // in-memory verifier per tenant.
    std::vector<std::vector<const Server::Response*>> per_tenant(
        scripts.size());
    for (const Server::Response& r : responses) {
      ASSERT_TRUE(r.wire_ok) << r.error;
      per_tenant[r.tenant_id].push_back(&r);
    }
    for (std::size_t i = 0; i < scripts.size(); ++i) {
      const Script& s = scripts[i];
      ASSERT_EQ(per_tenant[i].size(), 4u);
      for (std::size_t k = 1; k < 4; ++k)
        ASSERT_LT(per_tenant[i][k - 1]->seq, per_tenant[i][k]->seq)
            << "per-tenant FIFO order";
      radius::BatchOptions batch_options;
      batch_options.threads = threads;
      radius::BatchVerifier oracle(*s.scheme, *s.cfg, s.t, batch_options);
      radius::LabelingDelta delta;
      delta.touched = s.touched;
      const Verdict expected[] = {
          oracle.run_one(s.honest), oracle.run_one(s.garbage),
          oracle.run_one(s.honest), oracle.run_delta(s.next, delta)};
      for (std::size_t k = 0; k < 4; ++k)
        EXPECT_EQ(per_tenant[i][k]->verdict.accept(), expected[k].accept())
            << "tenant " << i << " request " << k << " threads " << threads;
    }
  }
}

TEST(Server, DeficitRoundRobinInterleavesEqualCostTenants) {
  const schemes::StpLanguage language;
  const schemes::StpScheme scheme(language);
  util::Rng rng(60902);
  auto g = share(graph::grid(3, 4));
  const local::Configuration cfg = language.sample_legal(g, rng);
  const Labeling honest = scheme.mark(cfg);
  const std::uint64_t epoch = cfg.graph().epoch();

  ServerOptions options;
  options.threads = 1;
  options.quantum = cfg.n();  // one full labeling per DRR turn
  Server server(options);
  const std::uint32_t alpha = server.add_tenant("alpha", scheme, cfg, 1);
  const std::uint32_t beta = server.add_tenant("beta", scheme, cfg, 1);

  // A burst of 4 alpha requests lands before beta's 2: strict FIFO would
  // starve beta behind the burst; DRR alternates turns instead.
  for (int i = 0; i < 4; ++i)
    server.submit(frame_of(encode_full(alpha, epoch, 1, honest)),
                  Server::now_ns());
  for (int i = 0; i < 2; ++i)
    server.submit(frame_of(encode_full(beta, epoch, 1, honest)),
                  Server::now_ns());

  const std::vector<Server::Response> responses = server.drain();
  ASSERT_EQ(responses.size(), 6u);
  std::vector<std::uint32_t> order;
  for (const Server::Response& r : responses) {
    EXPECT_TRUE(r.wire_ok) << r.error;
    EXPECT_TRUE(r.verdict.all_accept());
    order.push_back(r.tenant_id);
  }
  const std::vector<std::uint32_t> expected = {alpha, beta,  alpha,
                                               beta,  alpha, alpha};
  EXPECT_EQ(order, expected);
}

TEST(Server, SubmitTimeRejectionsAreNamedAndServedFirst) {
  const schemes::StpLanguage language;
  const schemes::StpScheme scheme(language);
  util::Rng rng(60903);
  auto g = share(graph::grid(3, 3));
  const local::Configuration cfg = language.sample_legal(g, rng);
  const Labeling honest = scheme.mark(cfg);
  const std::uint64_t epoch = cfg.graph().epoch();

  obs::MetricsRegistry metrics;
  ServerOptions options;
  options.threads = 1;
  options.metrics = &metrics;
  Server server(options);
  const std::uint32_t id = server.add_tenant("main", scheme, cfg, 1);

  // One valid request first; the rejections below must still surface ahead
  // of it (they carry no verification work).
  server.submit(frame_of(encode_full(id, epoch, 1, honest)),
                Server::now_ns());
  server.submit(frame_of({0xDE, 0xAD}), Server::now_ns());
  server.submit(frame_of(encode_full(id + 9, epoch, 1, honest)),
                Server::now_ns());
  server.submit(frame_of(encode_full(id, epoch + 1, 1, honest)),
                Server::now_ns());
  server.submit(frame_of(encode_full(id, epoch, 2, honest)),
                Server::now_ns());
  Labeling short_lab = honest;
  short_lab.certs.pop_back();
  server.submit(frame_of(encode_full(id, epoch, 1, short_lab)),
                Server::now_ns());
  EXPECT_EQ(server.queued(), 6u);

  const std::vector<Server::Response> responses = server.drain();
  ASSERT_EQ(responses.size(), 6u);
  const char* expected_errors[] = {
      "frame shorter than header", "unknown tenant id",
      "graph_epoch does not match tenant graph",
      "radius t does not match tenant",
      "node_count does not match tenant configuration"};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_FALSE(responses[i].wire_ok);
    EXPECT_STREQ(responses[i].error, expected_errors[i]);
  }
  EXPECT_TRUE(responses[5].wire_ok);
  EXPECT_TRUE(responses[5].verdict.all_accept());
  EXPECT_EQ(server.queued(), 0u);

  const obs::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("serve.requests"), 6u);
  EXPECT_EQ(snap.counters.at("serve.rejected_frames"), 5u);
  EXPECT_EQ(snap.histograms.at("serve.latency_ns.main").count, 1u);
}

TEST(Server, ZeroQuantumIsRejectedAtConstruction) {
  // quantum == 0 could never cover any request's cost (>= 1): the DRR loop
  // would cycle tenants forever without serving.  Constructor-enforced.
  ServerOptions options;
  options.quantum = 0;
  EXPECT_THROW(Server{options}, std::logic_error);
}

TEST(Server, DeltaBeforeAnyFullIsAnError) {
  const schemes::StpLanguage language;
  const schemes::StpScheme scheme(language);
  util::Rng rng(60904);
  auto g = share(graph::path(6));
  const local::Configuration cfg = language.sample_legal(g, rng);
  const Labeling honest = scheme.mark(cfg);
  const std::uint64_t epoch = cfg.graph().epoch();

  obs::MetricsRegistry metrics;
  ServerOptions options;
  options.threads = 1;
  options.metrics = &metrics;
  Server server(options);
  const std::uint32_t id = server.add_tenant("solo", scheme, cfg, 1);
  const std::vector<graph::NodeIndex> touched = {2};
  server.submit(
      frame_of(encode_delta(id, epoch, 1,
                            static_cast<std::uint32_t>(cfg.n()), touched,
                            honest)),
      Server::now_ns());
  // A valid full submitted AFTER the early delta: the delta was rejected at
  // submit time (never queued), so it surfaces ahead of the full and never
  // consumes the tenant's DRR deficit.
  server.submit(frame_of(encode_full(id, epoch, 1, honest)),
                Server::now_ns());

  const std::vector<Server::Response> responses = server.drain();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_FALSE(responses[0].wire_ok);
  EXPECT_STREQ(responses[0].error, "delta before any full labeling");
  EXPECT_TRUE(responses[1].wire_ok);
  EXPECT_TRUE(responses[1].verdict.all_accept());

  // Accounting matches every other submit-time rejection: counted in
  // rejected_frames, absent from the tenant's latency histogram (only the
  // full's dispatch recorded there).
  const obs::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("serve.rejected_frames"), 1u);
  EXPECT_EQ(snap.histograms.at("serve.latency_ns.solo").count, 1u);
}

// The frame lifecycle: the producer may drop its handle the moment submit()
// returns, and the server holds exactly one frame per tenant — the full whose
// labeling is the delta base.  A delta copies its touched certificates into
// that base, so its own frame is released with its response; the full's
// frame lives until the next full, or until the base is lost (here a delta
// expires at dispatch).
TEST(Server, DeltaFramesAreReleasedWithTheirResponse) {
  const schemes::StpLanguage language;
  const schemes::StpScheme scheme(language);
  util::Rng rng(60905);
  auto g = share(graph::random_connected(10, 6, rng));
  const local::Configuration cfg = language.sample_legal(g, rng);
  const std::uint64_t epoch = cfg.graph().epoch();
  const auto n = static_cast<std::uint32_t>(cfg.n());
  const Labeling honest = scheme.mark(cfg);
  const Labeling second = random_labeling(cfg.n(), rng);

  ServerOptions options;
  options.threads = 1;
  Server server(options);
  const std::uint32_t id = server.add_tenant("frames", scheme, cfg, 1);
  radius::BatchOptions batch_options;
  batch_options.threads = 1;
  radius::BatchVerifier oracle(scheme, cfg, 1, batch_options);

  // Submits one frame (no handle kept) and serves it; `watch` observes the
  // frame's lifetime.
  std::weak_ptr<const std::vector<std::uint8_t>> watch;
  const auto serve = [&](std::vector<std::uint8_t> bytes,
                         std::uint64_t arrival) {
    Server::Frame f = frame_of(std::move(bytes));
    watch = f;
    server.submit(std::move(f), arrival);
    std::optional<Server::Response> r = server.serve_next();
    EXPECT_TRUE(r.has_value());
    return r.value_or(Server::Response{});
  };

  const Server::Response first = serve(encode_full(id, epoch, 1, honest),
                                       Server::now_ns());
  ASSERT_TRUE(first.wire_ok) << first.error;
  EXPECT_EQ(first.verdict.accept(), oracle.run_one(honest).accept());
  const auto first_frame = watch;
  EXPECT_FALSE(first_frame.expired());

  Labeling current = honest;
  for (int d = 0; d < 10; ++d) {
    const auto v = static_cast<graph::NodeIndex>(d % cfg.n());
    current.certs[v] = local::random_state(24, rng);
    radius::LabelingDelta delta;
    delta.touched = {v};
    const Server::Response r = serve(
        encode_delta(id, epoch, 1, n, delta.touched, current),
        Server::now_ns());
    ASSERT_TRUE(r.wire_ok) << r.error;
    EXPECT_EQ(r.verdict.accept(), oracle.run_delta(current, delta).accept())
        << "delta " << d;
    EXPECT_TRUE(watch.expired()) << "delta " << d;
    EXPECT_FALSE(first_frame.expired()) << "delta " << d;
  }

  // The next full replaces the base: the first full's frame goes.
  const Server::Response replaced = serve(encode_full(id, epoch, 1, second),
                                          Server::now_ns());
  ASSERT_TRUE(replaced.wire_ok) << replaced.error;
  EXPECT_EQ(replaced.verdict.accept(), oracle.run_one(second).accept());
  EXPECT_TRUE(first_frame.expired());
  const auto second_frame = watch;
  EXPECT_FALSE(second_frame.expired());

  // Losing the base releases its frame too: a delta that expires before
  // dispatch drops the base along with itself.
  Labeling next = second;
  next.certs[3] = local::random_state(24, rng);
  const std::vector<graph::NodeIndex> touched = {3};
  const std::uint64_t arrival = Server::now_ns();
  const std::uint64_t ttl = 2'000'000;
  server.submit(frame_of(encode_delta(id, epoch, 1, n, touched, next, ttl)),
                arrival);
  while (Server::now_ns() < arrival + ttl) {
  }
  const std::optional<Server::Response> dropped = server.serve_next();
  ASSERT_TRUE(dropped.has_value());
  EXPECT_STREQ(dropped->error, "deadline expired before dispatch");
  EXPECT_TRUE(second_frame.expired());
}

TEST(Server, ProducerMayMutateAFrameOnceItIsReleased) {
  const schemes::StpLanguage language;
  const schemes::StpScheme scheme(language);
  util::Rng rng(60906);
  auto g = share(graph::random_connected(10, 6, rng));
  const local::Configuration cfg = language.sample_legal(g, rng);
  const std::uint64_t epoch = cfg.graph().epoch();
  const Labeling first = scheme.mark(cfg);
  const Labeling second = random_labeling(cfg.n(), rng);

  ServerOptions options;
  options.threads = 1;
  Server server(options);
  const std::uint32_t id = server.add_tenant("mut", scheme, cfg, 1);

  auto mutable_frame = std::make_shared<std::vector<std::uint8_t>>(
      encode_full(id, epoch, 1, first));
  server.submit(Server::Frame(mutable_frame), Server::now_ns());
  ASSERT_TRUE(server.serve_next().has_value());

  // A second full labeling replaces the tenant's base frame; the first
  // frame must be fully released...
  server.submit(frame_of(encode_full(id, epoch, 1, second)),
                Server::now_ns());
  ASSERT_TRUE(server.serve_next().has_value());
  ASSERT_EQ(mutable_frame.use_count(), 1);

  // ...so the producer may now scribble over it with no effect on the
  // tenant's state: a delta on top of `second` still matches the oracle.
  for (std::uint8_t& byte : *mutable_frame) byte = 0xA5;

  Labeling next = second;
  next.certs[3] = local::random_state(24, rng);
  const std::vector<graph::NodeIndex> touched = {3};
  server.submit(
      frame_of(encode_delta(id, epoch, 1,
                            static_cast<std::uint32_t>(cfg.n()), touched,
                            next)),
      Server::now_ns());
  const std::optional<Server::Response> r = server.serve_next();
  ASSERT_TRUE(r.has_value());
  ASSERT_TRUE(r->wire_ok) << r->error;

  radius::BatchOptions batch_options;
  batch_options.threads = 1;
  radius::BatchVerifier oracle(scheme, cfg, 1, batch_options);
  (void)oracle.run_one(first);
  (void)oracle.run_one(second);
  radius::LabelingDelta delta;
  delta.touched = touched;
  EXPECT_EQ(r->verdict.accept(), oracle.run_delta(next, delta).accept());
}

// A tenant the verifier refuses is refused at registration: add_tenant
// throws, registers nothing, and the server keeps serving — no request can
// reach a tenant whose verifier does not exist.
TEST(Server, TenantBelowSchemeRadiusIsRejectedAtRegistration) {
  const schemes::StpLanguage language;
  const schemes::StpScheme stp(language);
  const radius::FragmentSpreadScheme spread(stp, 8);
  util::Rng rng(60907);
  auto g = share(graph::random_connected(12, 6, rng));
  const local::Configuration cfg = language.sample_legal(g, rng);
  const Labeling honest = spread.mark(cfg);

  ServerOptions options;
  options.threads = 2;
  Server server(options);
  EXPECT_THROW((void)server.add_tenant("short", spread, cfg, 4),
               std::logic_error);
  const std::uint32_t id = server.add_tenant("spread", spread, cfg, 8);
  EXPECT_EQ(id, 0u);

  server.submit(frame_of(encode_full(id, cfg.graph().epoch(), 8, honest)),
                Server::now_ns());
  EXPECT_EQ(server.queued(), 1u);
  const std::optional<Server::Response> r = server.serve_next();
  ASSERT_TRUE(r.has_value());
  ASSERT_TRUE(r->wire_ok) << r->error;
  EXPECT_EQ(r->verdict.accept(),
            radius::run_verifier_t_baseline(spread, cfg, honest, 8).accept());
  EXPECT_EQ(server.queued(), 0u);
}

// One pool per server: the process's thread count while a server is alive
// does not grow with its tenant count.  Each tenant's full is served, so
// every verifier has swept at least once.
TEST(Server, WorkerCountIsIndependentOfTenantCount) {
  const std::filesystem::path tasks = "/proc/self/task";
  std::error_code error;
  if (!std::filesystem::is_directory(tasks, error))
    GTEST_SKIP() << "no /proc/self/task to count threads in";
  const auto thread_count = [&] {
    std::size_t count = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator(tasks))
      ++count;
    return count;
  };

  const schemes::StpLanguage language;
  const schemes::StpScheme stp(language);
  const radius::FragmentSpreadScheme spread(stp, 2);
  util::Rng rng(60908);
  auto g = share(graph::grid(8, 8));
  const local::Configuration cfg = language.sample_legal(g, rng);
  const Labeling honest = spread.mark(cfg);
  const Verdict expected =
      radius::run_verifier_t_baseline(spread, cfg, honest, 2);

  constexpr unsigned kThreads = 4;
  const std::size_t before = thread_count();
  for (const std::uint32_t tenants : {1u, 3u, 8u}) {
    SCOPED_TRACE(::testing::Message() << tenants << " tenants");
    ServerOptions options;
    options.threads = kThreads;
    Server server(options);
    for (std::uint32_t i = 0; i < tenants; ++i) {
      ASSERT_EQ(server.add_tenant("tenant" + std::to_string(i), spread, cfg, 2),
                i);
      server.submit(frame_of(encode_full(i, cfg.graph().epoch(), 2, honest)),
                    Server::now_ns());
    }
    const std::vector<Server::Response> responses = server.drain();
    ASSERT_EQ(responses.size(), tenants);
    for (const Server::Response& r : responses) {
      ASSERT_TRUE(r.wire_ok) << r.error;
      EXPECT_EQ(r.verdict.accept(), expected.accept());
    }
    EXPECT_EQ(thread_count(), before + kThreads - 1);
  }
}

}  // namespace
}  // namespace pls::serve

// Overload control: per-tenant queue bounds shed with machine-readable
// rejections and backlog-derived retry hints; deadlines fire at submit and
// at dispatch without ever serving a late verdict; a cancelled run leaves
// the verifier verdict-exact on retry; and a seeded trail with shedding and
// expiry replays to identical responses — overload behavior is part of the
// deterministic contract, not best-effort.
#include <gtest/gtest.h>

#include "radius/batch.hpp"
#include "schemes/spanning_tree.hpp"
#include "serve/server.hpp"
#include "testing/helpers.hpp"
#include "util/cancel.hpp"

namespace pls::serve {
namespace {

using core::Labeling;
using pls::testing::share;

Server::Frame frame_of(std::vector<std::uint8_t> bytes) {
  return std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
}

Labeling random_labeling(std::size_t n, util::Rng& rng) {
  Labeling lab;
  for (std::size_t v = 0; v < n; ++v)
    lab.certs.push_back(local::random_state(rng.below(96), rng));
  return lab;
}

void spin_until(std::uint64_t deadline_ns) {
  while (Server::now_ns() < deadline_ns) {
  }
}

/// One pinned tenant workload shared by the tests below.
struct Fixture {
  schemes::StpLanguage language;
  schemes::StpScheme scheme{language};
  util::Rng rng{81001};
  std::shared_ptr<const graph::Graph> g = share(graph::grid(3, 3));
  local::Configuration cfg = language.sample_legal(g, rng);
  Labeling honest = scheme.mark(cfg);
  std::uint64_t epoch = cfg.graph().epoch();
};

TEST(Overload, QueueBoundShedsWithRetryHints) {
  Fixture fx;
  obs::MetricsRegistry metrics;
  ServerOptions options;
  options.threads = 1;
  options.metrics = &metrics;
  options.max_queued_cost = fx.cfg.n();  // room for exactly one full
  Server server(options);
  const std::uint32_t id = server.add_tenant("solo", fx.scheme, fx.cfg, 1);

  for (int i = 0; i < 3; ++i)
    server.submit(frame_of(encode_full(id, fx.epoch, 1, fx.honest)),
                  Server::now_ns());

  // Sheds surface FIFO ahead of the DRR rounds (no verification work), so
  // drain order is: the two sheds (seq 1, 2), then the served full (seq 0).
  std::vector<Server::Response> responses = server.drain();
  ASSERT_EQ(responses.size(), 3u);
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(responses[i].wire_ok);
    EXPECT_STREQ(responses[i].error, "tenant queue over max_queued_cost");
    EXPECT_EQ(responses[i].rejection.kind, RejectKind::kOverloaded);
    // Nothing has completed yet, so there is no service-rate estimate.
    EXPECT_EQ(responses[i].rejection.retry_after_ns, 0u);
  }
  EXPECT_TRUE(responses[2].wire_ok) << responses[2].error;
  EXPECT_EQ(responses[2].rejection.kind, RejectKind::kNone);

  // After a completed dispatch the EWMA exists: a shed now carries a
  // backlog-priced hint.
  server.submit(frame_of(encode_full(id, fx.epoch, 1, fx.honest)),
                Server::now_ns());
  server.submit(frame_of(encode_full(id, fx.epoch, 1, fx.honest)),
                Server::now_ns());
  responses = server.drain();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].rejection.kind, RejectKind::kOverloaded);
  EXPECT_GT(responses[0].rejection.retry_after_ns, 0u);
  EXPECT_TRUE(responses[1].wire_ok);

  const obs::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("serve.shed"), 3u);
  // Shedding is overload, not garbage: the wire-rejection counter is clean.
  EXPECT_EQ(snap.counters.at("serve.rejected_frames"), 0u);
  EXPECT_EQ(snap.counters.at("serve.expired"), 0u);
}

TEST(Overload, QueueBoundIsPerTenant) {
  Fixture fx;
  ServerOptions options;
  options.threads = 1;
  options.max_queued_cost = fx.cfg.n();
  Server server(options);
  const std::uint32_t a = server.add_tenant("a", fx.scheme, fx.cfg, 1);
  const std::uint32_t b = server.add_tenant("b", fx.scheme, fx.cfg, 1);

  // Fill a's queue, then overflow it; b must still have its full bound.
  server.submit(frame_of(encode_full(a, fx.epoch, 1, fx.honest)),
                Server::now_ns());
  server.submit(frame_of(encode_full(a, fx.epoch, 1, fx.honest)),
                Server::now_ns());
  server.submit(frame_of(encode_full(b, fx.epoch, 1, fx.honest)),
                Server::now_ns());

  const std::vector<Server::Response> responses = server.drain();
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].rejection.kind, RejectKind::kOverloaded);
  EXPECT_EQ(responses[0].tenant_id, a);
  EXPECT_TRUE(responses[1].wire_ok);  // a's first full
  EXPECT_TRUE(responses[2].wire_ok);  // b's full — untouched by a's burst
}

TEST(Overload, ExpiredAtSubmitIsRefusedAdmission) {
  Fixture fx;
  obs::MetricsRegistry metrics;
  ServerOptions options;
  options.threads = 1;
  options.metrics = &metrics;
  Server server(options);
  const std::uint32_t id = server.add_tenant("solo", fx.scheme, fx.cfg, 1);

  // TTL 1 ms from an arrival 5 ms in the past: dead on arrival.
  const std::uint64_t past = Server::now_ns() - 5'000'000;
  server.submit(frame_of(encode_full(id, fx.epoch, 1, fx.honest, 1'000'000)),
                past);
  // A delta behind the expired full: the full never queued, so the delta
  // base promise was never made.
  Labeling next = fx.honest;
  next.certs[2] = local::random_state(24, fx.rng);
  const std::vector<graph::NodeIndex> touched = {2};
  server.submit(
      frame_of(encode_delta(id, fx.epoch, 1,
                            static_cast<std::uint32_t>(fx.cfg.n()), touched,
                            next)),
      Server::now_ns());

  const std::vector<Server::Response> responses = server.drain();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_FALSE(responses[0].wire_ok);
  EXPECT_STREQ(responses[0].error, "deadline expired before admission");
  EXPECT_EQ(responses[0].rejection.kind, RejectKind::kExpired);
  EXPECT_STREQ(responses[1].error, "delta before any full labeling");
  EXPECT_EQ(responses[1].rejection.kind, RejectKind::kMalformed);

  const obs::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("serve.expired"), 1u);
  EXPECT_EQ(snap.counters.at("serve.rejected_frames"), 1u);  // the delta only
}

TEST(Overload, ExpiredHeadIsDroppedAtDispatchNeverServedLate) {
  Fixture fx;
  obs::MetricsRegistry metrics;
  ServerOptions options;
  options.threads = 1;
  options.metrics = &metrics;
  Server server(options);
  const std::uint32_t id = server.add_tenant("solo", fx.scheme, fx.cfg, 1);

  // Admitted alive (deadline 2 ms out), but the dispatcher only gets to it
  // after the deadline passes; behind it a no-deadline request that must be
  // unaffected.
  const std::uint64_t arrival = Server::now_ns();
  const std::uint64_t ttl = 2'000'000;
  server.submit(frame_of(encode_full(id, fx.epoch, 1, fx.honest, ttl)),
                arrival);
  server.submit(frame_of(encode_full(id, fx.epoch, 1, fx.honest)),
                Server::now_ns());
  ASSERT_EQ(server.queued(), 2u);
  spin_until(arrival + ttl);

  const std::optional<Server::Response> late = server.serve_next();
  ASSERT_TRUE(late.has_value());
  EXPECT_FALSE(late->wire_ok);
  EXPECT_STREQ(late->error, "deadline expired before dispatch");
  EXPECT_EQ(late->rejection.kind, RejectKind::kExpired);

  const std::optional<Server::Response> ok = server.serve_next();
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->wire_ok) << ok->error;
  EXPECT_TRUE(ok->verdict.all_accept());

  const obs::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("serve.expired"), 1u);
  // Only SERVED deadline-carrying requests feed the slack histogram.
  EXPECT_EQ(snap.histograms.count("serve.deadline_slack_ns") != 0
                ? snap.histograms.at("serve.deadline_slack_ns").count
                : 0u,
            0u);
}

TEST(Overload, DeltaBehindDispatchExpiredFullFailsFast) {
  // A delta admitted behind a full that later expires at dispatch was
  // submitted against THAT full's labeling.  Serving it against the
  // previous full's base would be a verdict for a hybrid labeling the
  // client never sent — the drop must take the delta base with it.
  Fixture fx;
  obs::MetricsRegistry metrics;
  ServerOptions options;
  options.threads = 1;
  options.metrics = &metrics;
  Server server(options);
  const std::uint32_t id = server.add_tenant("solo", fx.scheme, fx.cfg, 1);

  // Seed a resident base (the stale base the delta must NOT verify against).
  server.submit(frame_of(encode_full(id, fx.epoch, 1, fx.honest)),
                Server::now_ns());
  ASSERT_TRUE(server.serve_next()->wire_ok);

  // A second full with a short TTL, then a delta on top of it — both
  // admitted alive, but the full's deadline passes before dispatch.
  const Labeling second = random_labeling(fx.cfg.n(), fx.rng);
  const std::uint64_t arrival = Server::now_ns();
  const std::uint64_t ttl = 2'000'000;
  server.submit(frame_of(encode_full(id, fx.epoch, 1, second, ttl)), arrival);
  Labeling next = second;
  next.certs[2] = local::random_state(24, fx.rng);
  const std::vector<graph::NodeIndex> touched = {2};
  server.submit(
      frame_of(encode_delta(id, fx.epoch, 1,
                            static_cast<std::uint32_t>(fx.cfg.n()), touched,
                            next)),
      Server::now_ns());
  spin_until(arrival + ttl);

  const std::optional<Server::Response> dropped = server.serve_next();
  ASSERT_TRUE(dropped.has_value());
  EXPECT_STREQ(dropped->error, "deadline expired before dispatch");
  EXPECT_EQ(dropped->rejection.kind, RejectKind::kExpired);

  const std::optional<Server::Response> orphan = server.serve_next();
  ASSERT_TRUE(orphan.has_value());
  EXPECT_FALSE(orphan->wire_ok);
  EXPECT_STREQ(orphan->error, "no delta base resident");
  EXPECT_EQ(orphan->rejection.kind, RejectKind::kCancelled);

  // Recovery: a fresh full re-seeds the base and a delta behind it serves
  // an oracle-exact verdict again.
  server.submit(frame_of(encode_full(id, fx.epoch, 1, second)),
                Server::now_ns());
  server.submit(
      frame_of(encode_delta(id, fx.epoch, 1,
                            static_cast<std::uint32_t>(fx.cfg.n()), touched,
                            next)),
      Server::now_ns());
  const std::vector<Server::Response> recovered = server.drain();
  ASSERT_EQ(recovered.size(), 2u);
  ASSERT_TRUE(recovered[0].wire_ok) << recovered[0].error;
  ASSERT_TRUE(recovered[1].wire_ok) << recovered[1].error;
  radius::BatchOptions oracle_options;
  oracle_options.threads = 1;
  radius::BatchVerifier oracle(fx.scheme, fx.cfg, 1, oracle_options);
  EXPECT_EQ(recovered[0].verdict.accept(), oracle.run_one(second).accept());
  radius::LabelingDelta delta;
  delta.touched = touched;
  EXPECT_EQ(recovered[1].verdict.accept(),
            oracle.run_delta(next, delta).accept());

  const obs::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("serve.expired"), 1u);
}

TEST(Overload, DeltaBehindDispatchExpiredDeltaFailsFast) {
  // Same hole, delta-chain flavor: when an INTERMEDIATE delta expires at
  // dispatch, the chain behind it is missing one update — the next delta
  // must fail fast, not apply on top of the gap.
  Fixture fx;
  ServerOptions options;
  options.threads = 1;
  Server server(options);
  const std::uint32_t id = server.add_tenant("solo", fx.scheme, fx.cfg, 1);

  server.submit(frame_of(encode_full(id, fx.epoch, 1, fx.honest)),
                Server::now_ns());
  ASSERT_TRUE(server.serve_next()->wire_ok);

  Labeling mid = fx.honest;
  mid.certs[1] = local::random_state(24, fx.rng);
  Labeling next = mid;
  next.certs[5] = local::random_state(24, fx.rng);
  const std::vector<graph::NodeIndex> touched_mid = {1};
  const std::vector<graph::NodeIndex> touched_next = {5};
  const std::uint64_t arrival = Server::now_ns();
  const std::uint64_t ttl = 2'000'000;
  server.submit(
      frame_of(encode_delta(id, fx.epoch, 1,
                            static_cast<std::uint32_t>(fx.cfg.n()),
                            touched_mid, mid, ttl)),
      arrival);
  server.submit(
      frame_of(encode_delta(id, fx.epoch, 1,
                            static_cast<std::uint32_t>(fx.cfg.n()),
                            touched_next, next)),
      Server::now_ns());
  spin_until(arrival + ttl);

  const std::optional<Server::Response> dropped = server.serve_next();
  ASSERT_TRUE(dropped.has_value());
  EXPECT_STREQ(dropped->error, "deadline expired before dispatch");

  const std::optional<Server::Response> orphan = server.serve_next();
  ASSERT_TRUE(orphan.has_value());
  EXPECT_FALSE(orphan->wire_ok);
  EXPECT_STREQ(orphan->error, "no delta base resident");
  EXPECT_EQ(orphan->rejection.kind, RejectKind::kCancelled);
}

TEST(Overload, ServedDeadlineRequestRecordsSlack) {
  Fixture fx;
  obs::MetricsRegistry metrics;
  ServerOptions options;
  options.threads = 1;
  options.metrics = &metrics;
  Server server(options);
  const std::uint32_t id = server.add_tenant("solo", fx.scheme, fx.cfg, 1);

  // A generous TTL: served well before the deadline, slack lands in the
  // histogram and the verdict matches the in-memory oracle bit for bit.
  server.submit(
      frame_of(encode_full(id, fx.epoch, 1, fx.honest, 60'000'000'000ull)),
      Server::now_ns());
  const std::optional<Server::Response> r = server.serve_next();
  ASSERT_TRUE(r.has_value());
  ASSERT_TRUE(r->wire_ok) << r->error;

  radius::BatchOptions batch_options;
  batch_options.threads = 1;
  radius::BatchVerifier oracle(fx.scheme, fx.cfg, 1, batch_options);
  EXPECT_EQ(r->verdict.accept(), oracle.run_one(fx.honest).accept());

  const obs::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.histograms.at("serve.deadline_slack_ns").count, 1u);
  EXPECT_GT(snap.histograms.at("serve.deadline_slack_ns").max, 0u);
}

TEST(Overload, CancelledRunIsVerdictExactOnRetry) {
  // The serving contract behind mid-sweep cancellation: an abandoned run
  // leaves no resident state, so the NEXT run of the same batch is
  // bit-identical to a never-cancelled verifier.
  Fixture fx;
  const Labeling garbage = random_labeling(fx.cfg.n(), fx.rng);
  util::CancelToken token;

  radius::BatchOptions options;
  options.threads = 1;
  radius::BatchVerifier verifier(fx.scheme, fx.cfg, 1, options);
  verifier.set_cancel(&token);

  token.cancel();
  EXPECT_THROW((void)verifier.run_one(fx.honest), util::CancelledError);
  token.reset();

  radius::BatchOptions oracle_options;
  oracle_options.threads = 1;
  radius::BatchVerifier oracle(fx.scheme, fx.cfg, 1, oracle_options);
  EXPECT_EQ(verifier.run_one(fx.honest).accept(),
            oracle.run_one(fx.honest).accept());
  EXPECT_EQ(verifier.run_one(garbage).accept(),
            oracle.run_one(garbage).accept());

  // Delta flavor: cancellation refused at entry keeps the resident base
  // valid, so the SAME delta retried verifies exactly.
  Labeling next = fx.honest;
  next.certs[4] = local::random_state(32, fx.rng);
  radius::LabelingDelta delta;
  delta.touched = {4};
  (void)verifier.run_one(fx.honest);
  (void)oracle.run_one(fx.honest);
  token.cancel();
  EXPECT_THROW((void)verifier.run_delta(next, delta), util::CancelledError);
  token.reset();
  EXPECT_EQ(verifier.run_delta(next, delta).accept(),
            oracle.run_delta(next, delta).accept());

  // Full flavor of the same rule: a run_one refused at entry touches no
  // buffer, so the resident base survives it and the next delta builds on it.
  token.cancel();
  EXPECT_THROW((void)verifier.run_one(garbage), util::CancelledError);
  token.reset();
  EXPECT_TRUE(verifier.has_resident());
  Labeling after = next;
  after.certs[7] = local::random_state(32, fx.rng);
  radius::LabelingDelta delta_after;
  delta_after.touched = {7};
  EXPECT_EQ(verifier.run_delta(after, delta_after).accept(),
            oracle.run_delta(after, delta_after).accept());
}

TEST(Overload, SeededTrailWithSheddingReplaysIdentically) {
  // The same scripted trail — fulls, deltas, pre-expired frames, and enough
  // burst to shed — against two servers: every response must agree on
  // (seq, wire_ok, error, kind, verdict), and the served verdicts must
  // match an offline oracle that applies only the SERVED mutations.
  Fixture fx;
  std::vector<Labeling> fulls;
  util::Rng rng(81002);
  for (int i = 0; i < 3; ++i) fulls.push_back(random_labeling(fx.cfg.n(), rng));
  fulls.push_back(fx.honest);

  const auto run_trail = [&](std::vector<Server::Response>& out) {
    ServerOptions options;
    options.threads = 1;
    options.max_queued_cost = 2 * fx.cfg.n();  // two fulls of headroom
    Server server(options);
    const std::uint32_t id = server.add_tenant("solo", fx.scheme, fx.cfg, 1);
    const auto submit_full = [&](const Labeling& lab, bool expired) {
      const std::uint64_t ttl = expired ? 1'000'000 : 0;
      const std::uint64_t arrival =
          expired ? Server::now_ns() - 5'000'000 : Server::now_ns();
      server.submit(frame_of(encode_full(id, fx.epoch, 1, lab, ttl)),
                    arrival);
    };
    // Burst of four fulls: the third and fourth overflow 2n and shed.
    for (int i = 0; i < 4; ++i) submit_full(fulls[i], false);
    // A dead-on-arrival full, deterministic by construction.
    submit_full(fulls[0], true);
    for (std::optional<Server::Response> r = server.serve_next();
         r.has_value(); r = server.serve_next())
      out.push_back(std::move(*r));
    // Refill after the drain: shedding is a queue-state property, so the
    // same full that shed in the burst is admitted now.
    submit_full(fulls[2], false);
    std::vector<Server::Response> tail = server.drain();
    for (Server::Response& r : tail) out.push_back(std::move(r));
  };

  std::vector<Server::Response> first, second;
  run_trail(first);
  run_trail(second);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].seq, second[i].seq) << i;
    EXPECT_EQ(first[i].wire_ok, second[i].wire_ok) << i;
    EXPECT_STREQ(first[i].error, second[i].error);
    EXPECT_EQ(first[i].rejection.kind, second[i].rejection.kind) << i;
    EXPECT_EQ(first[i].verdict.accept(), second[i].verdict.accept()) << i;
  }

  // Offline oracle over the SERVED fulls only (seq 0 and 1 admitted; 2, 3
  // shed; 4 expired; 5 admitted after the drain).
  radius::BatchOptions batch_options;
  batch_options.threads = 1;
  radius::BatchVerifier oracle(fx.scheme, fx.cfg, 1, batch_options);
  std::size_t served = 0;
  for (const Server::Response& r : first) {
    if (!r.wire_ok) continue;
    const Labeling& lab = r.seq == 0   ? fulls[0]
                          : r.seq == 1 ? fulls[1]
                                       : fulls[2];
    EXPECT_EQ(r.verdict.accept(), oracle.run_one(lab).accept())
        << "seq " << r.seq;
    ++served;
  }
  EXPECT_EQ(served, 3u);
}

}  // namespace
}  // namespace pls::serve

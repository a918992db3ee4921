// Experiment R4 — multi-tenant serving over one shared geometry budget.
//
// Three tenants with deliberately different shapes — a flat spanning-tree
// verifier (stp t=1) on a large random instance, a deep spread (stp t=8) and
// a weighted MST fragment spread (mst t=4) on bounded-growth grids — share
// ONE serve::Server: one GeometryAtlas (256 MB by default, the budget the
// by-radius gauges attribute), one BatchVerifier per tenant, deficit
// round-robin over the per-tenant queues.
//
// The workload is OPEN LOOP: every tenant's requests arrive on a fixed
// schedule (one seeding full labeling, then single-certificate deltas at the
// tenant's offered rate) whether or not the server has caught up, so
// queueing delay lands in the measured latency exactly as a deployment
// would quote it.  The dispatcher submits frames at their arrival times and
// serves between arrivals; the per-tenant serve.latency_ns histograms come
// from the server itself.
//
// The number under test is FAIRNESS: with DRR no tenant's p99 should run
// away from the others even though their per-request costs differ — the
// --require-tenant-p99-ratio gate holds max(p99)/min(p99) under a bound
// (the CI smoke uses 3).  Verdicts are replayed per tenant against a fresh
// in-memory BatchVerifier (own atlas, same thread count) and asserted
// bit-identical to the wire-path responses — the zero-copy ingestion must
// never change a verdict.
//
// The default offered rate is derived, not hardcoded: a closed-loop warmup
// drains one copy of the whole workload as fast as the server can, and the
// open-loop phase then offers 70% of that measured capacity (the
// sustainable-regime convention; --arrival-rate overrides with an aggregate
// requests/sec).
//
// Usage: bench_serve_multitenant [--smoke] [--out FILE] [--seed S]
//                                [--threads T] [--deltas D]
//                                [--atlas-mb MB] [--arrival-rate A]
//                                [--require-tenant-p99-ratio R]
//   --smoke               shorter streams (CI-friendly)
//   --out FILE            write the JSON artifact there instead of stdout
//   --seed S              base RNG seed (echoed into the JSON)
//   --threads T           slots of the server's one sweep pool, shared by
//                         every tenant (default: hw)
//   --deltas D            delta requests per tenant (default 256; 96 smoke)
//   --atlas-mb MB         shared atlas budget in MiB (default 256)
//   --arrival-rate A      aggregate offered rate, requests/sec (default:
//                         0.7x the measured closed-loop capacity)
//   --require-tenant-p99-ratio R  fail if max(p99)/min(p99) across tenants
//                         exceeds R
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "radius/batch.hpp"
#include "radius/fragment_spread.hpp"
#include "schemes/mst.hpp"
#include "schemes/spanning_tree.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace pls;

constexpr std::uint64_t kDefaultSeed = 0x7E4A47'5EA7ull;

/// One tenant's pinned instance plus its request stream (the frames are
/// pre-encoded so the timed loops only move pointers).
struct TenantPlan {
  std::string name;
  const core::Scheme* scheme = nullptr;
  const local::Configuration* cfg = nullptr;
  unsigned t = 0;
  std::uint32_t id = 0;
  std::vector<serve::Server::Frame> frames;      ///< [0] is the seeding full
  std::vector<core::Labeling> states;            ///< labeling after frame i
  std::vector<graph::NodeIndex> touched;         ///< node of delta i (i >= 1)
};

serve::Server::Frame frame_of(std::vector<std::uint8_t> bytes) {
  return std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
}

/// Builds the tenant's stream: one full labeling (the scheme's honest
/// marking), then `deltas` single-certificate mutations encoded as delta
/// frames.  Mutations keep the certificate size small so the DRR cost of a
/// delta is its payload count (1), not a hidden byte volume.
void plan_stream(TenantPlan& plan, std::size_t deltas, util::Rng& rng) {
  const local::Configuration& cfg = *plan.cfg;
  core::Labeling current = plan.scheme->mark(cfg);
  plan.frames.push_back(frame_of(serve::encode_full(
      plan.id, cfg.graph().epoch(), plan.t, current)));
  plan.states.push_back(current);
  const auto n = static_cast<std::uint32_t>(cfg.n());
  for (std::size_t d = 0; d < deltas; ++d) {
    const auto v = static_cast<graph::NodeIndex>(rng.below(cfg.n()));
    if (rng.below(2) == 0) {
      current.certs[v] = current.certs[rng.below(cfg.n())];
    } else {
      current.certs[v] = local::random_state(rng.below(64), rng);
    }
    const std::vector<graph::NodeIndex> touched = {v};
    plan.frames.push_back(frame_of(serve::encode_delta(
        plan.id, cfg.graph().epoch(), plan.t, n, touched, current)));
    plan.states.push_back(current);
    plan.touched.push_back(v);
  }
}

/// A globally interleaved arrival order: round-robin over the tenants'
/// streams (tenant order rotates per round so no tenant always arrives
/// first in a burst).
struct Arrival {
  std::size_t tenant = 0;
  std::size_t index = 0;  ///< into that tenant's frames
};

std::vector<Arrival> interleave(const std::vector<TenantPlan>& plans) {
  std::vector<Arrival> order;
  std::size_t longest = 0;
  for (const TenantPlan& p : plans)
    longest = std::max(longest, p.frames.size());
  for (std::size_t i = 0; i < longest; ++i)
    for (std::size_t rot = 0; rot < plans.size(); ++rot) {
      const std::size_t tenant = (i + rot) % plans.size();
      if (i < plans[tenant].frames.size()) order.push_back({tenant, i});
    }
  return order;
}

struct TenantResult {
  std::string name;
  std::size_t n = 0;
  unsigned t = 0;
  std::size_t requests = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
};

struct RunResult {
  double offered_per_sec = 0.0;
  double sustained_per_sec = 0.0;
  double closed_loop_per_sec = 0.0;
  double window_s = 0.0;
  std::vector<TenantResult> tenants;
  double p99_ratio = 0.0;  ///< max p99 / min p99, over bucket edges
  /// The tenants' best and worst p99 bucket edges, in integer ns: the
  /// p99-ratio gate compares these, not the rounded quotient above.
  std::uint64_t best_p99_edge_ns = 0;
  std::uint64_t worst_p99_edge_ns = 0;
  radius::AtlasStats atlas;
  bool verdicts_identical = false;
};

/// Drains one full copy of the workload through a fresh server as fast as
/// possible; returns aggregate requests/sec (the capacity estimate the
/// open-loop rate defaults against) and the responses for verdict replay.
double closed_loop_capacity(const std::vector<TenantPlan>& plans,
                            const std::vector<Arrival>& order,
                            const serve::ServerOptions& base_options) {
  serve::ServerOptions options = base_options;
  options.metrics = nullptr;
  options.atlas = nullptr;  // private atlas: don't warm the measured one
  serve::Server server(options);
  std::vector<std::uint32_t> ids(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i)
    ids[i] = server.add_tenant(plans[i].name, *plans[i].scheme,
                               *plans[i].cfg, plans[i].t);
  // Tenant ids are assigned in registration order, so the pre-encoded
  // frames (which carry plan.id) stay valid as long as the order matches.
  for (std::size_t i = 0; i < plans.size(); ++i)
    PLS_REQUIRE(ids[i] == plans[i].id);
  const auto start = std::chrono::steady_clock::now();
  std::size_t total = 0;
  for (const Arrival& a : order) {
    server.submit(plans[a.tenant].frames[a.index], serve::Server::now_ns());
    ++total;
  }
  const std::vector<serve::Server::Response> responses = server.drain();
  const auto stop = std::chrono::steady_clock::now();
  PLS_ASSERT(responses.size() == total);
  for (const serve::Server::Response& r : responses)
    PLS_REQUIRE(r.wire_ok);
  const double secs = std::chrono::duration<double>(stop - start).count();
  return static_cast<double>(total) / secs;
}

RunResult run_open_loop(const std::vector<TenantPlan>& plans,
                        const std::vector<Arrival>& order,
                        const serve::ServerOptions& base_options,
                        std::size_t atlas_bytes, double arrival_rate,
                        unsigned threads) {
  RunResult result;
  result.closed_loop_per_sec =
      closed_loop_capacity(plans, order, base_options);
  result.offered_per_sec = arrival_rate > 0.0
                               ? arrival_rate
                               : 0.7 * result.closed_loop_per_sec;

  obs::MetricsRegistry registry;
  radius::AtlasOptions atlas_options;
  atlas_options.byte_budget = atlas_bytes;
  serve::ServerOptions options = base_options;
  options.metrics = &registry;
  options.atlas = std::make_shared<radius::GeometryAtlas>(atlas_options);
  serve::Server server(options);
  for (const TenantPlan& p : plans)
    PLS_REQUIRE(server.add_tenant(p.name, *p.scheme, *p.cfg, p.t) == p.id);

  // The dispatcher loop: submit each frame at its scheduled arrival time,
  // serve queued requests between arrivals, then drain.  Latency is
  // measured by the server from the SCHEDULED arrival (passed to submit),
  // so a sweep that overruns its slot charges the overrun to the requests
  // queued behind it.
  std::vector<serve::Server::Response> responses;
  responses.reserve(order.size());
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t start_ns = serve::Server::now_ns();
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto scheduled =
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(
                        static_cast<double>(i) / result.offered_per_sec));
    // Serve while waiting for the next arrival; sleep only when idle.
    while (std::chrono::steady_clock::now() < scheduled) {
      if (std::optional<serve::Server::Response> r = server.serve_next()) {
        responses.push_back(std::move(*r));
      } else {
        std::this_thread::sleep_until(scheduled);
      }
    }
    const std::uint64_t arrival_ns =
        start_ns + static_cast<std::uint64_t>(
                       1e9 * static_cast<double>(i) / result.offered_per_sec);
    server.submit(plans[order[i].tenant].frames[order[i].index], arrival_ns);
  }
  for (serve::Server::Response& r : server.drain())
    responses.push_back(std::move(r));
  const auto stop = std::chrono::steady_clock::now();
  result.window_s = std::chrono::duration<double>(stop - start).count();
  result.sustained_per_sec =
      static_cast<double>(order.size()) / result.window_s;
  result.atlas = server.atlas()->stats();

  // Per-tenant latency: the server's own serve.latency_ns.<name> histograms.
  const obs::MetricsSnapshot snap = registry.snapshot();
  // A histogram quantile is its bucket's inclusive upper bound, one below
  // the bucket's edge.  Edge ratios are exact (3 * 2^22 over 2^22 is 3),
  // while the bounds' ratio overshoots by 2 / (2^22 - 1) — a p99 ratio
  // "3.000 > 3.000" — so the ratio and its gate read the edges.
  std::uint64_t& best_p99 = result.best_p99_edge_ns;
  std::uint64_t& worst_p99 = result.worst_p99_edge_ns;
  for (const TenantPlan& p : plans) {
    const obs::HistogramSnapshot& h =
        snap.histograms.at("serve.latency_ns." + p.name);
    TenantResult tr;
    tr.name = p.name;
    tr.n = p.cfg->n();
    tr.t = p.t;
    tr.requests = h.count;
    tr.p50_ms = static_cast<double>(h.quantile(0.5)) / 1e6;
    const std::uint64_t p99_ns = h.quantile(0.99);
    tr.p99_ms = static_cast<double>(p99_ns) / 1e6;
    tr.mean_ms = h.count == 0 ? 0.0
                              : static_cast<double>(h.sum) /
                                    (1e6 * static_cast<double>(h.count));
    PLS_REQUIRE(tr.requests == p.frames.size());
    const std::uint64_t edge = p99_ns + 1;
    best_p99 = best_p99 == 0 ? edge : std::min(best_p99, edge);
    worst_p99 = std::max(worst_p99, edge);
    result.tenants.push_back(std::move(tr));
  }
  result.p99_ratio = best_p99 > 0 ? static_cast<double>(worst_p99) /
                                        static_cast<double>(best_p99)
                                  : 0.0;

  // Verdict identity: replay every tenant's stream through a fresh
  // in-memory BatchVerifier (own default atlas, same thread count) and
  // compare against the wire-path verdicts, matched by (tenant, seq order).
  std::vector<std::vector<const serve::Server::Response*>> by_tenant(
      plans.size());
  for (const serve::Server::Response& r : responses) {
    PLS_REQUIRE(r.wire_ok);
    by_tenant[r.tenant_id].push_back(&r);
  }
  bool identical = true;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const TenantPlan& p = plans[i];
    std::sort(by_tenant[i].begin(), by_tenant[i].end(),
              [](const serve::Server::Response* a,
                 const serve::Server::Response* b) { return a->seq < b->seq; });
    PLS_REQUIRE(by_tenant[i].size() == p.frames.size());
    radius::BatchOptions check;
    check.threads = threads;
    radius::BatchVerifier oracle(*p.scheme, *p.cfg, p.t, check);
    for (std::size_t j = 0; j < p.states.size(); ++j) {
      core::Verdict expect;
      if (j == 0) {
        expect = oracle.run_one(p.states[0]);
      } else {
        radius::LabelingDelta delta;
        delta.touched = {p.touched[j - 1]};
        expect = oracle.run_delta(p.states[j], delta);
      }
      identical =
          identical && by_tenant[i][j]->verdict.accept() == expect.accept();
    }
  }
  result.verdicts_identical = identical;
  PLS_ASSERT(identical);
  return result;
}

void emit(std::ostream& out, const RunResult& r,
          const std::vector<TenantPlan>& plans, std::size_t atlas_bytes,
          unsigned threads, std::uint64_t seed) {
  obs::JsonWriter json(out);
  json.begin_object();
  json.kv("bench", "serve_multitenant");
  json.kv("seed", seed);
  json.kv("threads", threads);
  json.kv("tenant_count", plans.size());
  json.kv("atlas_byte_budget", atlas_bytes);
  json.kv("closed_loop_per_sec", r.closed_loop_per_sec);
  json.kv("offered_per_sec", r.offered_per_sec);
  json.kv("sustained_per_sec", r.sustained_per_sec);
  json.kv("window_s", r.window_s);
  json.kv("p99_ratio", r.p99_ratio);
  json.kv("verdicts_identical", r.verdicts_identical);
  json.key("tenants");
  json.begin_array();
  for (const TenantResult& t : r.tenants) {
    json.begin_object();
    json.kv("name", t.name);
    json.kv("n", t.n);
    json.kv("t", t.t);
    json.kv("requests", t.requests);
    json.kv("p50_ms", t.p50_ms);
    json.kv("p99_ms", t.p99_ms);
    json.kv("mean_ms", t.mean_ms);
    json.end_object();
  }
  json.end_array();
  json.key("atlas");
  json.begin_object();
  json.kv("hits", r.atlas.hits);
  json.kv("misses", r.atlas.misses);
  json.kv("hit_rate", r.atlas.hit_rate());
  json.kv("evictions", r.atlas.evictions);
  json.kv("sketch_rejects", r.atlas.sketch_rejects);
  json.kv("bytes_in_use", r.atlas.bytes_in_use);
  json.kv("peak_bytes", r.atlas.peak_bytes);
  json.key("by_radius");
  json.begin_object();
  for (const auto& [t, rb] : r.atlas.by_radius) {
    // Built with += rather than operator+(const char*, string&&), which
    // trips GCC 12's -Wrestrict false positive when inlined here.
    std::string rkey = "r";
    rkey += std::to_string(t);
    json.key(rkey);
    json.begin_object();
    json.kv("bytes_in_use", rb.bytes_in_use);
    json.kv("peak_bytes", rb.peak_bytes);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  json.end_object();
  PLS_ASSERT(json.finished());
}

// ---------------------------------------------------------------------------
// Overload phase — graceful degradation under offered load beyond capacity.
//
// Requested with --overload-out and/or --require-goodput-ratio.  The streams
// here are FULLS ONLY (each tenant cycles kOverloadVariants pre-built
// labelings) so that shedding a request never invalidates a later one — a
// shed delta would orphan the whole remaining chain and measure the
// workload's fragility, not the server's.  A closed-loop probe measures
// capacity, then each ladder point {0.7, 1.0, 1.5, 2.0}x offers load open
// loop against a FRESH server with a bounded queue
// (6 x max tenant n of DRR cost, ~6 fulls deep for the largest tenant) and
// a wire-carried TTL of --overload-ttl-x mean service times.  Graceful
// degradation means: past saturation, goodput holds near capacity (the
// --require-goodput-ratio gate), accepted-request p99 stays bounded by the
// TTL (deadline checks at submit, dispatch, mid-sweep, and post-run make
// serving late impossible — the gate allows 3x for measurement slack), and every
// SERVED verdict is bit-identical to a fresh in-memory oracle.

constexpr std::size_t kOverloadVariants = 4;
constexpr double kOverloadRates[] = {0.7, 1.0, 1.5, 2.0};

struct OverloadStream {
  std::vector<core::Labeling> variants;
  std::vector<core::Verdict> expect;         ///< oracle verdict per variant
  std::vector<serve::Server::Frame> frames;  ///< per variant, one encoding
};

std::vector<OverloadStream> plan_overload(const std::vector<TenantPlan>& plans,
                                          unsigned threads, util::Rng& rng) {
  std::vector<OverloadStream> streams(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const TenantPlan& p = plans[i];
    OverloadStream& s = streams[i];
    core::Labeling base = p.scheme->mark(*p.cfg);
    s.variants.push_back(base);
    for (std::size_t v = 1; v < kOverloadVariants; ++v) {
      core::Labeling labeling = base;
      const std::size_t mutations = std::max<std::size_t>(1, p.cfg->n() / 8);
      for (std::size_t m = 0; m < mutations; ++m) {
        const auto node = static_cast<graph::NodeIndex>(rng.below(p.cfg->n()));
        if (rng.below(2) == 0) {
          labeling.certs[node] = labeling.certs[rng.below(p.cfg->n())];
        } else {
          labeling.certs[node] = local::random_state(rng.below(64), rng);
        }
      }
      s.variants.push_back(std::move(labeling));
    }
    radius::BatchOptions check;
    check.threads = threads;
    radius::BatchVerifier oracle(*p.scheme, *p.cfg, p.t, check);
    for (const core::Labeling& labeling : s.variants)
      s.expect.push_back(oracle.run_one(labeling));
  }
  return streams;
}

/// (Re-)encodes every variant frame; ttl_ns == 0 emits version-1 frames
/// (the capacity probe has no deadline), nonzero emits version-2.
void encode_overload(const std::vector<TenantPlan>& plans,
                     std::vector<OverloadStream>& streams,
                     std::uint64_t ttl_ns) {
  for (std::size_t i = 0; i < plans.size(); ++i) {
    streams[i].frames.clear();
    for (const core::Labeling& labeling : streams[i].variants)
      streams[i].frames.push_back(frame_of(
          serve::encode_full(plans[i].id, plans[i].cfg->graph().epoch(),
                             plans[i].t, labeling, ttl_ns)));
  }
}

struct OverloadPoint {
  double rate_x = 0.0;
  double offered_per_sec = 0.0;
  std::size_t accepted = 0;  ///< served with a verdict
  std::size_t shed = 0;      ///< kOverloaded at submit
  std::size_t expired = 0;   ///< kExpired at any checkpoint (submit..post-run)
  std::uint64_t cancelled_sweeps = 0;
  double goodput_per_sec = 0.0;
  double accepted_p99_ms = 0.0;  ///< worst tenant's served-latency p99
  double window_s = 0.0;
};

struct OverloadResult {
  double closed_loop_per_sec = 0.0;
  std::uint64_t ttl_ns = 0;
  std::uint64_t max_queued_cost = 0;
  std::size_t requests_per_tenant = 0;
  std::vector<OverloadPoint> points;
  double goodput_ratio_at_max = 0.0;
  bool verdicts_identical = true;
};

double overload_capacity(const std::vector<TenantPlan>& plans,
                         const std::vector<OverloadStream>& streams,
                         std::size_t requests_per_tenant,
                         const serve::ServerOptions& base_options) {
  serve::ServerOptions options = base_options;
  options.metrics = nullptr;
  options.atlas = nullptr;  // private atlas, like every ladder point's
  serve::Server server(options);
  for (const TenantPlan& p : plans)
    PLS_REQUIRE(server.add_tenant(p.name, *p.scheme, *p.cfg, p.t) == p.id);
  const auto start = std::chrono::steady_clock::now();
  std::size_t total = 0;
  for (std::size_t r = 0; r < requests_per_tenant; ++r)
    for (std::size_t rot = 0; rot < plans.size(); ++rot) {
      const std::size_t tenant = (r + rot) % plans.size();
      server.submit(streams[tenant].frames[r % kOverloadVariants],
                    serve::Server::now_ns());
      ++total;
    }
  const std::vector<serve::Server::Response> responses = server.drain();
  const auto stop = std::chrono::steady_clock::now();
  PLS_ASSERT(responses.size() == total);
  for (const serve::Server::Response& r : responses) PLS_REQUIRE(r.wire_ok);
  const double secs = std::chrono::duration<double>(stop - start).count();
  return static_cast<double>(total) / secs;
}

OverloadPoint run_overload_point(const std::vector<TenantPlan>& plans,
                                 const std::vector<OverloadStream>& streams,
                                 std::size_t requests_per_tenant, double rate_x,
                                 double capacity,
                                 const serve::ServerOptions& base_options,
                                 std::uint64_t max_queued_cost,
                                 bool* verdicts_identical) {
  OverloadPoint point;
  point.rate_x = rate_x;
  point.offered_per_sec = rate_x * capacity;

  obs::MetricsRegistry registry;
  serve::ServerOptions options = base_options;
  options.metrics = &registry;
  options.atlas = nullptr;  // fresh server AND atlas: points are independent
  options.max_queued_cost = max_queued_cost;
  serve::Server server(options);
  for (const TenantPlan& p : plans)
    PLS_REQUIRE(server.add_tenant(p.name, *p.scheme, *p.cfg, p.t) == p.id);

  std::vector<serve::Server::Response> responses;
  responses.reserve(requests_per_tenant * plans.size());
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t start_ns = serve::Server::now_ns();
  std::size_t submitted = 0;
  for (std::size_t r = 0; r < requests_per_tenant; ++r)
    for (std::size_t rot = 0; rot < plans.size(); ++rot) {
      const std::size_t tenant = (r + rot) % plans.size();
      const auto scheduled =
          start +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(static_cast<double>(submitted) /
                                            point.offered_per_sec));
      while (std::chrono::steady_clock::now() < scheduled) {
        if (std::optional<serve::Server::Response> resp = server.serve_next()) {
          responses.push_back(std::move(*resp));
        } else {
          std::this_thread::sleep_until(scheduled);
        }
      }
      const std::uint64_t arrival_ns =
          start_ns +
          static_cast<std::uint64_t>(1e9 * static_cast<double>(submitted) /
                                     point.offered_per_sec);
      server.submit(streams[tenant].frames[r % kOverloadVariants], arrival_ns);
      ++submitted;
    }
  for (serve::Server::Response& resp : server.drain())
    responses.push_back(std::move(resp));
  const auto stop = std::chrono::steady_clock::now();
  point.window_s = std::chrono::duration<double>(stop - start).count();

  // Classify the outcome of every submission; the fulls-only workload can
  // only be served, shed, or expired — any other rejection is a bench bug.
  std::vector<std::vector<const serve::Server::Response*>> by_tenant(
      plans.size());
  for (const serve::Server::Response& resp : responses) {
    if (resp.wire_ok) {
      ++point.accepted;
    } else if (resp.rejection.kind == serve::RejectKind::kOverloaded) {
      ++point.shed;
    } else if (resp.rejection.kind == serve::RejectKind::kExpired) {
      ++point.expired;
    } else {
      PLS_REQUIRE(false);
    }
    by_tenant[resp.tenant_id].push_back(&resp);
  }
  PLS_ASSERT(point.accepted + point.shed + point.expired ==
             requests_per_tenant * plans.size());
  point.goodput_per_sec = static_cast<double>(point.accepted) / point.window_s;

  // Served verdicts must match the oracle: tenant responses sorted by seq
  // are that tenant's submissions in order, so position j used variant
  // j % kOverloadVariants even when some submissions were shed.
  for (std::size_t i = 0; i < plans.size(); ++i) {
    std::sort(by_tenant[i].begin(), by_tenant[i].end(),
              [](const serve::Server::Response* a,
                 const serve::Server::Response* b) { return a->seq < b->seq; });
    PLS_REQUIRE(by_tenant[i].size() == requests_per_tenant);
    for (std::size_t j = 0; j < by_tenant[i].size(); ++j)
      if (by_tenant[i][j]->wire_ok &&
          by_tenant[i][j]->verdict.accept() !=
              streams[i].expect[j % kOverloadVariants].accept())
        *verdicts_identical = false;
  }

  const obs::MetricsSnapshot snap = registry.snapshot();
  point.cancelled_sweeps = snap.counters.at("serve.cancelled_sweeps");
  for (const TenantPlan& p : plans) {
    const obs::HistogramSnapshot& h =
        snap.histograms.at("serve.latency_ns." + p.name);
    if (h.count > 0)
      point.accepted_p99_ms =
          std::max(point.accepted_p99_ms,
                   static_cast<double>(h.quantile(0.99)) / 1e6);
  }
  return point;
}

OverloadResult run_overload(const std::vector<TenantPlan>& plans,
                            const serve::ServerOptions& base_options,
                            std::size_t requests_per_tenant, double ttl_x,
                            unsigned threads, util::Rng& rng) {
  OverloadResult result;
  result.requests_per_tenant = requests_per_tenant;
  std::vector<OverloadStream> streams = plan_overload(plans, threads, rng);
  encode_overload(plans, streams, 0);  // deadline-free capacity probe
  result.closed_loop_per_sec =
      overload_capacity(plans, streams, requests_per_tenant, base_options);
  result.ttl_ns =
      static_cast<std::uint64_t>(ttl_x * 1e9 / result.closed_loop_per_sec);
  std::size_t max_n = 0;
  for (const TenantPlan& p : plans) max_n = std::max(max_n, p.cfg->n());
  result.max_queued_cost = 6 * static_cast<std::uint64_t>(max_n);
  encode_overload(plans, streams, result.ttl_ns);
  for (const double rate_x : kOverloadRates)
    result.points.push_back(run_overload_point(
        plans, streams, requests_per_tenant, rate_x,
        result.closed_loop_per_sec, base_options, result.max_queued_cost,
        &result.verdicts_identical));
  result.goodput_ratio_at_max =
      result.points.back().goodput_per_sec / result.closed_loop_per_sec;
  PLS_ASSERT(result.verdicts_identical);
  return result;
}

void emit_overload(std::ostream& out, const OverloadResult& r,
                   unsigned threads, std::uint64_t seed) {
  obs::JsonWriter json(out);
  json.begin_object();
  json.kv("bench", "serve_multitenant_overload");
  json.kv("seed", seed);
  json.kv("threads", threads);
  json.kv("closed_loop_per_sec", r.closed_loop_per_sec);
  json.kv("ttl_ms", static_cast<double>(r.ttl_ns) / 1e6);
  json.kv("max_queued_cost", r.max_queued_cost);
  json.kv("requests_per_tenant", r.requests_per_tenant);
  json.key("points");
  json.begin_array();
  for (const OverloadPoint& p : r.points) {
    json.begin_object();
    json.kv("rate_x", p.rate_x);
    json.kv("offered_per_sec", p.offered_per_sec);
    json.kv("accepted", p.accepted);
    json.kv("shed", p.shed);
    json.kv("expired", p.expired);
    json.kv("cancelled_sweeps", p.cancelled_sweeps);
    json.kv("goodput_per_sec", p.goodput_per_sec);
    json.kv("accepted_p99_ms", p.accepted_p99_ms);
    json.kv("window_s", p.window_s);
    json.end_object();
  }
  json.end_array();
  json.kv("goodput_ratio_at_max", r.goodput_ratio_at_max);
  json.kv("verdicts_identical", r.verdicts_identical);
  json.end_object();
  PLS_ASSERT(json.finished());
}

/// A gate value at fixed precision, so a failing gate shows by how much it
/// missed its bound.
std::string fixed3(double x) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(3) << x;
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  bench::CliArgs args(argc, argv);
  const bool smoke = args.take_flag("smoke");
  const std::string out_path = args.take_value("out").value_or("");
  const std::uint64_t seed = args.take_seed(kDefaultSeed);
  const unsigned threads =
      args.take_unsigned("threads", util::ThreadPool::hardware_threads());
  const std::size_t deltas = args.take_size("deltas", smoke ? 96 : 256);
  const std::size_t atlas_mb = args.take_size("atlas-mb", 256);
  const double arrival_rate = args.take_double("arrival-rate", 0.0);
  const double require_p99_ratio =
      args.take_double("require-tenant-p99-ratio", 0.0);
  const std::string overload_out = args.take_value("overload-out").value_or("");
  const double require_goodput_ratio =
      args.take_double("require-goodput-ratio", 0.0);
  const std::size_t overload_requests =
      args.take_size("overload-requests", smoke ? 24 : 48);
  const double overload_ttl_x = args.take_double("overload-ttl-x", 25.0);
  if (!args.finish("bench_serve_multitenant [--smoke] [--out FILE] "
                   "[--seed S] [--threads T] [--deltas D] [--atlas-mb MB] "
                   "[--arrival-rate A] [--require-tenant-p99-ratio R] "
                   "[--overload-out FILE] [--require-goodput-ratio G] "
                   "[--overload-requests N] [--overload-ttl-x X]"))
    return 2;
  PLS_REQUIRE(deltas >= 1 && atlas_mb >= 1 && threads >= 1);

  // The three tenants.  Instance sizes are tuned so per-request service
  // times are within the same order of magnitude — fairness is about the
  // scheduler, not about one tenant's requests being intrinsically 100x
  // heavier: stp t=1 gets a large random instance (cheap per node), the
  // deep spreads get bounded-growth grids whose radius-t balls stay small.
  util::Rng rng(seed);
  const schemes::StpLanguage stp_language;
  const schemes::StpScheme stp(stp_language);
  const schemes::MstLanguage mst_language;
  const schemes::MstScheme mst(mst_language);

  auto g_flat = bench::standard_graph(smoke ? 1024 : 2048, rng.bits());
  util::Rng grid_rng(rng.bits());
  auto g_deep = bench::share(
      graph::relabel_random(graph::grid(32, 32), grid_rng));
  util::Rng mst_rng(rng.bits());
  auto g_mst = bench::share(graph::reweight_random(
      graph::relabel_random(graph::grid(32, 32), mst_rng), mst_rng));

  const local::Configuration cfg_flat = stp_language.sample_legal(g_flat, rng);
  const local::Configuration cfg_deep = stp_language.sample_legal(g_deep, rng);
  const local::Configuration cfg_mst = mst_language.sample_legal(g_mst, rng);

  const radius::FragmentSpreadScheme stp_t8(stp, 8);
  const radius::FragmentSpreadScheme mst_t4(mst, 4);

  std::vector<TenantPlan> plans(3);
  plans[0] = {"stp_t1", &stp, &cfg_flat, 1, 0, {}, {}, {}};
  plans[1] = {"stp_t8", &stp_t8, &cfg_deep, 8, 1, {}, {}, {}};
  plans[2] = {"mst_t4", &mst_t4, &cfg_mst, 4, 2, {}, {}, {}};
  for (TenantPlan& p : plans) {
    util::Rng stream_rng(rng.bits());
    plan_stream(p, deltas, stream_rng);
  }

  const std::vector<Arrival> order = interleave(plans);
  serve::ServerOptions base_options;
  base_options.threads = threads;

  const RunResult result =
      run_open_loop(plans, order, base_options, atlas_mb << 20, arrival_rate,
                    threads);

  std::cerr << "multitenant threads=" << threads
            << " offered_per_sec=" << result.offered_per_sec
            << " sustained_per_sec=" << result.sustained_per_sec
            << " p99_ratio=" << result.p99_ratio << "\n";
  for (const TenantResult& t : result.tenants)
    std::cerr << "  tenant " << t.name << " n=" << t.n << " t=" << t.t
              << " requests=" << t.requests << " p50_ms=" << t.p50_ms
              << " p99_ms=" << t.p99_ms << " mean_ms=" << t.mean_ms << "\n";

  if (out_path.empty()) {
    emit(std::cout, result, plans, atlas_mb << 20, threads, seed);
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cannot open " << out_path << "\n";
      return 1;
    }
    emit(out, result, plans, atlas_mb << 20, threads, seed);
    std::cout << "wrote " << out_path << "\n";
  }

  if (require_p99_ratio > 0.0) {
    // worst > R * best on the integer edges, not worst / best > R: the
    // product of R and an integer below 2^53 is exact, so a ratio that
    // lands on the bound passes instead of failing by the quotient's
    // rounding.
    if (static_cast<double>(result.worst_p99_edge_ns) >
        require_p99_ratio * static_cast<double>(result.best_p99_edge_ns)) {
      std::cerr << "FAIL: tenant p99 ratio " << fixed3(result.p99_ratio)
                << " > allowed " << fixed3(require_p99_ratio)
                << " (p99 bucket edges " << result.worst_p99_edge_ns
                << " ns > " << fixed3(require_p99_ratio) << " x "
                << result.best_p99_edge_ns << " ns)\n";
      return 1;
    }
    std::cerr << "tenant p99 ratio " << result.p99_ratio << " <= allowed "
              << require_p99_ratio << "\n";
  }

  if (!overload_out.empty() || require_goodput_ratio > 0.0) {
    PLS_REQUIRE(overload_requests >= kOverloadVariants &&
                overload_ttl_x > 0.0);
    const OverloadResult overload =
        run_overload(plans, base_options, overload_requests, overload_ttl_x,
                     threads, rng);
    const double ttl_ms = static_cast<double>(overload.ttl_ns) / 1e6;
    std::cerr << "overload closed_loop_per_sec=" << overload.closed_loop_per_sec
              << " ttl_ms=" << ttl_ms
              << " max_queued_cost=" << overload.max_queued_cost << "\n";
    for (const OverloadPoint& p : overload.points)
      std::cerr << "  rate_x=" << p.rate_x << " accepted=" << p.accepted
                << " shed=" << p.shed << " expired=" << p.expired
                << " cancelled_sweeps=" << p.cancelled_sweeps
                << " goodput_per_sec=" << p.goodput_per_sec
                << " accepted_p99_ms=" << p.accepted_p99_ms << "\n";
    if (overload_out.empty()) {
      emit_overload(std::cout, overload, threads, seed);
    } else {
      std::ofstream out(overload_out);
      if (!out) {
        std::cerr << "cannot open " << overload_out << "\n";
        return 1;
      }
      emit_overload(out, overload, threads, seed);
      std::cout << "wrote " << overload_out << "\n";
    }
    if (require_goodput_ratio > 0.0) {
      const OverloadPoint& at_max = overload.points.back();
      bool ok = true;
      if (overload.goodput_ratio_at_max < require_goodput_ratio) {
        std::cerr << "FAIL: goodput ratio at " << at_max.rate_x
                  << "x capacity is " << fixed3(overload.goodput_ratio_at_max)
                  << " < required " << fixed3(require_goodput_ratio) << "\n";
        ok = false;
      }
      if (at_max.accepted_p99_ms > 3.0 * ttl_ms) {
        std::cerr << "FAIL: accepted p99 " << fixed3(at_max.accepted_p99_ms)
                  << " ms at " << at_max.rate_x << "x capacity exceeds 3x ttl "
                  << fixed3(3.0 * ttl_ms) << " ms\n";
        ok = false;
      }
      if (!ok) return 1;
      std::cerr << "overload gates hold: goodput ratio "
                << overload.goodput_ratio_at_max << " >= "
                << require_goodput_ratio << ", accepted p99 "
                << at_max.accepted_p99_ms << " ms <= 3x ttl " << ttl_ms
                << " ms\n";
    }
  }
  return 0;
}

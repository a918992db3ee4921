// prooflab_bench: one serving workload against serve::Server, measured
// from outside through the public API only.
//
// run.py builds this binary and invokes it once per workload; README.md in
// this directory explains the workloads, the metric-to-layer map and how to
// read a traced run.  The binary writes one JSON result file: provenance, the
// end-to-end metrics (untraced runs), the request outcomes, and — in a traced
// run — the per-layer numbers it measures itself or reads from the metrics
// registry.  The span-derived numbers come from trace_summary.py over the
// exported chrome trace.
//
// Usage: prooflab_bench --workload W --seed S --seconds T --trace 0|1
//                       --threads N --delta-rate R --overload-rate R
//                       --result FILE [--trace-out FILE]
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "graph/generators.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "radius/batch.hpp"
#include "radius/fragment_spread.hpp"
#include "schemes/mst.hpp"
#include "schemes/spanning_tree.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "util/rng.hpp"

#ifndef PROOFLAB_BENCH_BUILD_TYPE
#define PROOFLAB_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace pls;
using Frame = serve::Server::Frame;

// ---------------------------------------------------------------------------
// Workload constants.  Changing any of them changes the benchmark.

/// Full-labeling variants per tenant: variant j carries 2j corrupted
/// certificates, so the verdict vectors the oracle compares are not all
/// accept.
constexpr std::size_t kVariants = 8;
/// Latency percentiles are medians over this many slices of a run.
constexpr std::size_t kLatencyWindows = 5;
/// Set-up repetitions per run; setup_s is their median.
constexpr std::size_t kSetupReps = 5;
/// cold_onboard: tenants registered per fresh server (and atlas).
constexpr std::size_t kColdRoundTenants = 4;
/// Traced phase sizes, fixed in requests so the trace volume does not grow
/// when the program gets faster.
constexpr std::size_t kTracedColdTenants = 20;
constexpr std::size_t kTracedWarmRequests = 300;
constexpr double kTracedOpenLoopSeconds = 1.5;
constexpr std::size_t kTraceRing = std::size_t{1} << 17;
constexpr std::size_t kTraceRingCold = std::size_t{1} << 15;
/// delta_openloop: touched certificates per delta, uniform in [1, 16], on
/// zipf(kZipfS)-popular nodes.  Popularity falls with node index, so every
/// seed has the same hot band of grid rows and varies only the stream.
constexpr std::size_t kMaxTouched = 16;
constexpr double kZipfS = 1.1;
/// delta_openloop: arrival shares of stp_t1 : stp_t8 : mst_t4.  stp_t8, whose
/// dirty sets span the most centers, takes two thirds, so the median request
/// is one of its deltas rather than a boundary between three tenants'
/// latency modes.
constexpr double kDeltaShare[] = {1.0, 4.0, 1.0};
/// delta_openloop: sweep threads.  Its deltas are sub-millisecond; on a
/// 4-thread stealing pool their latency measured host wake-up and steal
/// noise (run-to-run spreads of 0.5-0.8 in p90), so the sweep runs on the
/// dispatcher thread alone.
constexpr unsigned kDeltaThreads = 1;
/// Open loop: the generator sleeps until this long before an arrival is
/// due, then spins, so timer slack never delays a submission.
constexpr std::uint64_t kSpinNs = 2'000'000;
/// Atlas budget of every server: it holds all geometry (the three tenants
/// need ~21 MiB, a cold round ~130 MiB), so nothing evicts.  A budget below
/// the three tenants' geometry made delta_openloop's scan-resistant resident
/// set settle differently on every run (p50/p90 spreads of 0.45-0.5).
constexpr std::size_t kAtlasMiB = 1024;
/// overload: arrival shares of stp_t1 : stp_t8 : mst_t4, proportional to 1/n
/// so every tenant offers the same certificate volume.  DRR charges by
/// certificate count, so each tenant is then offered the same multiple of
/// its fair share and all three stay backlogged.  With an equal split the
/// mst tenant sat at its fair share, flipped between backlogged and not from
/// run to run, and the served-latency p50 was bimodal (20 or 55 ms).
constexpr double kOverloadShare[] = {2.0, 1.0, 4.0};
/// overload: the wire TTL of every frame and the per-tenant queue bound.
constexpr std::uint64_t kOverloadTtlNs = 100'000'000;
constexpr std::uint64_t kOverloadQueuedCost = 4096;

/// Latency limit per workload: slo_attainment counts sent requests served
/// within it.
double latency_limit_ms(const std::string& workload) {
  if (workload == "cold_onboard") return 1000.0;
  if (workload == "warm_full") return 50.0;
  if (workload == "delta_openloop") return 25.0;
  return static_cast<double>(kOverloadTtlNs) / 1e6;  // overload
}

// ---------------------------------------------------------------------------
// Options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 0;
  double delta_rate = 0.0;
  double overload_rate = 0.0;
  std::string result_path;
  std::string trace_path;
};

bool parse_options(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--threads") {
      o.threads = static_cast<unsigned>(std::strtoul(value.c_str(), &end, 10));
    } else if (flag == "--delta-rate") {
      o.delta_rate = std::strtod(value.c_str(), &end);
    } else if (flag == "--overload-rate") {
      o.overload_rate = std::strtod(value.c_str(), &end);
    } else if (flag == "--result") {
      o.result_path = value;
    } else if (flag == "--trace-out") {
      o.trace_path = value;
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::cerr << "bad value for " << flag << ": " << value << "\n";
      return false;
    }
  }
  const bool known = o.workload == "cold_onboard" || o.workload == "warm_full" ||
                     o.workload == "delta_openloop" || o.workload == "overload";
  return (argc % 2 == 1) && known && o.seconds > 0.0 && o.threads >= 1 &&
         o.delta_rate > 0.0 && o.overload_rate > 0.0 &&
         !o.result_path.empty() && (!o.trace || !o.trace_path.empty());
}

// ---------------------------------------------------------------------------
// Statistics with sample-size honesty

std::uint64_t now_ns() { return serve::Server::now_ns(); }

/// A quantile q is reported only when at least 10 samples lie beyond it.
bool supports(std::size_t n, double q) {
  return (1.0 - q) * static_cast<double>(n) >= 10.0 - 1e-9;
}

struct Samples {
  std::vector<double> values;

  void add(double v) { values.push_back(v); }
  std::size_t n() const { return values.size(); }
  double sum() const {
    double s = 0.0;
    for (const double v : values) s += v;
    return s;
  }
  /// Nearest-rank order statistic, or nullopt when the sample is too small.
  std::optional<double> quantile(double q) const {
    if (!supports(n(), q)) return std::nullopt;
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[std::max<std::size_t>(rank, 1) - 1];
  }
  std::optional<double> max() const {
    if (values.empty()) return std::nullopt;
    return *std::max_element(values.begin(), values.end());
  }
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

std::optional<double> hist_quantile(const obs::HistogramSnapshot& h, double q,
                                    double scale) {
  if (!supports(h.count, q)) return std::nullopt;
  return static_cast<double>(h.quantile(q)) * scale;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Instances

struct Catalog {
  schemes::StpLanguage stp_language;
  schemes::StpScheme stp{stp_language};
  schemes::MstLanguage mst_language;
  schemes::MstScheme mst{mst_language};
  radius::FragmentSpreadScheme stp_t8{stp, 8};
  radius::FragmentSpreadScheme mst_t4{mst, 4};
};

std::shared_ptr<const graph::Graph> share(graph::Graph g) {
  return std::make_shared<const graph::Graph>(std::move(g));
}

Frame frame_of(std::vector<std::uint8_t> bytes) {
  return std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
}

/// `base` with k certificates replaced by another node's or by random bits.
core::Labeling corrupt(const core::Labeling& base, std::size_t k,
                       util::Rng& rng) {
  core::Labeling out = base;
  const std::size_t n = out.size();
  for (std::size_t m = 0; m < k; ++m) {
    const auto v = static_cast<graph::NodeIndex>(rng.below(n));
    if (rng.below(2) == 0) {
      out.certs[v] = base.certs[rng.below(n)];
    } else {
      out.certs[v] = local::random_state(1 + rng.below(64), rng);
    }
  }
  return out;
}

/// One labeling delta: the touched nodes and their new certificates.
struct Delta {
  std::vector<graph::NodeIndex> touched;
  std::vector<local::Certificate> certs;
  Frame frame;
};

/// One tenant's pinned instance and its pre-encoded traffic.
struct TenantPlan {
  std::string name;
  const core::Scheme* scheme = nullptr;
  unsigned t = 0;
  std::optional<local::Configuration> cfg;
  std::uint32_t id = 0;
  core::Labeling base;                    ///< the honest marking
  std::vector<core::Labeling> variants;   ///< full labelings, [0] = base
  std::vector<Frame> frames;              ///< per variant, as the workload sends
  Frame seed_frame;                       ///< variant 0 without a TTL
  std::vector<Delta> deltas;
};

void encode_variants(TenantPlan& p, util::Rng& rng, std::uint64_t ttl_ns) {
  for (std::size_t j = 0; j < kVariants; ++j)
    p.variants.push_back(j == 0 ? p.base : corrupt(p.base, 2 * j, rng));
  const std::uint64_t epoch = p.cfg->graph().epoch();
  for (const core::Labeling& l : p.variants)
    p.frames.push_back(frame_of(serve::encode_full(p.id, epoch, p.t, l, ttl_ns)));
  p.seed_frame = frame_of(serve::encode_full(p.id, epoch, p.t, p.base));
}

/// Zipf(s) over the n nodes by inverse CDF: node r has rank r + 1.
class ZipfNodes {
 public:
  ZipfNodes(std::size_t n, double s) {
    cdf_.reserve(n);
    double total = 0.0;
    for (std::size_t r = 1; r <= n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  graph::NodeIndex draw(util::Rng& rng) const {
    const double u = rng.uniform01();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const auto r = static_cast<std::size_t>(
        std::min<std::ptrdiff_t>(it - cdf_.begin(),
                                 static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
    return static_cast<graph::NodeIndex>(r);
  }

 private:
  std::vector<double> cdf_;
};

/// `count` deltas of 1..kMaxTouched zipf-popular certificates each.  A
/// touched node reverts to its honest certificate, copies another node's
/// current one, or takes random bits (1/2, 1/4, 1/4).
void encode_deltas(TenantPlan& p, std::size_t count, util::Rng& rng) {
  const std::size_t n = p.cfg->n();
  const ZipfNodes zipf(n, kZipfS);
  core::Labeling current = p.base;
  const std::uint64_t epoch = p.cfg->graph().epoch();
  p.deltas.reserve(count);
  for (std::size_t d = 0; d < count; ++d) {
    Delta delta;
    const std::size_t k = 1 + rng.below(kMaxTouched);
    for (std::size_t tries = 0; delta.touched.size() < k && tries < 16 * k;
         ++tries) {
      const graph::NodeIndex v = zipf.draw(rng);
      if (std::find(delta.touched.begin(), delta.touched.end(), v) ==
          delta.touched.end())
        delta.touched.push_back(v);
    }
    std::sort(delta.touched.begin(), delta.touched.end());
    for (const graph::NodeIndex v : delta.touched) {
      const std::uint64_t pick = rng.below(4);
      if (pick < 2) {
        current.certs[v] = p.base.certs[v];
      } else if (pick == 2) {
        current.certs[v] = current.certs[rng.below(n)];
      } else {
        current.certs[v] = local::random_state(1 + rng.below(64), rng);
      }
      delta.certs.push_back(current.certs[v]);
    }
    delta.frame = frame_of(serve::encode_delta(
        p.id, epoch, p.t, static_cast<std::uint32_t>(n), delta.touched,
        current));
    p.deltas.push_back(std::move(delta));
  }
}

// ---------------------------------------------------------------------------
// Request ledger

struct Request {
  std::size_t tenant = 0;  ///< index into the world's tenants
  bool delta = false;
  std::size_t index = 0;   ///< variant or delta index
  std::size_t round = 0;   ///< cold_onboard: the round (server) it went to
  std::uint64_t seq = 0;
  bool answered = false;
  serve::RejectKind outcome = serve::RejectKind::kNone;
  std::uint64_t latency_ns = 0;
  std::uint64_t service_ns = 0;  ///< duration of the serve_next call
  std::vector<bool> verdict;     ///< served requests only
};

/// Everything one timed phase measured.
struct Phase {
  std::vector<Request> requests;
  Samples submit_us;
  Samples service_ms;      ///< served requests
  Samples queue_wait_ms;   ///< served requests: latency - service
  Samples lag_ms;          ///< open loop: actual minus scheduled submit
  Samples wire_parse_us;   ///< traced phase: RequestView::parse per frame
  double wire_bytes = 0.0;
  double window_s = 0.0;   ///< timed wall time
  std::unordered_map<std::uint64_t, std::size_t> pending;  ///< seq -> request
};

/// Submits one frame for `req` (timed; wrapped in bench spans when tracing).
void submit(serve::Server& server, std::uint64_t& next_seq, Phase& phase,
            Request req, const Frame& frame, std::uint64_t arrival_ns,
            bool traced) {
  req.seq = next_seq++;
  if (traced) {
    // The wire layer timed on this request's own frame, as the server will
    // parse it inside submit().
    const std::uint64_t p0 = obs::TraceRecorder::now_ns();
    const std::uint64_t w0 = now_ns();
    const auto view = serve::RequestView::parse(
        std::span<const std::uint8_t>(frame->data(), frame->size()));
    const std::uint64_t w1 = now_ns();
    obs::TraceRecorder::record("bench.wire_parse", p0,
                               obs::TraceRecorder::now_ns(), req.seq);
    if (view.has_value()) {
      phase.wire_parse_us.add(static_cast<double>(w1 - w0) / 1e3);
      phase.wire_bytes += static_cast<double>(frame->size());
    }
  }
  const std::uint64_t t0 = now_ns();
  {
    PLS_TRACE_SPAN("bench.submit", req.seq);
    server.submit(frame, arrival_ns);
  }
  phase.submit_us.add(static_cast<double>(now_ns() - t0) / 1e3);
  phase.pending.emplace(req.seq, phase.requests.size());
  phase.requests.push_back(std::move(req));
}

/// One serve_next call, its response booked against the request it answers.
/// Returns false when nothing was queued.
bool serve_one(serve::Server& server, Phase& phase) {
  const std::uint64_t trace0 = obs::TraceRecorder::now_ns();
  const std::uint64_t t0 = now_ns();
  std::optional<serve::Server::Response> resp = server.serve_next();
  const std::uint64_t service = now_ns() - t0;
  if (!resp.has_value()) return false;
  if (obs::TraceRecorder::enabled())
    obs::TraceRecorder::record("bench.serve_next", trace0,
                               obs::TraceRecorder::now_ns(), resp->seq);
  const auto it = phase.pending.find(resp->seq);
  if (it == phase.pending.end()) {
    std::cerr << "response for unknown seq " << resp->seq << "\n";
    std::exit(3);
  }
  Request& req = phase.requests[it->second];
  phase.pending.erase(it);
  req.answered = true;
  req.outcome = resp->wire_ok ? serve::RejectKind::kNone : resp->rejection.kind;
  req.latency_ns = resp->latency_ns;
  req.service_ns = service;
  if (resp->wire_ok) {
    req.verdict = resp->verdict.accept();
    phase.service_ms.add(static_cast<double>(service) / 1e6);
    const std::uint64_t wait =
        resp->latency_ns > service ? resp->latency_ns - service : 0;
    phase.queue_wait_ms.add(static_cast<double>(wait) / 1e6);
  }
  return true;
}

// ---------------------------------------------------------------------------
// The three-tenant world (warm_full, delta_openloop, overload)

struct World {
  std::deque<TenantPlan> tenants;
  std::shared_ptr<radius::GeometryAtlas> atlas;
  std::unique_ptr<serve::Server> server;
  std::uint64_t next_seq = 0;
  Phase warmup;  ///< the set-up's seeding/warming fulls, oracle-checked too
};

std::unique_ptr<World> make_world(const Catalog& catalog, const Options& o,
                                  obs::MetricsRegistry* registry,
                                  std::size_t deltas, util::Rng& rng) {
  auto world = std::make_unique<World>();
  const bool overload = o.workload == "overload";
  const bool delta = o.workload == "delta_openloop";

  util::Rng g1(rng.bits()), g2(rng.bits()), g3(rng.bits());
  auto flat = share(graph::random_connected(2048, 1024, g1));
  auto deep = share(graph::relabel_random(graph::grid(64, 64), g2));
  auto mst = share(graph::reweight_random(
      graph::relabel_random(graph::grid(32, 32), g3), g3));

  const auto add = [&](std::string name, const core::Scheme& scheme, unsigned t,
                       local::Configuration cfg) {
    TenantPlan& p = world->tenants.emplace_back();
    p.name = std::move(name);
    p.scheme = &scheme;
    p.t = t;
    p.cfg.emplace(std::move(cfg));
    p.id = static_cast<std::uint32_t>(world->tenants.size() - 1);
    p.base = scheme.mark(*p.cfg);
  };
  add("stp_t1", catalog.stp, 1, catalog.stp_language.sample_legal(flat, rng));
  add("stp_t8", catalog.stp_t8, 8, catalog.stp_language.sample_legal(deep, rng));
  add("mst_t4", catalog.mst_t4, 4, catalog.mst_language.sample_legal(mst, rng));
  double total_share = 0.0;
  for (const double share : kDeltaShare) total_share += share;
  for (TenantPlan& p : world->tenants) {
    util::Rng traffic(rng.bits());
    encode_variants(p, traffic, overload ? kOverloadTtlNs : 0);
    if (delta)
      encode_deltas(p,
                    static_cast<std::size_t>(static_cast<double>(deltas) *
                                             kDeltaShare[p.id] / total_share) +
                        16,
                    traffic);
  }

  radius::AtlasOptions atlas_options;
  atlas_options.byte_budget = kAtlasMiB << 20;
  world->atlas = std::make_shared<radius::GeometryAtlas>(atlas_options);
  serve::ServerOptions server_options;
  server_options.threads = o.threads;
  server_options.atlas = world->atlas;
  server_options.metrics = registry;
  if (overload) server_options.max_queued_cost = kOverloadQueuedCost;
  world->server = std::make_unique<serve::Server>(server_options);
  for (const TenantPlan& p : world->tenants)
    if (world->server->add_tenant(p.name, *p.scheme, *p.cfg, p.t) != p.id)
      std::exit(3);

  // Warm-up: one deadline-free honest full per tenant builds its geometry
  // (and is the delta base of delta_openloop's streams).
  for (std::size_t i = 0; i < world->tenants.size(); ++i) {
    Request req;
    req.tenant = i;
    submit(*world->server, world->next_seq, world->warmup, req,
           world->tenants[i].seed_frame, now_ns(), false);
    serve_one(*world->server, world->warmup);
  }
  return world;
}

/// Closed loop, one client: tenants in rotation, variants in rotation.
void run_warm(World& w, Phase& phase, std::size_t max_requests,
              double seconds, bool traced) {
  const std::uint64_t start = now_ns();
  const auto limit = static_cast<std::uint64_t>(seconds * 1e9);
  for (std::size_t i = 0; i < max_requests && now_ns() - start < limit; ++i) {
    Request req;
    req.tenant = i % w.tenants.size();
    req.index = (i / w.tenants.size()) % kVariants;
    submit(*w.server, w.next_seq, phase, req,
           w.tenants[req.tenant].frames[req.index], now_ns(), traced);
    serve_one(*w.server, phase);
  }
  phase.window_s += static_cast<double>(now_ns() - start) / 1e9;
}

/// Open loop at a fixed rate: arrival i is due at start + i / rate and goes to
/// a tenant by smooth weighted round-robin over `shares`.  The single
/// dispatcher submits every due arrival before serving the next request,
/// passes the SCHEDULED time as the arrival, and serves between arrivals;
/// latency therefore counts any stall.  `sent[t]` counts tenant t's requests
/// across phases: its next delta, or its next full variant in rotation.
void run_open_loop(World& w, Phase& phase, double rate, double seconds,
                   std::span<const double> shares, bool deltas,
                   std::vector<std::size_t>& sent, bool traced) {
  const auto count = static_cast<std::size_t>(rate * seconds);
  const double gap_ns = 1e9 / rate;
  const std::uint64_t start = now_ns() + 1'000'000;
  const auto due = [&](std::size_t i) {
    return start + static_cast<std::uint64_t>(gap_ns * static_cast<double>(i));
  };
  std::vector<double> credit(shares.size(), 0.0);
  double total_share = 0.0;
  for (const double share : shares) total_share += share;
  std::size_t i = 0;
  while (true) {
    const std::uint64_t now = now_ns();
    if (i < count && now >= due(i)) {
      Request req;
      for (std::size_t t = 0; t < credit.size(); ++t) {
        credit[t] += shares[t];
        if (credit[t] > credit[req.tenant]) req.tenant = t;
      }
      credit[req.tenant] -= total_share;
      TenantPlan& p = w.tenants[req.tenant];
      const std::size_t n = sent[req.tenant]++;
      Frame frame;
      if (deltas) {
        if (n >= p.deltas.size()) {
          std::cerr << "delta stream exhausted\n";
          std::exit(3);
        }
        req.delta = true;
        req.index = n;
        frame = p.deltas[n].frame;
      } else {
        req.index = n % kVariants;
        frame = p.frames[req.index];
      }
      phase.lag_ms.add(static_cast<double>(now - due(i)) / 1e6);
      submit(*w.server, w.next_seq, phase, req, frame, due(i), traced);
      ++i;
      continue;
    }
    if (w.server->queued() > 0) {
      serve_one(*w.server, phase);
      continue;
    }
    if (i >= count) break;
    // Idle: sleep to just before the next arrival, then spin the rest.
    const std::uint64_t next = due(i);
    if (next > now + kSpinNs)
      std::this_thread::sleep_for(std::chrono::nanoseconds(next - now - kSpinNs));
  }
  phase.window_s += static_cast<double>(now_ns() - start) / 1e9;
}

// ---------------------------------------------------------------------------
// cold_onboard: rounds of fresh tenants on fresh graphs

struct ColdRound {
  std::deque<TenantPlan> tenants;
  std::shared_ptr<radius::GeometryAtlas> atlas;
  std::unique_ptr<serve::Server> server;
  std::uint64_t next_seq = 0;
};

std::unique_ptr<ColdRound> make_cold_round(const Catalog& catalog,
                                           const Options& o,
                                           obs::MetricsRegistry* registry,
                                           std::size_t first_tenant,
                                           util::Rng& rng) {
  auto round = std::make_unique<ColdRound>();
  radius::AtlasOptions atlas_options;
  atlas_options.byte_budget = kAtlasMiB << 20;
  round->atlas = std::make_shared<radius::GeometryAtlas>(atlas_options);
  serve::ServerOptions server_options;
  server_options.threads = o.threads;
  server_options.atlas = round->atlas;
  server_options.metrics = registry;
  round->server = std::make_unique<serve::Server>(server_options);
  for (std::size_t i = 0; i < kColdRoundTenants; ++i) {
    util::Rng g(rng.bits());
    auto graph = share(graph::random_connected(1024, 512, g));
    TenantPlan& p = round->tenants.emplace_back();
    p.name = "cold_" + std::to_string(first_tenant + i);
    p.scheme = &catalog.stp_t8;
    p.t = 8;
    p.cfg.emplace(catalog.stp_language.sample_legal(graph, rng));
    p.id = round->server->add_tenant(p.name, *p.scheme, *p.cfg, p.t);
    p.base = p.scheme->mark(*p.cfg);
    p.variants.push_back(corrupt(p.base, 2 * (i % 3), rng));
    p.frames.push_back(frame_of(serve::encode_full(
        p.id, p.cfg->graph().epoch(), p.t, p.variants[0])));
  }
  return round;
}

/// Oracle for a cold round: the in-memory BatchVerifier on the round's own
/// (now warm) atlas.
std::size_t check_cold_round(const ColdRound& round, const Phase& phase,
                             std::size_t round_index, unsigned threads) {
  std::size_t mismatches = 0;
  for (const Request& req : phase.requests) {
    if (req.round != round_index || !req.answered ||
        req.outcome != serve::RejectKind::kNone)
      continue;
    const TenantPlan& p = round.tenants[req.tenant];
    radius::BatchOptions check;
    check.threads = threads;
    check.atlas = round.atlas;
    radius::BatchVerifier oracle(*p.scheme, *p.cfg, p.t, check);
    if (oracle.run_one(p.variants[req.index]).accept() != req.verdict)
      ++mismatches;
  }
  return mismatches;
}

struct ColdResult {
  std::vector<double> setup_s;
  std::size_t mismatches = 0;
  radius::AtlasStats atlas;  ///< summed over the phase's rounds
};

/// Runs rounds until `seconds` of timed serving or `max_tenants` tenants.
void run_cold(const Catalog& catalog, const Options& o,
              obs::MetricsRegistry* registry, Phase& phase, double seconds,
              std::size_t max_tenants, bool traced, util::Rng& rng,
              ColdResult& result, std::size_t& round_counter) {
  std::size_t tenants = 0;
  std::vector<std::pair<std::size_t, std::unique_ptr<ColdRound>>> deferred;
  while (phase.window_s < seconds && tenants < max_tenants) {
    const std::uint64_t s0 = now_ns();
    std::unique_ptr<ColdRound> round =
        make_cold_round(catalog, o, registry, round_counter * kColdRoundTenants,
                        rng);
    result.setup_s.push_back(static_cast<double>(now_ns() - s0) / 1e9);
    const std::uint64_t start = now_ns();
    for (std::size_t i = 0; i < round->tenants.size(); ++i) {
      Request req;
      req.tenant = i;
      req.round = round_counter;
      submit(*round->server, round->next_seq, phase, req,
             round->tenants[i].frames[0], now_ns(), traced);
      serve_one(*round->server, phase);
    }
    phase.window_s += static_cast<double>(now_ns() - start) / 1e9;
    tenants += round->tenants.size();
    const radius::AtlasStats stats = round->atlas->stats();
    result.atlas.hits += stats.hits;
    result.atlas.misses += stats.misses;
    result.atlas.evictions += stats.evictions;
    result.atlas.bypassed += stats.bypassed;
    result.atlas.sketch_rejects += stats.sketch_rejects;
    result.atlas.peak_bytes = std::max(result.atlas.peak_bytes, stats.peak_bytes);
    // A traced phase checks its rounds after tracing stops, so the oracle's
    // own verification never lands in the trace.
    if (traced) {
      deferred.emplace_back(round_counter, std::move(round));
    } else {
      result.mismatches +=
          check_cold_round(*round, phase, round_counter, o.threads);
      round.reset();
      // Hand the round's freed geometry back to the OS, so peak_rss_mb is the
      // largest round's footprint, not a function of how many rounds a fast
      // run fits in (it read 220-288 MiB across runs without this).
      malloc_trim(0);
    }
    ++round_counter;
  }
  if (traced) obs::TraceRecorder::disable();
  for (const auto& [index, round] : deferred)
    result.mismatches += check_cold_round(*round, phase, index, o.threads);
}

// ---------------------------------------------------------------------------
// Oracle for the three-tenant world

/// Replays every tenant's served traffic through a fresh in-memory
/// BatchVerifier (own atlas) and counts verdict mismatches.  Full requests
/// compare against the variant's verdict; deltas replay in submission order
/// through run_delta after the warm-up's base.
std::size_t check_world(const World& w, const std::vector<const Phase*>& phases,
                        unsigned threads, std::uint64_t* link_reseeds) {
  std::size_t mismatches = 0;
  for (std::size_t t = 0; t < w.tenants.size(); ++t) {
    const TenantPlan& p = w.tenants[t];
    radius::BatchOptions check;
    check.threads = threads;
    radius::BatchVerifier oracle(*p.scheme, *p.cfg, p.t, check);
    std::vector<std::optional<std::vector<bool>>> expect(kVariants);
    const auto variant_verdict = [&](std::size_t j) -> const std::vector<bool>& {
      if (!expect[j].has_value()) expect[j] = oracle.run_one(p.variants[j]).accept();
      return *expect[j];
    };
    for (const Request& req : w.warmup.requests)
      if (req.tenant == t && req.verdict != variant_verdict(0)) ++mismatches;

    // Deltas: collect this tenant's in submission (seq) order.
    std::vector<const Request*> deltas;
    for (const Phase* phase : phases)
      for (const Request& req : phase->requests) {
        if (req.tenant != t) continue;
        if (req.delta) {
          deltas.push_back(&req);
        } else if (req.answered && req.outcome == serve::RejectKind::kNone &&
                   req.verdict != variant_verdict(req.index)) {
          ++mismatches;
        }
      }
    if (deltas.empty()) continue;
    std::sort(deltas.begin(), deltas.end(),
              [](const Request* a, const Request* b) { return a->seq < b->seq; });
    core::Labeling current = p.base;
    oracle.run_one(current);
    for (const Request* req : deltas) {
      const Delta& d = p.deltas[req->index];
      for (std::size_t k = 0; k < d.touched.size(); ++k)
        current.certs[d.touched[k]] = d.certs[k];
      radius::LabelingDelta delta;
      delta.touched = d.touched;
      const core::Verdict v = oracle.run_delta(current, delta);
      if (req->outcome == serve::RejectKind::kNone && req->answered &&
          v.accept() != req->verdict)
        ++mismatches;
    }
    *link_reseeds += oracle.delta_stats().link_reseeds;
  }
  return mismatches;
}

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  std::optional<double> value;  ///< nullopt = not applicable / not supported
  std::string unit;
  std::size_t n = 0;            ///< sample count behind the value
};

void write_metrics(obs::JsonWriter& json, const std::vector<Metric>& metrics) {
  json.begin_object();
  for (const Metric& m : metrics) {
    json.key(m.name);
    json.begin_object();
    json.key("value");
    if (m.value.has_value()) {
      json.value(*m.value);
    } else {
      json.value("n/a");
    }
    json.kv("unit", m.unit);
    json.kv("n", m.n);
    json.end_object();
  }
  json.end_object();
}

bool expected_outcome(const std::string& workload, serve::RejectKind kind) {
  if (kind == serve::RejectKind::kNone) return true;
  return workload == "overload" && (kind == serve::RejectKind::kOverloaded ||
                                    kind == serve::RejectKind::kExpired);
}

struct Outcomes {
  std::size_t attempted = 0, served = 0, shed = 0, expired = 0, cancelled = 0,
              faulted = 0, malformed = 0, unanswered = 0, unexpected = 0,
              within_limit = 0;
};

Outcomes count_outcomes(const std::string& workload,
                        const std::vector<const Phase*>& phases,
                        double limit_ms) {
  Outcomes o;
  for (const Phase* phase : phases)
    for (const Request& r : phase->requests) {
      ++o.attempted;
      if (!r.answered) {
        ++o.unanswered;
        ++o.unexpected;
        continue;
      }
      switch (r.outcome) {
        case serve::RejectKind::kNone:
          ++o.served;
          if (static_cast<double>(r.latency_ns) / 1e6 <= limit_ms)
            ++o.within_limit;
          break;
        case serve::RejectKind::kOverloaded: ++o.shed; break;
        case serve::RejectKind::kExpired: ++o.expired; break;
        case serve::RejectKind::kCancelled: ++o.cancelled; break;
        case serve::RejectKind::kFaulted: ++o.faulted; break;
        case serve::RejectKind::kMalformed: ++o.malformed; break;
      }
      if (!expected_outcome(workload, r.outcome)) ++o.unexpected;
    }
  return o;
}

/// Latency quantile q (ms) of the served requests, as the median over up to
/// kLatencyWindows equal slices of the run in submission order.  Every slice's
/// quantile is honest on its own (slices shrink in number until they are), so
/// one burst of host noise moves one slice rather than the reported figure.
std::optional<double> windowed_latency(const std::vector<Request>& requests,
                                       double q) {
  std::size_t served = 0;
  for (const Request& r : requests)
    if (r.answered && r.outcome == serve::RejectKind::kNone) ++served;
  std::size_t windows = kLatencyWindows;
  while (windows > 1 && !supports(served / windows, q)) --windows;
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    Samples latency;
    for (std::size_t i = w * requests.size() / windows;
         i < (w + 1) * requests.size() / windows; ++i)
      if (requests[i].answered && requests[i].outcome == serve::RejectKind::kNone)
        latency.add(static_cast<double>(requests[i].latency_ns) / 1e6);
    if (const std::optional<double> v = latency.quantile(q)) per_window.push_back(*v);
  }
  if (per_window.empty()) return std::nullopt;
  return median(per_window);
}

/// The end-to-end metrics of one (untraced) phase.
std::vector<Metric> e2e_metrics(const std::string& workload, const Phase& phase,
                                const std::vector<double>& setup_s,
                                double rss_mib) {
  const double limit = latency_limit_ms(workload);
  const Outcomes out = count_outcomes(workload, {&phase}, limit);
  Samples latency;
  for (const Request& r : phase.requests)
    if (r.answered && r.outcome == serve::RejectKind::kNone)
      latency.add(static_cast<double>(r.latency_ns) / 1e6);
  const bool open = workload == "delta_openloop" || workload == "overload";
  const auto attempted = static_cast<double>(out.attempted);
  std::vector<Metric> m;
  m.push_back({"setup_s", median(setup_s), "s", setup_s.size()});
  m.push_back({"requests_per_s", static_cast<double>(out.served) / phase.window_s,
               "1/s", out.served});
  m.push_back({"latency_p50_ms", windowed_latency(phase.requests, 0.50), "ms",
               latency.n()});
  m.push_back({"latency_p90_ms", windowed_latency(phase.requests, 0.90), "ms",
               latency.n()});
  m.push_back({"latency_p99_ms", latency.quantile(0.99), "ms", latency.n()});
  m.push_back({"slo_attainment", static_cast<double>(out.within_limit) / attempted,
               "fraction", out.attempted});
  m.push_back({"error_rate",
               static_cast<double>(out.attempted - out.served) / attempted,
               "fraction", out.attempted});
  m.push_back({"peak_rss_mb", rss_mib, "MiB", 1});
  if (open) {
    m.push_back({"gen_lag_p50_ms", phase.lag_ms.quantile(0.5), "ms",
                 phase.lag_ms.n()});
    m.push_back({"gen_lag_p99_ms", phase.lag_ms.quantile(0.99), "ms",
                 phase.lag_ms.n()});
    m.push_back({"gen_lag_max_ms", phase.lag_ms.max(), "ms", phase.lag_ms.n()});
  }
  return m;
}

/// Per-layer metrics measured by the bench or read from the registry over
/// the untraced phase A (`reg` = its snapshot diff), plus the wire timings
/// and tracing overhead of the traced phase B.
std::vector<Metric> layer_metrics(const Phase& a, const Phase& b,
                                  const obs::MetricsSnapshot& reg,
                                  const radius::AtlasStats& atlas,
                                  unsigned threads,
                                  std::uint64_t link_reseeds) {
  std::vector<Metric> m;
  const auto hist = [&](const char* name) -> obs::HistogramSnapshot {
    const auto it = reg.histograms.find(name);
    return it == reg.histograms.end() ? obs::HistogramSnapshot{} : it->second;
  };
  const auto counter = [&](const char* name) -> double {
    const auto it = reg.counters.find(name);
    return it == reg.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto q = [](const Samples& s, double p) { return s.quantile(p); };

  const double wire_s = b.wire_parse_us.sum() / 1e6;
  m.push_back({"wire.parse_us.p50", q(b.wire_parse_us, 0.5), "us",
               b.wire_parse_us.n()});
  m.push_back({"wire.parse_mb_per_s",
               wire_s > 0.0 ? std::optional<double>(b.wire_bytes / 1e6 / wire_s)
                            : std::nullopt,
               "MB/s", b.wire_parse_us.n()});

  m.push_back({"serve.submit_us.p50", q(a.submit_us, 0.5), "us", a.submit_us.n()});
  m.push_back({"serve.service_ms.p50", q(a.service_ms, 0.5), "ms", a.service_ms.n()});
  m.push_back({"serve.service_ms.p99", q(a.service_ms, 0.99), "ms", a.service_ms.n()});
  m.push_back({"serve.queue_wait_ms.p50", q(a.queue_wait_ms, 0.5), "ms",
               a.queue_wait_ms.n()});
  m.push_back({"serve.queue_wait_ms.p99", q(a.queue_wait_ms, 0.99), "ms",
               a.queue_wait_ms.n()});
  for (const char* c : {"serve.shed", "serve.expired", "serve.cancelled_sweeps",
                        "serve.faults"})
    m.push_back({c, counter(c), "count", 1});

  const obs::HistogramSnapshot parse = hist("verify.parse_link_ns");
  const obs::HistogramSnapshot window = hist("verify.sweep_window_ns");
  const obs::HistogramSnapshot e2e = hist("verify.e2e_ns");
  m.push_back({"verify.parse_link_ms.p50", hist_quantile(parse, 0.5, 1e-6), "ms",
               parse.count});
  m.push_back({"verify.sweep_window_ms.p50", hist_quantile(window, 0.5, 1e-6),
               "ms", window.count});
  m.push_back({"verify.e2e_ms.p50", hist_quantile(e2e, 0.5, 1e-6), "ms", e2e.count});

  const obs::HistogramSnapshot d_e2e = hist("delta.e2e_ns");
  const obs::HistogramSnapshot d_parse = hist("delta.reparse_link_ns");
  const obs::HistogramSnapshot d_collect = hist("delta.collect_ns");
  const obs::HistogramSnapshot d_sweep = hist("delta.resweep_ns");
  m.push_back({"delta.e2e_us.p50", hist_quantile(d_e2e, 0.5, 1e-3), "us", d_e2e.count});
  m.push_back({"delta.e2e_us.p99", hist_quantile(d_e2e, 0.99, 1e-3), "us", d_e2e.count});
  m.push_back({"delta.reparse_link_us.p50", hist_quantile(d_parse, 0.5, 1e-3), "us",
               d_parse.count});
  m.push_back({"delta.collect_us.p50", hist_quantile(d_collect, 0.5, 1e-3), "us",
               d_collect.count});
  m.push_back({"delta.resweep_us.p50", hist_quantile(d_sweep, 0.5, 1e-3), "us",
               d_sweep.count});
  m.push_back({"delta.link_reseeds", static_cast<double>(link_reseeds), "count", 1});

  const std::uint64_t attempts = atlas.hits + atlas.misses;
  m.push_back({"atlas.hit_rate",
               attempts > 0 ? std::optional<double>(static_cast<double>(atlas.hits) /
                                                    static_cast<double>(attempts))
                            : std::nullopt,
               "fraction", attempts});
  m.push_back({"atlas.builds", static_cast<double>(atlas.misses), "count", 1});
  m.push_back({"atlas.evictions", static_cast<double>(atlas.evictions), "count", 1});
  m.push_back({"atlas.bypassed", static_cast<double>(atlas.bypassed), "count", 1});
  m.push_back({"atlas.sketch_rejects", static_cast<double>(atlas.sketch_rejects),
               "count", 1});
  m.push_back({"atlas.peak_mb", static_cast<double>(atlas.peak_bytes) / (1 << 20),
               "MiB", 1});

  const obs::HistogramSnapshot busy = hist("verify.worker_busy_ns");
  const double sweep_ns =
      static_cast<double>(window.sum) + static_cast<double>(d_sweep.sum);
  m.push_back({"pool.chunks", counter("verify.sweep_chunks"), "count", 1});
  m.push_back({"pool.steals", counter("verify.sweep_steals"), "count", 1});
  m.push_back({"pool.busy_frac",
               sweep_ns > 0.0 ? std::optional<double>(static_cast<double>(busy.sum) /
                                                      (threads * sweep_ns))
                              : std::nullopt,
               "fraction", busy.count});

  const std::optional<double> svc_a = q(a.service_ms, 0.5);
  const std::optional<double> svc_b = q(b.service_ms, 0.5);
  m.push_back({"trace.overhead_frac",
               svc_a && svc_b ? std::optional<double>(*svc_b / *svc_a - 1.0)
                              : std::nullopt,
               "fraction", b.service_ms.n()});
  m.push_back({"gen.lag_p99_ms", q(a.lag_ms, 0.99), "ms", a.lag_ms.n()});
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse_options(argc, argv, o)) {
    std::cerr << "usage: prooflab_bench --workload cold_onboard|warm_full|"
                 "delta_openloop|overload --seed S --seconds T --trace 0|1 "
                 "--threads N --delta-rate R --overload-rate R --result FILE "
                 "[--trace-out FILE]\n";
    return 2;
  }
  if (o.workload == "delta_openloop") o.threads = kDeltaThreads;
  const Catalog catalog;
  util::Rng rng(o.seed * 0x9E3779B97F4A7C15ull + 0x5EED);
  const bool cold = o.workload == "cold_onboard";
  const bool open = o.workload == "delta_openloop" || o.workload == "overload";
  const double rate = o.workload == "delta_openloop" ? o.delta_rate
                      : o.workload == "overload"     ? o.overload_rate
                                                     : 0.0;
  // Untraced runs time one phase A of o.seconds.  A traced run adds the
  // metrics registry to phase A (the per-layer histograms and the tracing
  // overhead baseline), then times a traced phase B of fixed size.
  const double seconds_a = o.seconds;
  std::unique_ptr<obs::MetricsRegistry> registry;
  if (o.trace) registry = std::make_unique<obs::MetricsRegistry>();

  Phase a, b;
  std::vector<double> setup_s;
  std::size_t mismatches = 0;
  std::uint64_t link_reseeds = 0;
  radius::AtlasStats atlas_a;
  obs::MetricsSnapshot reg_a;
  double rss = 0.0;
  std::vector<const Phase*> phases = {&a};
  std::vector<std::string> tenant_names;
  if (o.trace) phases.push_back(&b);

  if (cold) {
    ColdResult result_a, result_b;
    std::size_t rounds = 0;
    const obs::MetricsSnapshot before =
        registry ? registry->snapshot() : obs::MetricsSnapshot{};
    run_cold(catalog, o, registry.get(), a, seconds_a, SIZE_MAX, false, rng,
             result_a, rounds);
    if (registry) reg_a = registry->snapshot().since(before);
    rss = peak_rss_mib();
    if (o.trace) {
      obs::TraceRecorder::enable(kTraceRingCold);
      run_cold(catalog, o, registry.get(), b, 1e9, kTracedColdTenants, true, rng,
               result_b, rounds);
      obs::TraceRecorder::disable();
    }
    setup_s = result_a.setup_s;
    mismatches = result_a.mismatches + result_b.mismatches;
    atlas_a = result_a.atlas;
  } else {
    // Deltas over all tenants: enough for every phase at the fixed rate.
    const double open_seconds = seconds_a + (o.trace ? kTracedOpenLoopSeconds : 0);
    const std::size_t delta_count =
        o.workload == "delta_openloop"
            ? static_cast<std::size_t>(rate * open_seconds)
            : 0;
    std::unique_ptr<World> world;
    for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
      world.reset();
      const std::uint64_t s0 = now_ns();
      world = make_world(catalog, o, registry.get(), delta_count, rng);
      setup_s.push_back(static_cast<double>(now_ns() - s0) / 1e9);
    }
    const bool deltas = o.workload == "delta_openloop";
    const std::span<const double> shares =
        deltas ? std::span<const double>(kDeltaShare) : kOverloadShare;
    std::vector<std::size_t> sent(world->tenants.size(), 0);
    const radius::AtlasStats atlas_before = world->atlas->stats();
    const obs::MetricsSnapshot before =
        registry ? registry->snapshot() : obs::MetricsSnapshot{};
    if (open) {
      run_open_loop(*world, a, rate, seconds_a, shares, deltas, sent, false);
    } else {
      run_warm(*world, a, SIZE_MAX, seconds_a, false);
    }
    atlas_a = world->atlas->stats().since(atlas_before);
    if (registry) reg_a = registry->snapshot().since(before);
    rss = peak_rss_mib();
    if (o.trace) {
      obs::TraceRecorder::enable(kTraceRing);
      if (open) {
        run_open_loop(*world, b, rate, kTracedOpenLoopSeconds, shares, deltas, sent,
                      true);
      } else {
        run_warm(*world, b, kTracedWarmRequests, 1e9, true);
      }
      obs::TraceRecorder::disable();
    }
    mismatches = check_world(*world, phases, o.threads, &link_reseeds);
    for (const TenantPlan& p : world->tenants) tenant_names.push_back(p.name);
  }

  if (o.trace) {
    std::ofstream trace_out(o.trace_path);
    obs::TraceRecorder::export_chrome_trace(trace_out);
    if (!trace_out) {
      std::cerr << "cannot write " << o.trace_path << "\n";
      return 3;
    }
  }

  const double limit = latency_limit_ms(o.workload);
  const Outcomes out = count_outcomes(o.workload, phases, limit);
  const bool correct = mismatches == 0 && out.unexpected == 0;
  // Generator validity: the dispatcher fell behind its own schedule by more
  // than the latency limit, so the run measured the generator, not the server.
  const std::optional<double> lag_p99 = a.lag_ms.quantile(0.99);
  const bool generator_valid = !lag_p99.has_value() || *lag_p99 <= limit;

  std::ofstream file(o.result_path);
  obs::JsonWriter json(file);
  json.begin_object();
  json.kv("workload", o.workload);
  json.key("provenance");
  json.begin_object();
  json.kv("nproc", std::thread::hardware_concurrency());
  json.kv("threads", o.threads);
  json.kv("seed", o.seed);
  json.kv("build_type", PROOFLAB_BENCH_BUILD_TYPE);
  json.kv("phase", cold ? "cold" : "warm");
  json.kv("loop", open ? "open" : "closed");
  json.key("offered_rate_per_s");
  if (open) {
    json.value(rate);
  } else {
    json.value("n/a (closed loop, one client)");
  }
  json.kv("seconds", o.seconds);
  json.kv("traced", o.trace);
  json.kv("latency_limit_ms", limit);
  json.kv("atlas_budget_mib", kAtlasMiB);
  json.kv("generator_valid", generator_valid);
  json.end_object();
  json.kv("correct", correct);
  json.kv("attempted", out.attempted);
  json.kv("failed", out.unexpected + mismatches);
  json.kv("mismatches", mismatches);
  json.key("outcomes");
  json.begin_object();
  json.kv("served", out.served);
  json.kv("shed", out.shed);
  json.kv("expired", out.expired);
  json.kv("cancelled", out.cancelled);
  json.kv("faulted", out.faulted);
  json.kv("malformed", out.malformed);
  json.kv("unanswered", out.unanswered);
  json.end_object();
  if (!tenant_names.empty()) {
    // Per-tenant breakdown of the untraced phase, for reading the mix.
    json.key("tenants");
    json.begin_object();
    for (std::size_t t = 0; t < tenant_names.size(); ++t) {
      Samples latency, service;
      for (const Request& r : a.requests)
        if (r.tenant == t && r.answered && r.outcome == serve::RejectKind::kNone) {
          latency.add(static_cast<double>(r.latency_ns) / 1e6);
          service.add(static_cast<double>(r.service_ns) / 1e6);
        }
      json.key(tenant_names[t]);
      json.begin_object();
      json.kv("served", latency.n());
      json.kv("latency_p50_ms", latency.quantile(0.5).value_or(-1.0));
      json.kv("service_p50_ms", service.quantile(0.5).value_or(-1.0));
      json.end_object();
    }
    json.end_object();
  }
  json.key("e2e");
  write_metrics(json, e2e_metrics(o.workload, a, setup_s, rss));
  if (o.trace) {
    json.key("layers");
    write_metrics(json, layer_metrics(a, b, reg_a, atlas_a, o.threads,
                                      link_reseeds));
    json.kv("service_ms_traced_sum", b.service_ms.sum());
    json.kv("trace_ring_capacity", cold ? kTraceRingCold : kTraceRing);
  }
  json.end_object();
  file << "\n";
  if (!file) {
    std::cerr << "cannot write " << o.result_path << "\n";
    return 3;
  }
  if (!correct) {
    std::cerr << "verdict mismatches: " << mismatches
              << ", unexpected outcomes: " << out.unexpected << "\n";
    return 1;
  }
  return 0;
}

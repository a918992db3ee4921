#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "util/assert.hpp"
#include "util/failpoint.hpp"

namespace pls::serve {

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      atlas_(options_.atlas != nullptr
                 ? options_.atlas
                 : std::make_shared<radius::GeometryAtlas>()) {
  // A zero quantum could never cover any request's cost (>= 1), so the DRR
  // loop in serve_next would cycle tenants forever without serving.
  PLS_REQUIRE(options_.quantum >= 1);
  if (options_.metrics != nullptr) {
    requests_ = &options_.metrics->counter("serve.requests");
    rejected_frames_ = &options_.metrics->counter("serve.rejected_frames");
    shed_ = &options_.metrics->counter("serve.shed");
    expired_ = &options_.metrics->counter("serve.expired");
    cancelled_sweeps_ = &options_.metrics->counter("serve.cancelled_sweeps");
    faults_ = &options_.metrics->counter("serve.faults");
    deadline_slack_ = &options_.metrics->histogram("serve.deadline_slack_ns");
  }
}

Server::~Server() = default;

std::uint64_t Server::now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint32_t Server::add_tenant(std::string name, const core::Scheme& scheme,
                                 const local::Configuration& cfg, unsigned t) {
  PLS_REQUIRE(t >= 1);
  Tenant tenant;
  tenant.name = std::move(name);
  tenant.scheme = &scheme;
  tenant.cfg = &cfg;
  tenant.t = t;
  if (options_.metrics != nullptr)
    tenant.latency =
        &options_.metrics->histogram("serve.latency_ns." + tenant.name);
  tenants_.push_back(std::move(tenant));
  return static_cast<std::uint32_t>(tenants_.size() - 1);
}

radius::BatchVerifier& Server::verifier_for(Tenant& tenant) {
  if (tenant.verifier == nullptr) {
    radius::BatchOptions opts;
    opts.threads = options_.threads;
    opts.atlas = atlas_;
    opts.metrics = options_.metrics;
    tenant.verifier = std::make_unique<radius::BatchVerifier>(
        *tenant.scheme, *tenant.cfg, tenant.t, std::move(opts));
  }
  return *tenant.verifier;
}

void Server::submit(Frame frame, std::uint64_t arrival_ns) {
  PLS_REQUIRE(frame != nullptr);
  const std::uint64_t seq = next_seq_++;
  if (requests_ != nullptr) requests_->add(1);

  // Validate everything knowable without running: frame integrity, then
  // consistency with the claimed tenant.  A frame that fails here never
  // touches a DRR queue, so malformed traffic can't bill a victim tenant.
  const auto reject_now =
      [&](std::uint32_t tenant_id, const char* reason,
          Rejection rejection = Rejection{RejectKind::kMalformed, 0}) {
        rejected_.push_back(
            Rejected{tenant_id, arrival_ns, seq, reason, rejection});
        ++queued_;
        // serve.rejected_frames keeps its original meaning — wire/tenant
        // validation failures; shed and expired flows have their own
        // counters, so dashboards never conflate garbage with overload.
        if (rejection.kind == RejectKind::kMalformed &&
            rejected_frames_ != nullptr)
          rejected_frames_->add(1);
      };

#if defined(PROOFLAB_FAILPOINTS)
  // Chaos site: deterministically corrupt this frame before parse — an even
  // draw truncates, an odd draw flips a magic byte.  Both malformations are
  // guaranteed-reject, so injected wire faults exercise the rejection path
  // without ever serving a corrupted-but-parseable frame (verdict identity
  // with the offline oracle is preserved by construction).
  if (const std::optional<std::uint64_t> drawn =
          util::failpoint::draw("serve.wire_ingest");
      drawn.has_value() && !frame->empty()) {
    std::vector<std::uint8_t> bytes = *frame;
    if (*drawn % 2 == 0)
      bytes.resize((*drawn / 2) % bytes.size());
    else
      bytes[0] ^= 0xA5;
    frame = std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
  }
#endif

  const char* error = nullptr;
  std::optional<RequestView> view =
      RequestView::parse(std::span<const std::uint8_t>(*frame), &error);
  if (!view.has_value()) {
    reject_now(0, error);
    return;
  }
  const std::uint32_t id = view->tenant_id();
  if (id >= tenants_.size()) {
    reject_now(id, "unknown tenant id");
    return;
  }
  Tenant& tenant = tenants_[id];
  if (view->node_count() != tenant.cfg->n()) {
    reject_now(id, "node_count does not match tenant configuration");
    return;
  }
  if (view->graph_epoch() != tenant.cfg->graph().epoch()) {
    reject_now(id, "graph_epoch does not match tenant graph");
    return;
  }
  if (view->t() != tenant.t) {
    reject_now(id, "radius t does not match tenant");
    return;
  }
  // A delta needs a base labeling to apply to.  The tenant queue is FIFO,
  // so "a full frame was queued (or served) before this delta" is decidable
  // right here — rejecting now keeps the doomed request from consuming the
  // tenant's DRR deficit at dispatch.
  if (view->kind() == WireKind::kDelta && !tenant.base_queued) {
    reject_now(id, "delta before any full labeling");
    return;
  }

  // Deadline: a v2 frame's TTL counts from ITS arrival timestamp (the
  // producer's clock never enters the picture).  Already-expired requests
  // are refused admission — queueing work that can only be dropped later
  // wastes the queue bound on the doomed.
  std::uint64_t deadline_ns = 0;
  if (const std::uint64_t ttl = view->ttl_ns(); ttl != 0) {
    deadline_ns = arrival_ns > std::numeric_limits<std::uint64_t>::max() - ttl
                      ? std::numeric_limits<std::uint64_t>::max()
                      : arrival_ns + ttl;
    if (now_ns() >= deadline_ns) {
      if (expired_ != nullptr) expired_->add(1);
      reject_now(id, "deadline expired before admission",
                 Rejection{RejectKind::kExpired, 0});
      return;
    }
  }

  // Load shedding: the bound is per tenant, so one tenant's burst can never
  // grow another's queue.  The retry hint prices the CURRENT total backlog
  // at the measured service rate — an upper bound on the wait for room,
  // since DRR is work-conserving.
  const std::uint64_t cost = std::max<std::uint64_t>(1, view->payload_count());
  if (options_.max_queued_cost != 0 &&
      tenant.queued_cost + cost > options_.max_queued_cost) {
    if (shed_ != nullptr) shed_->add(1);
    reject_now(id, "tenant queue over max_queued_cost",
               Rejection{RejectKind::kOverloaded, retry_after_hint(cost)});
    return;
  }

  // Only an ADMITTED full establishes the delta base promise (a shed or
  // expired full never reaches the queue, so deltas behind it stay refused).
  if (view->kind() == WireKind::kFull) tenant.base_queued = true;

  tenant.queued_cost += cost;
  queued_cost_total_ += cost;
  tenant.queue.push_back(Request{std::move(frame), std::move(*view),
                                 arrival_ns, seq, deadline_ns, cost});
  ++queued_;
}

std::optional<Server::Response> Server::serve_next() {
  // Submit-time rejections surface first: they carry no verification work,
  // so making them wait behind a DRR round would only skew their latency.
  if (!rejected_.empty()) {
    const Rejected r = rejected_.front();
    rejected_.pop_front();
    --queued_;
    Response response;
    response.tenant_id = r.tenant_id;
    response.seq = r.seq;
    response.wire_ok = false;
    response.error = r.reason;
    response.rejection = r.rejection;
    response.latency_ns = now_ns() - r.arrival_ns;
    return response;
  }
  if (queued_ == 0 || tenants_.empty()) return std::nullopt;

  // Deficit round-robin: each turn credits the tenant one quantum; it then
  // serves head requests while the deficit covers their cost.  serve_next
  // returns one request per call, so the "mid-turn" state (credited, spent)
  // persists in rr_cursor_/turn_credited_/deficit across calls.
  for (;;) {
    Tenant& tenant = tenants_[rr_cursor_];
    if (tenant.queue.empty()) {
      // An idle tenant carries no deficit forward — DRR's anti-burst rule:
      // you can't bank credit while you have nothing to serve.
      tenant.deficit = 0;
      turn_credited_ = false;
      rr_cursor_ = (rr_cursor_ + 1) % tenants_.size();
      continue;
    }
    // A head request whose deadline already passed is dropped BEFORE any
    // verification work — a late verdict is never silently served.
    // Lateness is not service: it charges no DRR deficit and does not
    // consume the turn (the tenant's live head is judged under the same
    // credit on the next call).
    if (const Request& head = tenant.queue.front();
        head.deadline_ns != 0 && now_ns() >= head.deadline_ns) {
      Request request = std::move(tenant.queue.front());
      tenant.queue.pop_front();
      --queued_;
      tenant.queued_cost -= request.cost;
      queued_cost_total_ -= request.cost;
      // The dropped frame's state transition never happens: a full that
      // expires here never installs its labeling, an intermediate delta
      // leaves the chain missing one update.  Every delta queued behind it
      // would therefore verify against a base the client never submitted it
      // for — same stream-consistency rule as an abandoned run, so the base
      // is dropped and those deltas fail fast until the next full re-seeds.
      abandon_base(tenant);
      if (expired_ != nullptr) expired_->add(1);
      Response response;
      response.tenant_id = request.view.tenant_id();
      response.seq = request.seq;
      response.error = "deadline expired before dispatch";
      response.rejection = Rejection{RejectKind::kExpired, 0};
      response.latency_ns = now_ns() - request.arrival_ns;
      return response;
    }
    if (!turn_credited_) {
      tenant.deficit += options_.quantum;
      turn_credited_ = true;
    }
    const std::uint64_t cost = tenant.queue.front().cost;
    if (tenant.deficit < cost) {
      // Not this turn; the deficit persists (a request costlier than one
      // quantum accumulates credit over successive rounds).
      turn_credited_ = false;
      rr_cursor_ = (rr_cursor_ + 1) % tenants_.size();
      continue;
    }
    tenant.deficit -= cost;
    Request request = std::move(tenant.queue.front());
    tenant.queue.pop_front();
    --queued_;
    tenant.queued_cost -= request.cost;
    queued_cost_total_ -= request.cost;
    return dispatch(tenant, std::move(request));
  }
}

std::vector<Server::Response> Server::drain() {
  std::vector<Response> responses;
  while (std::optional<Response> r = serve_next())
    responses.push_back(std::move(*r));
  return responses;
}

Server::Response Server::dispatch(Tenant& tenant, Request request) {
  Response response;
  response.tenant_id = request.view.tenant_id();
  response.seq = request.seq;

  radius::BatchVerifier& verifier = verifier_for(tenant);
  // Arm the deadline for cooperative cancellation: the verifier polls the
  // token at labeling boundaries and the stealing sweep at chunk claims.
  // Deadline 0 never fires.  The token is reset per request, so one member
  // suffices under the single-dispatcher thread contract.
  cancel_.reset(request.deadline_ns);
  verifier.set_cancel(&cancel_);
  const std::uint64_t service_start = now_ns();
  try {
    if (request.view.kind() == WireKind::kFull) {
      // Zero copy: the labeling's certificates alias the frame; the frame's
      // pin rides into the verifier's parse cache alongside them.
      core::Labeling labeling;
      labeling.certs = request.view.certs();
      response.verdict = verifier.run_one(labeling, request.frame);
      tenant.current = std::move(labeling);
      tenant.pins.clear();
      tenant.pins.push_back(request.frame);
    } else {
      // submit() admits a delta only behind an admitted full, and
      // dispatching that full installs tenant.current — but the base is
      // gone when an earlier run was abandoned (deadline, fault) or when
      // the full (or an intermediate delta) was dropped at dispatch for
      // expiry.  Verifying a delta against any other base would yield a
      // verdict for a labeling the client never submitted; fail fast, the
      // client's recovery is a fresh full.  The reason is cause-neutral:
      // both abandonment and an expired drop end here.
      if (tenant.current.certs.empty()) {
        response.error = "no delta base resident";
        response.rejection = Rejection{RejectKind::kCancelled, 0};
        response.latency_ns = now_ns() - request.arrival_ns;
        return response;
      }
      // Swap the touched certificates into the tenant's current labeling in
      // place (O(k), no per-request copy of the other n-k) and run the delta
      // against it.
      radius::LabelingDelta delta;
      delta.touched = request.view.touched();
      const std::vector<local::Certificate>& fresh = request.view.certs();
      for (std::size_t i = 0; i < delta.touched.size(); ++i)
        tenant.current.certs[delta.touched[i]] = fresh[i];
      response.verdict =
          verifier.run_delta(tenant.current, delta, request.frame);
      tenant.pins.push_back(request.frame);
      if (tenant.pins.size() > kMaxTenantPins) {
        // Consolidation bound: own every certificate's bytes and release the
        // accumulated request buffers, so an unbounded delta stream pins a
        // bounded set of frames.
        for (local::Certificate& cert : tenant.current.certs)
          cert = cert.materialize();
        tenant.pins.clear();
      }
    }
  } catch (const util::CancelledError&) {
    // The deadline fired mid-run: the sweep stopped cooperatively at a
    // chunk/labeling boundary.  The verifier keeps no resident state from
    // an abandoned run, but tenant.current may be half-updated by THIS
    // request (a delta's certs swapped in, a full's install skipped), so
    // the base is dropped — the next run is bit-exact from a clean slate.
    abandon_base(tenant);
    if (expired_ != nullptr) expired_->add(1);
    if (cancelled_sweeps_ != nullptr) cancelled_sweeps_->add(1);
    response.error = "deadline expired during verification";
    response.rejection = Rejection{RejectKind::kExpired, 0};
    response.latency_ns = now_ns() - request.arrival_ns;
    return response;
  } catch (const std::exception&) {
    // Containment: an internal fault (an atlas build OOM, an injected
    // fault) fails THIS request, never the server.  Same base-loss rule as
    // cancellation — the run stopped at an arbitrary point.
    abandon_base(tenant);
    if (faults_ != nullptr) faults_->add(1);
    response.error = "internal fault during verification";
    response.rejection = Rejection{RejectKind::kFaulted, 0};
    response.latency_ns = now_ns() - request.arrival_ns;
    return response;
  }
  const std::uint64_t end = now_ns();
  // Service-rate EWMA (ns per cost unit) behind retry_after hints; 1/8 new
  // weight tracks load shifts within a few dozen dispatches without letting
  // one outlier dominate.  Updated before the late-completion check below:
  // a run that finished past its deadline is a genuine rate sample, and
  // overload is exactly the regime the hints must price.
  const double per_cost = static_cast<double>(end - service_start) /
                          static_cast<double>(request.cost);
  ewma_ns_per_cost_ = ewma_ns_per_cost_ == 0.0
                          ? per_cost
                          : 0.125 * per_cost + 0.875 * ewma_ns_per_cost_;
  // A sweep whose chunks were all claimed before the deadline token tripped
  // completes instead of throwing — recheck here, so a verdict that missed
  // its deadline is withheld by SOME checkpoint on every path.  Unlike the
  // mid-run abandonment above, the run finished: tenant.current now equals
  // exactly the labeling stream the client submitted, so the base stays
  // resident and queued deltas behind this request remain verdict-exact.
  if (request.deadline_ns != 0 && end >= request.deadline_ns) {
    if (expired_ != nullptr) expired_->add(1);
    response.verdict = core::Verdict{};
    response.error = "deadline expired after verification";
    response.rejection = Rejection{RejectKind::kExpired, 0};
    response.latency_ns = end - request.arrival_ns;
    return response;
  }
  response.wire_ok = true;
  response.latency_ns = end - request.arrival_ns;
  if (tenant.latency != nullptr) tenant.latency->record(response.latency_ns);
  // Deadline slack of SERVED requests: how close to the edge the server
  // runs.  A p1 near zero says deadlines are about to start firing (and it
  // is strictly positive — an exactly-on-deadline finish is already late).
  if (request.deadline_ns != 0 && deadline_slack_ != nullptr)
    deadline_slack_->record(request.deadline_ns - end);
  return response;
}

void Server::abandon_base(Tenant& tenant) {
  tenant.current = core::Labeling{};
  tenant.pins.clear();
}

std::uint64_t Server::retry_after_hint(std::uint64_t cost) const noexcept {
  if (ewma_ns_per_cost_ == 0.0) return 0;
  return static_cast<std::uint64_t>(
      ewma_ns_per_cost_ * static_cast<double>(queued_cost_total_ + cost));
}

}  // namespace pls::serve

// The multi-tenant serving front end.
//
// A tenant is one pinned (scheme, configuration, t) — the unit the rest of
// the pipeline already verifies against.  The Server owns ONE GeometryAtlas
// shared by every tenant (many (scheme, cfg, t) configurations genuinely
// contend for one geometry budget), ONE util::ThreadPool every tenant's
// sweeps run on (the dispatcher runs one sweep at a time, so T tenants cost
// threads - 1 workers, not T times that), and one BatchVerifier per tenant,
// built at add_tenant so a tenant the verifier refuses is refused at
// registration.
//
// Scheduling is deficit round-robin over per-tenant FIFO queues: each
// tenant's turn adds `quantum` cost units to its deficit, and it serves
// requests while the deficit covers the head request's cost (its payload
// count — a full labeling costs n, a k-node delta costs k).  A hot tenant
// that keeps its queue full therefore gets the same long-run service *rate*
// as everyone else and cannot starve cold tenants; the per-tenant
// serve.latency_ns histograms are the observable proof (the CI smoke gates
// no tenant's p99 above 3x the best).
//
// Zero-copy ingestion: submit() takes SHARED ownership of the frame buffer,
// requests are parsed at dispatch time (RequestView), and a full labeling's
// certificates alias the frame straight into the verifier, so a producer may
// drop its handle the moment submit() returns.  The server is the one owner
// of request bytes (the verifier reads a labeling only during a run — see
// radius/batch.hpp).  A full's frame is held while its labeling is the
// tenant's delta base — until the tenant's next full, or until the base is
// lost — because the base's untouched certificates alias it and run_delta
// reads them (a plain 1-round scheme re-sweeps neighbours from their raw
// bytes).  Every other frame is released with its response: a delta request
// copies its k touched certificates into the tenant's CURRENT labeling (the
// last one verified for it) as owned bytes and runs BatchVerifier::run_delta
// on it, so a delta stream of any length holds one request buffer per
// tenant.  The producer must not MUTATE a submitted buffer while the server
// holds it (the serve/test suite asserts both directions of this contract).
//
// Thread contract: like BatchVerifier, the Server is externally
// synchronized — one dispatcher thread calls submit()/serve_next()/drain().
// Parallelism lives inside the one sweep in flight, on the server's pool
// (ServerOptions::threads slots, the dispatcher being slot 0), and the
// shared atlas is internally locked.  Verdicts are bit-identical to the
// in-memory run_one/run_delta path at every thread count: the aliased
// certificates are bit-equal to their owned counterparts, and everything
// downstream of parse is the unmodified pipeline.
//
// OVERLOAD CONTROL (docs/serving.md §5).  Under sustained overload the
// server sheds instead of queueing without bound:
//
//   * Admission: ServerOptions::max_queued_cost bounds each tenant's queued
//     cost (payload counts).  A submit that would exceed the bound is shed
//     with Rejection{kOverloaded, retry_after_ns} — the hint is the time to
//     drain the current backlog at the EWMA-measured service rate.  The
//     bound is PER TENANT: one tenant's burst can never grow another's
//     queue (each tenant's cost is accounted separately).
//   * Deadlines: a version-2 frame carries a TTL; deadline = arrival + TTL.
//     Checked at submit (expired frames are never admitted), at dispatch
//     (expired head requests are dropped before any verification work,
//     charge no DRR deficit, and invalidate the tenant's delta base — the
//     dropped frame's state transition never happened, so deltas queued
//     behind it fail fast instead of verifying against a base the client
//     never submitted them for), cooperatively inside the sweep via
//     util::CancelToken (the pool polls at chunk-claim boundaries, the
//     verifier at labeling boundaries), and once more after the run — a
//     sweep whose chunks were all claimed before the token tripped runs to
//     completion, and its late verdict is still withheld (kExpired).  A
//     late verdict is therefore never served by any path.
//   * Containment: a run that throws — expiry mid-sweep or an internal
//     fault such as an allocation failure in an atlas build — fails THAT
//     request, never the server.  The tenant's delta base is cleared
//     (the abandoned run may have half-applied it), so queued deltas fail
//     fast with kCancelled until the next full frame rebuilds the base.
//
// Every flow is counted: serve.shed, serve.expired, serve.cancelled_sweeps,
// serve.faults, and the serve.deadline_slack_ns histogram (slack of served
// deadline-carrying requests — how close to the edge the server runs).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "radius/batch.hpp"
#include "serve/wire.hpp"
#include "util/cancel.hpp"

namespace pls::serve {

/// Machine-readable classification of a non-served response.  `error` says
/// WHY for humans; `kind` says WHAT for retry logic — a client backs off on
/// kOverloaded, re-submits a fresh request on kExpired, and must send a full
/// labeling after kCancelled (its delta base is gone).
enum class RejectKind : std::uint8_t {
  kNone = 0,    ///< the response carries a verdict (wire_ok)
  kMalformed,   ///< frame failed wire/tenant validation at submit
  kOverloaded,  ///< shed at submit: the tenant's queue bound was exceeded
  kExpired,     ///< deadline passed — at submit, dispatch, mid-sweep, or
                ///< after a run that completed past its deadline
  kCancelled,   ///< no delta base resident (an earlier run was abandoned or
                ///< an earlier frame was dropped at dispatch for expiry)
  kFaulted,     ///< verification aborted by an internal fault
};

struct Rejection {
  RejectKind kind = RejectKind::kNone;
  /// kOverloaded only: when the backlog ahead of this request would drain at
  /// the EWMA-measured service rate — an upper bound on the wait, since DRR
  /// is work-conserving.  0 = no estimate yet (nothing served so far).
  std::uint64_t retry_after_ns = 0;
};

struct ServerOptions {
  /// Slots of the server's one sweep pool, shared by every tenant (the
  /// dispatcher included); 0 = hardware concurrency.
  unsigned threads = 0;
  /// The shared geometry budget; null creates a private default atlas.
  std::shared_ptr<radius::GeometryAtlas> atlas;
  /// Sink for per-tenant serve.latency_ns histograms and serve.* counters;
  /// null records nothing.  Must outlive the server.
  obs::MetricsRegistry* metrics = nullptr;
  /// DRR quantum in cost units (certificate payloads) added to a tenant's
  /// deficit per turn.  Larger quanta lower switching overhead but coarsen
  /// short-term fairness; the default covers one mid-size delta burst.
  /// Must be >= 1 (constructor-enforced): every request costs at least one
  /// unit, so a zero quantum could never serve anything.
  std::uint64_t quantum = 256;
  /// Admission bound on each tenant's queued cost (sum of per-request costs,
  /// cost = max(1, payload_count)).  A submit that would push the tenant
  /// past the bound is shed with RejectKind::kOverloaded and a retry-after
  /// hint.  0 (the default) = unbounded, the pre-overload-control behavior.
  std::uint64_t max_queued_cost = 0;
};

class Server {
 public:
  /// A frame buffer the server may hold: shared ownership of immutable bytes.
  using Frame = std::shared_ptr<const std::vector<std::uint8_t>>;

  explicit Server(ServerOptions options = {});
  ~Server();

  /// Registers a tenant and builds its verifier on the server's pool;
  /// returns the tenant id requests must carry.  The scheme and
  /// configuration must outlive the server.  `name` keys the tenant's
  /// metrics (serve.latency_ns.<name>).  Requires what BatchVerifier
  /// requires — t >= 1, and t >= scheme.radius() for a ball scheme — and
  /// registers nothing when it throws.
  std::uint32_t add_tenant(std::string name, const core::Scheme& scheme,
                           const local::Configuration& cfg, unsigned t);

  struct Response {
    std::uint32_t tenant_id = 0;   ///< from the frame (0 if header unreadable)
    std::uint64_t seq = 0;         ///< submission order, 0-based
    bool wire_ok = false;          ///< parsed, matched a tenant, verifiable
    const char* error = nullptr;   ///< static reason when !wire_ok
    Rejection rejection;           ///< kind + retry hint when !wire_ok
    core::Verdict verdict;         ///< empty when !wire_ok
    std::uint64_t latency_ns = 0;  ///< completion - arrival
  };

  /// Enqueues a frame.  `arrival_ns` is the open-loop arrival timestamp
  /// (steady-clock ns) latency is measured from; pass now_ns() for
  /// closed-loop callers.  The server shares ownership of the buffer until
  /// the response returns, or — for a served full labeling — until the
  /// tenant's next full or the loss of its delta base (see the header
  /// comment); the producer must not mutate the bytes until then.  Frames that fail parsing, don't match
  /// their claimed tenant's (n, epoch, t), or send a delta before any full
  /// labeling are rejected at submit — queuing garbage under the claimed
  /// tenant would let an attacker consume a victim's DRR budget — and
  /// surface as error Responses ahead of the next serve_next().
  void submit(Frame frame, std::uint64_t arrival_ns);

  /// Serves one request under DRR; nullopt when everything is drained.
  std::optional<Response> serve_next();

  /// Serves until all queues are empty; responses in completion order.
  std::vector<Response> drain();

  std::size_t queued() const noexcept { return queued_; }
  const std::shared_ptr<radius::GeometryAtlas>& atlas() const noexcept {
    return atlas_;
  }
  /// Monotonic steady-clock ns, the timebase submit() expects.
  static std::uint64_t now_ns() noexcept;

 private:
  struct Request {
    Frame frame;
    RequestView view;  ///< aliases *frame (validated at submit)
    std::uint64_t arrival_ns = 0;
    std::uint64_t seq = 0;
    std::uint64_t deadline_ns = 0;  ///< arrival + ttl; 0 = no deadline
    std::uint64_t cost = 1;         ///< max(1, payload_count), DRR units
  };

  struct Tenant {
    std::string name;
    const local::Configuration* cfg = nullptr;
    std::unique_ptr<radius::BatchVerifier> verifier;  ///< bound to (cfg, t)
    std::deque<Request> queue;
    std::uint64_t deficit = 0;
    /// Sum of queued request costs — what max_queued_cost bounds.
    std::uint64_t queued_cost = 0;
    /// A full frame has been queued (the FIFO queue then guarantees every
    /// later delta dispatches with a base labeling resident).
    bool base_queued = false;
    // The tenant's current labeling (delta base): certificates a delta
    // touched are owned copies, every other one aliases base_frame — the
    // frame of the full labeling the base was seeded from.
    core::Labeling current;
    Frame base_frame;
    obs::Histogram* latency = nullptr;  ///< serve.latency_ns.<name>
  };

  /// A submit-time rejection waiting to surface as a Response (the frame
  /// itself is already released — nothing verifiable to hold).
  struct Rejected {
    std::uint32_t tenant_id = 0;
    std::uint64_t arrival_ns = 0;
    std::uint64_t seq = 0;
    const char* reason = nullptr;
    Rejection rejection;  ///< kMalformed, kOverloaded, or kExpired
  };

  Response dispatch(Tenant& tenant, Request request);
  /// Drops the tenant's delta base after an abandoned or faulted run (the
  /// run may have half-applied a delta to `current`, so nothing about it is
  /// trustworthy) or after a dispatch-expiry drop (the dropped frame's
  /// state transition never happened, so the resident base no longer
  /// matches the stream deltas behind it were submitted against).  Queued
  /// deltas then fail fast (kCancelled) until the next full frame rebuilds
  /// the base.
  static void abandon_base(Tenant& tenant);
  /// Backlog-drain estimate for a shed request of `cost` units (see
  /// Rejection::retry_after_ns).
  std::uint64_t retry_after_hint(std::uint64_t cost) const noexcept;

  ServerOptions options_;
  std::shared_ptr<radius::GeometryAtlas> atlas_;
  std::shared_ptr<util::ThreadPool> pool_;  ///< every tenant's sweeps
  std::vector<Tenant> tenants_;
  std::deque<Rejected> rejected_;  ///< FIFO, served ahead of the DRR rounds
  std::size_t rr_cursor_ = 0;      ///< tenant whose DRR turn is current/next
  bool turn_credited_ = false;     ///< quantum already added this turn
  std::size_t queued_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t queued_cost_total_ = 0;  ///< across tenants, for retry hints

  /// Per-request deadline token handed to the dispatching verifier; reset
  /// before each run (the dispatcher is single-threaded, so one suffices).
  util::CancelToken cancel_;
  /// EWMA of service ns per cost unit over completed dispatches; 0 until
  /// the first completion.  Feeds retry_after_hint.
  double ewma_ns_per_cost_ = 0.0;

  obs::Counter* requests_ = nullptr;          ///< serve.requests
  obs::Counter* rejected_frames_ = nullptr;   ///< serve.rejected_frames
  obs::Counter* shed_ = nullptr;              ///< serve.shed
  obs::Counter* expired_ = nullptr;           ///< serve.expired
  obs::Counter* cancelled_sweeps_ = nullptr;  ///< serve.cancelled_sweeps
  obs::Counter* faults_ = nullptr;            ///< serve.faults
  obs::Histogram* deadline_slack_ = nullptr;  ///< serve.deadline_slack_ns
};

}  // namespace pls::serve

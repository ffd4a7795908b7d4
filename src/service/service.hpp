// SolverService — a long-lived session layer over AMGSolver.
//
// The paper's deployment model (§5.2) amortizes one expensive setup phase
// over many solves; production solver farms (XAMG's "solver instance"
// reuse, PETSc's KSPSetReusePreconditioner) go one step further and keep
// *pools* of set-up hierarchies alive across requests. SolverService is
// that layer: callers submit (matrix, rhs, latency contract) requests and
// get a future; worker threads solve them against a bounded LRU pool of
// AMG hierarchies keyed by matrix_fingerprint (matrix/csr.hpp), so a
// repeat matrix pays zero setup.
//
// The robustness contract — every request resolves to a specific Status,
// never silence, never a hang:
//
//   - Admission control: a bounded submission queue; requests are rejected
//     (Status::kRejected) when the queue is full, when the service is
//     stopping, or when the EWMA service-time estimate says the queue
//     delay alone would blow the request's deadline (load shedding).
//   - Deadline propagation: each request's Deadline rides into
//     AMGSolver::solve / solve_multi (checked per V-cycle) and is also
//     checked at dequeue and between retry attempts; expiry anywhere
//     yields Status::kDeadlineExceeded with the partial result preserved.
//   - Retry with backoff: transient failures (kNonFinite, kDiverged,
//     kAllocFailure, kDeadlock, kPeerFailure, kUnknown) are retried from a
//     clean initial guess with capped exponential backoff, up to
//     max_attempts, never past the deadline.
//   - Circuit breaker: per-fingerprint consecutive-failure counter; at
//     breaker_threshold the breaker opens and requests for that operator
//     fail fast (Status::kCircuitOpen) until a cooldown elapses, then one
//     half-open probe decides between closing and re-opening.
//   - Graceful degradation: when the queue is more than
//     degrade_queue_fraction full, admission downgrades the request
//     (cheaper iteration budget / looser tolerance) instead of rejecting;
//     every downgrade is recorded in the request's report events.
//
// Observability: all decision points publish `service.*` metrics
// (support/metrics.hpp), so the PR-9 live sampler exports queue depth,
// in-flight count, rejects and breaker state to metrics.prom and
// `hpamg top` renders them. Internal stats mirror the counters
// unconditionally so tests need not enable the registry.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "amg/multivector.hpp"
#include "amg/solver.hpp"
#include "support/deadline.hpp"
#include "support/error.hpp"

namespace hpamg::service {

struct ServiceOptions {
  int workers = 2;              ///< solver worker threads
  std::size_t queue_capacity = 32;  ///< bounded submission queue
  std::size_t max_hierarchies = 4;  ///< LRU pool of set-up AMG hierarchies
  AMGOptions amg;               ///< setup configuration for built hierarchies

  // Retry/backoff for transient failures.
  Int max_attempts = 3;         ///< total tries per request (1 = no retry)
  double backoff_initial_s = 0.01;  ///< first retry delay
  double backoff_max_s = 0.25;      ///< cap for the exponential backoff

  // Per-fingerprint circuit breaker.
  Int breaker_threshold = 3;    ///< consecutive failures that trip it
  double breaker_cooldown_s = 0.5;  ///< open -> half-open delay

  // Graceful degradation under load.
  double degrade_queue_fraction = 0.75;  ///< queue fill that triggers it
  Int degraded_max_iterations = 25;      ///< iteration budget when degraded
  double degraded_rtol_floor = 1e-4;     ///< rtol is loosened up to this

  /// Spawn workers in the constructor. Tests set false to drive admission
  /// without any consumer (deterministic queue-full / shed behavior).
  bool autostart = true;
};

struct RequestOptions {
  double rtol = 1e-7;
  Int max_iterations = 500;
  Deadline deadline;            ///< default: unbounded
};

/// Terminal report for one request — delivered through the future whether
/// the request solved, degraded, retried, expired, or never left the queue.
struct RequestReport {
  Status status = Status::kUnknown;
  std::uint64_t fingerprint = 0;
  Int iterations = 0;           ///< cumulative over attempts
  double final_relres = 0.0;    ///< worst column for multi-RHS
  Int attempts = 0;             ///< 0 = rejected before any solve
  bool degraded = false;        ///< admission downgraded the work
  bool cache_hit = false;       ///< hierarchy served from the pool
  double queue_seconds = 0.0;   ///< admission -> dequeue
  double solve_seconds = 0.0;   ///< time inside solve attempts
  double total_seconds = 0.0;   ///< admission -> completion
  /// Decision log: degrade notes, retry/backoff notes, breaker verdicts,
  /// solver incident events (partial-result notes on deadline expiry).
  std::vector<std::string> events;
  Vector x;                     ///< iterate when m = 1 (partial on failure)
  MultiVector X{0, 1};          ///< iterate, n x m (any request)
};

/// Mirror of the service.* counters, maintained unconditionally (plain
/// atomics) so tests and benches can assert on behavior without enabling
/// the metrics registry.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;       ///< all kRejected outcomes
  std::uint64_t queue_full = 0;     ///< rejects due to a full queue
  std::uint64_t shed = 0;           ///< rejects due to deadline-aware shedding
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t circuit_open = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t retries = 0;
  std::uint64_t degraded = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t failed = 0;         ///< terminal non-ok outcomes
  std::uint64_t cache_hits = 0;
  std::uint64_t setup_builds = 0;
  std::uint64_t evictions = 0;
};

class SolverService {
 public:
  explicit SolverService(const ServiceOptions& opts = {});
  ~SolverService();  ///< stop(false): drops queued work, joins workers

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Submits a single-RHS solve. Never throws and never blocks on solver
  /// work: admission verdicts (kRejected / kDeadlineExceeded /
  /// kInvalidInput) come back as an already-resolved future. The matrix is
  /// taken by value — the service owns its copy for the hierarchy's
  /// lifetime.
  std::future<RequestReport> submit(CSRMatrix A, Vector b,
                                    const RequestOptions& ropts = {});

  /// Batched submission: all columns of B solved together (AMGSolver::
  /// solve_multi), one admission decision and one report for the batch.
  /// The one request path: submit() is its m = 1 case.
  std::future<RequestReport> submit_multi(CSRMatrix A, MultiVector B,
                                          const RequestOptions& ropts = {});

  /// Starts worker threads (idempotent; the constructor calls it unless
  /// opts.autostart is false).
  void start();

  /// Stops the service. drain=true: workers finish everything already
  /// queued; drain=false: queued requests resolve to kRejected. Either
  /// way every outstanding future is fulfilled before stop returns.
  void stop(bool drain = true);

  /// Point-in-time copy of the unconditional stats mirror.
  ServiceStats stats() const;

  std::size_t queue_depth() const;
  std::size_t cached_hierarchies() const;
  /// Breakers currently open (or half-open with a probe in flight).
  std::size_t open_breakers() const;

 private:
  enum class BreakerState { kClosed, kOpen, kHalfOpen };

  /// One pooled operator: the set-up solver plus its breaker state. The
  /// breaker lives with the cache entry, so evicting an operator also
  /// forgets its failure history (a fresh entry deserves a closed breaker).
  struct Entry {
    std::uint64_t fingerprint = 0;
    std::shared_ptr<const CSRMatrix> A;  ///< kept alive for lazy setup
    std::unique_ptr<AMGSolver> solver;   ///< built under solve_mu
    std::mutex solve_mu;  ///< AMGSolver's workspace is per-hierarchy:
                          ///< concurrent solves on one entry serialize here
    std::uint64_t last_used = 0;         ///< LRU sequence number

    // Breaker fields, guarded by the owning service's pool_mu_.
    BreakerState state = BreakerState::kClosed;
    Int consecutive_failures = 0;
    Deadline::Clock::time_point open_until{};
    bool probe_in_flight = false;
  };

  struct Request {
    std::uint64_t id = 0;
    std::shared_ptr<const CSRMatrix> A;
    std::uint64_t fingerprint = 0;
    MultiVector B{0, 1};  ///< n x m; submit() moves its vector in as m = 1
    RequestOptions opts;
    Deadline::Clock::time_point submit_tp{};
    std::promise<RequestReport> promise;
    RequestReport report;
  };

  std::future<RequestReport> admit(std::shared_ptr<Request> rq);
  /// Resolves a request that never reaches a worker (or finishes one that
  /// did): stamps totals, bumps terminal counters, fulfills the promise.
  void finish(Request& rq, Status status, const std::string& event);
  void worker_loop();
  void process(Request& rq);
  /// Runs one solve attempt from a zero initial guess; returns its Status.
  Status run_attempt(Request& rq, AMGSolver& solver);
  /// Pool lookup by fingerprint. A hit must hold the same operator
  /// (pointer, then rowptr/colidx/values); a collision returns a fresh
  /// entry that is not cached.
  std::shared_ptr<Entry> acquire_entry(Request& rq);

  // Breaker transitions (all take pool_mu_).
  /// Admission verdict for the entry's breaker. Returns kOk to proceed
  /// (marking this request as the half-open probe when applicable) or
  /// kCircuitOpen to fail fast.
  Status breaker_admit(Entry& e, bool* is_probe, std::string* note);
  void breaker_record(Entry& e, bool is_probe, Status outcome);

  void publish_gauges();

  ServiceOptions opts_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<Request>> queue_;
  bool accepting_ = false;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
  std::mutex lifecycle_mu_;  ///< serializes start/stop

  mutable std::mutex pool_mu_;
  std::map<std::uint64_t, std::shared_ptr<Entry>> pool_;
  std::uint64_t use_seq_ = 0;

  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<int> in_flight_{0};
  std::atomic<int> breakers_open_{0};
  /// EWMA of per-request service seconds, feeding the shed estimate.
  std::atomic<double> ewma_service_s_{0.0};

  struct StatsCells;  ///< atomic mirror + metrics instruments (service.cpp)
  std::unique_ptr<StatsCells> stats_;
};

}  // namespace hpamg::service

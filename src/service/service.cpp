#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "matrix/csr.hpp"
#include "support/fault.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace hpamg::service {

namespace {

double seconds_since(Deadline::Clock::time_point t0) {
  return std::chrono::duration<double>(Deadline::Clock::now() - t0).count();
}

Deadline::Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Deadline::Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// Failures worth a retry: a fresh attempt from a clean initial guess can
/// plausibly succeed (transient corruption, allocation pressure, a peer
/// hiccup). kMaxIterations / kStagnated / kInvalidInput are deterministic
/// for a fixed (matrix, rhs, budget) — retrying repeats the outcome.
bool is_transient(Status s) {
  switch (s) {
    case Status::kNonFinite:
    case Status::kDiverged:
    case Status::kAllocFailure:
    case Status::kDeadlock:
    case Status::kPeerFailure:
    case Status::kUnknown:
      return true;
    default:
      return false;
  }
}

std::string fmt_s(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g s", seconds);
  return buf;
}

std::string fmt_g(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

std::string fp_hex(std::uint64_t fp) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)fp);
  return buf;
}

}  // namespace

/// Counter cells are bumped unconditionally (tests read stats() without
/// the registry); the registry instruments alongside feed the live
/// sampler's metrics.prom / progress.jsonl when --live or --json runs
/// enable metrics.
struct SolverService::StatsCells {
  struct Cell {
    std::atomic<std::uint64_t> v{0};
    metrics::Counter& m;
    explicit Cell(const char* name) : m(metrics::counter(name)) {}
    void bump(std::uint64_t n = 1) {
      v.fetch_add(n, std::memory_order_relaxed);
      m.add(n);
    }
    std::uint64_t value() const { return v.load(std::memory_order_relaxed); }
  };

  Cell submitted{"service.submitted"};
  Cell admitted{"service.admitted"};
  Cell rejected{"service.rejected"};
  Cell queue_full{"service.queue_full"};
  Cell shed{"service.shed"};
  Cell deadline_exceeded{"service.deadline_exceeded"};
  Cell circuit_open{"service.circuit_open"};
  Cell breaker_trips{"service.breaker_trips"};
  Cell retries{"service.retries"};
  Cell degraded{"service.degraded"};
  Cell completed_ok{"service.completed_ok"};
  Cell failed{"service.failed"};
  Cell cache_hits{"service.cache_hits"};
  Cell setup_builds{"service.setup_builds"};
  Cell evictions{"service.evictions"};

  metrics::Gauge& g_queue_depth = metrics::gauge("service.queue_depth");
  metrics::Gauge& g_in_flight = metrics::gauge("service.in_flight");
  metrics::Gauge& g_breakers_open = metrics::gauge("service.breakers_open");
  metrics::Gauge& g_cached = metrics::gauge("service.cached_hierarchies");
  metrics::Histogram& h_queue_wait_us =
      metrics::histogram("service.queue_wait_us");
  metrics::Histogram& h_solve_us = metrics::histogram("service.solve_us");
};

SolverService::SolverService(const ServiceOptions& opts)
    : opts_(opts), stats_(std::make_unique<StatsCells>()) {
  opts_.workers = std::max(1, opts_.workers);
  opts_.queue_capacity = std::max<std::size_t>(1, opts_.queue_capacity);
  opts_.max_hierarchies = std::max<std::size_t>(1, opts_.max_hierarchies);
  opts_.max_attempts = std::max<Int>(1, opts_.max_attempts);
  accepting_ = true;
  if (opts_.autostart) start();
}

SolverService::~SolverService() { stop(false); }

void SolverService::start() {
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  if (!workers_.empty()) return;
  {
    std::lock_guard<std::mutex> qlk(queue_mu_);
    stopping_ = false;
    accepting_ = true;
  }
  workers_.reserve(std::size_t(opts_.workers));
  for (int i = 0; i < opts_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

void SolverService::stop(bool drain) {
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  std::deque<std::shared_ptr<Request>> dropped;
  {
    std::lock_guard<std::mutex> qlk(queue_mu_);
    accepting_ = false;
    stopping_ = true;
    if (!drain) dropped.swap(queue_);
  }
  queue_cv_.notify_all();
  for (auto& rq : dropped) {
    stats_->rejected.bump();
    finish(*rq, Status::kRejected, "service stopping: queued request dropped");
  }
  for (auto& t : workers_) t.join();
  workers_.clear();
  // A drain-stop with no workers running (autostart=false) would strand
  // futures; every outstanding promise must still be fulfilled.
  std::deque<std::shared_ptr<Request>> leftovers;
  {
    std::lock_guard<std::mutex> qlk(queue_mu_);
    leftovers.swap(queue_);
  }
  for (auto& rq : leftovers) {
    stats_->rejected.bump();
    finish(*rq, Status::kRejected, "service stopped with no workers running");
  }
  publish_gauges();
}

std::future<RequestReport> SolverService::submit(CSRMatrix A, Vector b,
                                                 const RequestOptions& ropts) {
  // The vector moves into an n x 1 block: one request path for any m.
  MultiVector B;
  B.n = Int(b.size());
  B.m = 1;
  B.data = std::move(b);
  return submit_multi(std::move(A), std::move(B), ropts);
}

std::future<RequestReport> SolverService::submit_multi(
    CSRMatrix A, MultiVector B, const RequestOptions& ropts) {
  auto rq = std::make_shared<Request>();
  rq->A = std::make_shared<const CSRMatrix>(std::move(A));
  rq->B = std::move(B);
  rq->opts = ropts;
  return admit(std::move(rq));
}

std::future<RequestReport> SolverService::admit(std::shared_ptr<Request> rq) {
  rq->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  rq->submit_tp = Deadline::Clock::now();
  std::future<RequestReport> fut = rq->promise.get_future();
  stats_->submitted.bump();

  // Structural validation before fingerprinting (matrix_fingerprint walks
  // rowptr); deep system-matrix validation happens in the AMGSolver ctor
  // and resolves to kInvalidInput through the setup path.
  try {
    rq->A->validate();
    require(rq->B.n == rq->A->nrows && rq->B.m > 0 &&
                rq->B.data.size() == std::size_t(rq->B.n) * rq->B.m,
            "service: rhs size mismatch");
  } catch (const std::exception& e) {
    finish(*rq, Status::kInvalidInput, std::string("invalid input: ") + e.what());
    return fut;
  }
  rq->fingerprint = matrix_fingerprint(*rq->A);
  // Chaos hook: a forced fingerprint collision (every firing request maps
  // to one key), exercising the pool's operator-identity check.
  if (fault::should_fire("service.fingerprint.collide")) rq->fingerprint = 0;
  rq->report.fingerprint = rq->fingerprint;

  // Chaos hook: deterministic admission rejection (tests/test_service.cpp,
  // bench_service --faults).
  if (fault::should_fire("service.admit")) {
    stats_->rejected.bump();
    finish(*rq, Status::kRejected,
           "fault-injected admission rejection (site service.admit)");
    return fut;
  }
  if (rq->opts.deadline.expired()) {
    finish(*rq, Status::kDeadlineExceeded, "deadline expired before admission");
    return fut;
  }

  enum class Verdict { kAdmit, kStopped, kQueueFull, kShed } verdict;
  std::string note;
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    if (!accepting_) {
      verdict = Verdict::kStopped;
    } else if (queue_.size() >= opts_.queue_capacity) {
      verdict = Verdict::kQueueFull;
      note = "queue full (" + std::to_string(queue_.size()) + "/" +
             std::to_string(opts_.queue_capacity) + ")";
    } else {
      // Deadline-aware load shedding: if the EWMA service time says the
      // requests already ahead of this one will outlast its budget, fail
      // fast now instead of letting it expire in the queue.
      const double ewma = ewma_service_s_.load(std::memory_order_relaxed);
      const double backlog =
          double(queue_.size()) +
          double(in_flight_.load(std::memory_order_relaxed));
      const double est_delay = ewma * backlog / double(opts_.workers);
      if (rq->opts.deadline.bounded() &&
          est_delay > rq->opts.deadline.remaining_s()) {
        verdict = Verdict::kShed;
        note = "load shed: estimated queue delay " + fmt_s(est_delay) +
               " exceeds remaining budget " +
               fmt_s(rq->opts.deadline.remaining_s());
      } else {
        // Graceful degradation: above the fill threshold, admit with a
        // cheaper contract instead of (eventually) rejecting.
        if (double(queue_.size()) >=
            opts_.degrade_queue_fraction * double(opts_.queue_capacity)) {
          const Int old_it = rq->opts.max_iterations;
          const double old_rtol = rq->opts.rtol;
          rq->opts.max_iterations =
              std::min(rq->opts.max_iterations, opts_.degraded_max_iterations);
          rq->opts.rtol = std::max(rq->opts.rtol, opts_.degraded_rtol_floor);
          if (rq->opts.max_iterations != old_it ||
              rq->opts.rtol != old_rtol) {
            rq->report.degraded = true;
            rq->report.events.push_back(
                "degraded on admission (queue " +
                std::to_string(queue_.size()) + "/" +
                std::to_string(opts_.queue_capacity) + "): max_iterations " +
                std::to_string(old_it) + " -> " +
                std::to_string(rq->opts.max_iterations) + ", rtol " +
                fmt_g(old_rtol) + " -> " + fmt_g(rq->opts.rtol));
          }
        }
        queue_.push_back(rq);
        verdict = Verdict::kAdmit;
      }
    }
  }
  switch (verdict) {
    case Verdict::kAdmit:
      stats_->admitted.bump();
      if (rq->report.degraded) stats_->degraded.bump();
      queue_cv_.notify_one();
      publish_gauges();
      break;
    case Verdict::kStopped:
      stats_->rejected.bump();
      finish(*rq, Status::kRejected, "service is not accepting requests");
      break;
    case Verdict::kQueueFull:
      stats_->rejected.bump();
      stats_->queue_full.bump();
      finish(*rq, Status::kRejected, note);
      break;
    case Verdict::kShed:
      stats_->rejected.bump();
      stats_->shed.bump();
      finish(*rq, Status::kRejected, note);
      break;
  }
  return fut;
}

void SolverService::finish(Request& rq, Status status,
                           const std::string& event) {
  if (!event.empty()) rq.report.events.push_back(event);
  rq.report.status = status;
  rq.report.total_seconds = seconds_since(rq.submit_tp);
  if (status == Status::kDeadlineExceeded) stats_->deadline_exceeded.bump();
  if (status == Status::kCircuitOpen) stats_->circuit_open.bump();
  if (status_ok(status))
    stats_->completed_ok.bump();
  else
    stats_->failed.bump();
  // Single-RHS callers read the iterate as a Vector.
  if (rq.report.X.m == 1) rq.report.x = rq.report.X.data;
  rq.promise.set_value(std::move(rq.report));
}

void SolverService::worker_loop() {
  for (;;) {
    std::shared_ptr<Request> rq;
    {
      std::unique_lock<std::mutex> lk(queue_mu_);
      queue_cv_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      rq = std::move(queue_.front());
      queue_.pop_front();
    }
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    publish_gauges();
    process(*rq);
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    publish_gauges();
  }
}

void SolverService::process(Request& rq) {
  TRACE_SPAN("service.request", "phase");
  rq.report.queue_seconds = seconds_since(rq.submit_tp);
  stats_->h_queue_wait_us.observe(
      std::uint64_t(std::max(0.0, rq.report.queue_seconds) * 1e6));
  if (rq.opts.deadline.expired()) {
    finish(rq, Status::kDeadlineExceeded,
           "deadline expired in queue after " + fmt_s(rq.report.queue_seconds));
    return;
  }

  std::shared_ptr<Entry> entry = acquire_entry(rq);
  bool is_probe = false;
  Status breaker_verdict = Status::kOk;
  std::string breaker_note;
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    breaker_verdict = breaker_admit(*entry, &is_probe, &breaker_note);
  }
  if (!breaker_note.empty()) rq.report.events.push_back(breaker_note);
  if (breaker_verdict == Status::kCircuitOpen) {
    finish(rq, Status::kCircuitOpen, "");
    return;
  }

  Status final_status = Status::kUnknown;
  double backoff = opts_.backoff_initial_s;
  for (Int attempt = 1; attempt <= opts_.max_attempts; ++attempt) {
    rq.report.attempts = attempt;
    if (rq.opts.deadline.expired()) {
      final_status = Status::kDeadlineExceeded;
      rq.report.events.push_back("deadline expired before attempt " +
                                 std::to_string(attempt));
      break;
    }
    Status s = Status::kOk;
    {
      // AMGSolver's workspace is per hierarchy: attempts on one entry
      // serialize here. A second request for the same operator blocks
      // during the first one's setup, then sees the built solver: a cache
      // hit. The lock is not held through a retry's backoff.
      std::lock_guard<std::mutex> slk(entry->solve_mu);
      if (attempt == 1) {
        rq.report.cache_hit = (entry->solver != nullptr);
        if (rq.report.cache_hit) stats_->cache_hits.bump();
      }
      if (!entry->solver) {
        TRACE_SPAN("service.setup", "phase");
        try {
          fault::maybe_fail_alloc("service.setup.alloc");
          entry->solver = std::make_unique<AMGSolver>(*entry->A, opts_.amg);
          stats_->setup_builds.bump();
        } catch (const std::exception& e) {
          s = status_from_exception(e);
          rq.report.events.push_back(std::string("setup failed: ") + e.what());
        }
      }
      if (entry->solver) s = run_attempt(rq, *entry->solver);
    }
    final_status = s;
    if (!is_transient(s)) break;
    if (attempt == opts_.max_attempts) {
      rq.report.events.push_back("retry budget exhausted after " +
                                 std::to_string(attempt) + " attempts");
      break;
    }
    stats_->retries.bump();
    double delay = backoff;
    if (rq.opts.deadline.bounded())
      delay = std::min(delay, std::max(0.0, rq.opts.deadline.remaining_s()));
    rq.report.events.push_back(
        "attempt " + std::to_string(attempt) + " failed (" + status_name(s) +
        "): retrying after " + fmt_s(delay) + " backoff");
    if (delay > 0.0)
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    backoff = std::min(backoff * 2.0, opts_.backoff_max_s);
  }

  breaker_record(*entry, is_probe, final_status);
  finish(rq, final_status, "");
}

Status SolverService::run_attempt(Request& rq, AMGSolver& solver) {
  const auto t0 = Deadline::Clock::now();
  Status s = Status::kUnknown;
  try {
    // Clean restart every attempt: a failed attempt may have left NaNs in
    // the iterate, which would poison the retry as an initial guess.
    rq.report.X.resize(rq.B.n, rq.B.m);
    MultiSolveResult mr =
        solver.solve_multi(rq.B, rq.report.X, rq.opts.rtol,
                           rq.opts.max_iterations, rq.opts.deadline);
    rq.report.iterations += mr.iterations;
    rq.report.final_relres = worst_column(mr.final_relres);
    for (auto& e : mr.events) rq.report.events.push_back(std::move(e));
    s = mr.status;
  } catch (const std::exception& e) {
    s = status_from_exception(e);
    rq.report.events.push_back(std::string("solve threw: ") + e.what());
  }
  const double dt = seconds_since(t0);
  rq.report.solve_seconds += dt;
  stats_->h_solve_us.observe(std::uint64_t(std::max(0.0, dt) * 1e6));
  // Benign write race: the EWMA feeds a heuristic shed estimate, not an
  // invariant.
  const double prev = ewma_service_s_.load(std::memory_order_relaxed);
  ewma_service_s_.store(prev == 0.0 ? dt : 0.8 * prev + 0.2 * dt,
                        std::memory_order_relaxed);
  return s;
}

std::shared_ptr<SolverService::Entry> SolverService::acquire_entry(
    Request& rq) {
  std::lock_guard<std::mutex> lk(pool_mu_);
  auto it = pool_.find(rq.fingerprint);
  if (it != pool_.end()) {
    // The fingerprint alone does not prove identity: a hit must be the
    // same operator. A collision is served by a fresh entry that is not
    // cached (the pooled operator keeps its slot and its breaker).
    const CSRMatrix& a = *rq.A;
    const CSRMatrix& cached = *it->second->A;
    if (rq.A == it->second->A ||
        (a.nrows == cached.nrows && a.ncols == cached.ncols &&
         a.rowptr == cached.rowptr && a.colidx == cached.colidx &&
         a.values == cached.values)) {
      it->second->last_used = ++use_seq_;
      return it->second;
    }
    rq.report.events.push_back("fingerprint " + fp_hex(rq.fingerprint) +
                               " collides with a different cached operator:"
                               " solved uncached");
    auto e = std::make_shared<Entry>();
    e->fingerprint = rq.fingerprint;
    e->A = rq.A;
    return e;
  }
  if (pool_.size() >= opts_.max_hierarchies) {
    auto victim = pool_.begin();
    for (auto i = pool_.begin(); i != pool_.end(); ++i)
      if (i->second->last_used < victim->second->last_used) victim = i;
    // In-flight requests keep the evicted entry alive via shared_ptr; it
    // just stops being findable (and takes its breaker history with it).
    stats_->evictions.bump();
    pool_.erase(victim);
  }
  auto e = std::make_shared<Entry>();
  e->fingerprint = rq.fingerprint;
  e->A = rq.A;
  e->last_used = ++use_seq_;
  pool_.emplace(rq.fingerprint, e);
  return e;
}

Status SolverService::breaker_admit(Entry& e, bool* is_probe,
                                    std::string* note) {
  *is_probe = false;
  const auto now = Deadline::Clock::now();
  switch (e.state) {
    case BreakerState::kClosed:
      return Status::kOk;
    case BreakerState::kOpen:
      if (now < e.open_until) {
        *note = "circuit open for operator " + fp_hex(e.fingerprint) +
                ": failing fast";
        return Status::kCircuitOpen;
      }
      e.state = BreakerState::kHalfOpen;
      e.probe_in_flight = true;
      *is_probe = true;
      *note = "circuit half-open: this request is the probe";
      return Status::kOk;
    case BreakerState::kHalfOpen:
      if (e.probe_in_flight) {
        *note = "circuit half-open with a probe already in flight";
        return Status::kCircuitOpen;
      }
      e.probe_in_flight = true;
      *is_probe = true;
      *note = "circuit half-open: this request is the probe";
      return Status::kOk;
  }
  return Status::kOk;
}

void SolverService::breaker_record(Entry& e, bool is_probe, Status outcome) {
  std::lock_guard<std::mutex> lk(pool_mu_);
  if (is_probe) e.probe_in_flight = false;
  if (status_ok(outcome)) {
    e.consecutive_failures = 0;
    e.state = BreakerState::kClosed;
  } else if (is_transient(outcome)) {
    ++e.consecutive_failures;
    const bool trip = e.state == BreakerState::kHalfOpen ||
                      e.consecutive_failures >= opts_.breaker_threshold;
    if (trip) {
      if (e.state != BreakerState::kOpen) stats_->breaker_trips.bump();
      e.state = BreakerState::kOpen;
      e.open_until =
          Deadline::Clock::now() + to_duration(opts_.breaker_cooldown_s);
    }
  } else if (e.state == BreakerState::kHalfOpen) {
    // Breaker-neutral outcome (deadline expiry says nothing about operator
    // health): return to open with the cooldown already elapsed, so the
    // next request becomes a fresh probe immediately.
    e.state = BreakerState::kOpen;
  }
}

void SolverService::publish_gauges() {
  if (!metrics::enabled()) return;
  stats_->g_queue_depth.set_always(double(queue_depth()));
  stats_->g_in_flight.set_always(
      double(in_flight_.load(std::memory_order_relaxed)));
  stats_->g_breakers_open.set_always(double(open_breakers()));
  stats_->g_cached.set_always(double(cached_hierarchies()));
}

ServiceStats SolverService::stats() const {
  ServiceStats s;
  s.submitted = stats_->submitted.value();
  s.admitted = stats_->admitted.value();
  s.rejected = stats_->rejected.value();
  s.queue_full = stats_->queue_full.value();
  s.shed = stats_->shed.value();
  s.deadline_exceeded = stats_->deadline_exceeded.value();
  s.circuit_open = stats_->circuit_open.value();
  s.breaker_trips = stats_->breaker_trips.value();
  s.retries = stats_->retries.value();
  s.degraded = stats_->degraded.value();
  s.completed_ok = stats_->completed_ok.value();
  s.failed = stats_->failed.value();
  s.cache_hits = stats_->cache_hits.value();
  s.setup_builds = stats_->setup_builds.value();
  s.evictions = stats_->evictions.value();
  return s;
}

std::size_t SolverService::queue_depth() const {
  std::lock_guard<std::mutex> lk(queue_mu_);
  return queue_.size();
}

std::size_t SolverService::cached_hierarchies() const {
  std::lock_guard<std::mutex> lk(pool_mu_);
  return pool_.size();
}

std::size_t SolverService::open_breakers() const {
  std::lock_guard<std::mutex> lk(pool_mu_);
  std::size_t n = 0;
  for (const auto& [fp, e] : pool_)
    if (e->state != BreakerState::kClosed) ++n;
  return n;
}

}  // namespace hpamg::service

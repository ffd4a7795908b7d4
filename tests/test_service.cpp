// Chaos suite for the service layer (src/service): deadline expiry in
// every stage (before admission, in queue, mid-V-cycle), queue-full
// rejection, deadline-aware degradation, retry/backoff over injected
// faults, circuit-breaker trip / half-open probe / recovery, hierarchy
// cache hits and LRU eviction, and concurrent mixed traffic. Every
// scenario must resolve every future to a documented Status — never a
// hang, never a stranded promise — and the decision trail must be visible
// in the report's events and the unconditional stats mirror.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "amg/solver.hpp"
#include "gen/stencil.hpp"
#include "krylov/krylov.hpp"
#include "service/service.hpp"
#include "support/deadline.hpp"
#include "support/fault.hpp"
#include "test_util.hpp"

namespace hpamg {
namespace {

using service::RequestOptions;
using service::RequestReport;
using service::ServiceOptions;
using service::SolverService;

/// Armed fault sites must never leak across tests (same discipline as
/// tests/test_resilience.cpp).
class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::reset(); }
  void TearDown() override { fault::reset(); }
};

bool has_event_containing(const RequestReport& r, const std::string& needle) {
  for (const auto& e : r.events)
    if (e.find(needle) != std::string::npos) return true;
  return false;
}

ServiceOptions quick_opts(int workers = 1) {
  ServiceOptions o;
  o.workers = workers;
  o.backoff_initial_s = 0.001;
  o.backoff_max_s = 0.004;
  return o;
}

Vector ones(Int n) { return Vector(std::size_t(n), 1.0); }

// ------------------------------------------------- deadline propagation ----

TEST_F(ServiceTest, DeadlineAlreadyExpiredStopsSolveBeforeFirstCycle) {
  const CSRMatrix A = lap2d_5pt(16, 16);
  AMGSolver solver(A, AMGOptions{});
  Vector b = ones(A.nrows), x(std::size_t(A.nrows), 0.0);
  const SolveResult r = solver.solve(b, x, 1e-8, 100, Deadline::after(-1.0));
  EXPECT_EQ(r.status, Status::kDeadlineExceeded);
  EXPECT_EQ(r.iterations, 0);
  ASSERT_FALSE(r.events.empty());
  EXPECT_NE(r.events.front().find("partial result"), std::string::npos);
}

TEST_F(ServiceTest, DeadlineExpiresMidSolveWithPartialResult) {
  // rtol = 0 is unreachable, so only the deadline can stop this solve —
  // the assertion is termination itself plus the partial-result contract.
  const CSRMatrix A = lap2d_5pt(48, 48);
  AMGSolver solver(A, AMGOptions{});
  Vector b = ones(A.nrows), x(std::size_t(A.nrows), 0.0);
  const SolveResult r =
      solver.solve(b, x, 0.0, 1000000, Deadline::after(0.05));
  EXPECT_EQ(r.status, Status::kDeadlineExceeded);
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(std::isfinite(r.final_relres));
  ASSERT_FALSE(r.events.empty());
}

TEST_F(ServiceTest, DeadlineExpiredStopsMultiRhsSolve) {
  const CSRMatrix A = lap2d_5pt(16, 16);
  AMGSolver solver(A, AMGOptions{});
  MultiVector B(A.nrows, 3), X(A.nrows, 3);
  for (Int i = 0; i < A.nrows; ++i)
    for (Int j = 0; j < 3; ++j) B.at(i, j) = 1.0 + j;
  const MultiSolveResult r =
      solver.solve_multi(B, X, 1e-8, 100, Deadline::after(-1.0));
  EXPECT_EQ(r.status, Status::kDeadlineExceeded);
  EXPECT_EQ(r.iterations, 0);
}

TEST_F(ServiceTest, KrylovDriversHonorExpiredDeadline) {
  const CSRMatrix A = lap2d_5pt(12, 12);
  const Vector b = ones(A.nrows);
  KrylovOptions opt;
  opt.deadline = Deadline::after(-1.0);
  {
    Vector x(std::size_t(A.nrows), 0.0);
    const KrylovResult r = pcg(A, b, x, opt, nullptr);
    EXPECT_EQ(r.status, Status::kDeadlineExceeded);
  }
  {
    Vector x(std::size_t(A.nrows), 0.0);
    const KrylovResult r = gmres(A, b, x, opt, nullptr);
    EXPECT_EQ(r.status, Status::kDeadlineExceeded);
  }
  {
    Vector x(std::size_t(A.nrows), 0.0);
    const KrylovResult r = fgmres(A, b, x, opt, nullptr);
    EXPECT_EQ(r.status, Status::kDeadlineExceeded);
  }
  MultiVector B(A.nrows, 2), X(A.nrows, 2);
  for (Int i = 0; i < A.nrows; ++i)
    for (Int j = 0; j < 2; ++j) B.at(i, j) = 1.0;
  {
    MultiVector X0 = X;
    const BlockKrylovResult r = block_pcg(A, B, X0, opt, nullptr);
    EXPECT_EQ(r.status, Status::kDeadlineExceeded);
  }
  {
    MultiVector X0 = X;
    const BlockKrylovResult r = block_fgmres(A, B, X0, opt, nullptr);
    EXPECT_EQ(r.status, Status::kDeadlineExceeded);
  }
}

// ---------------------------------------------------- admission control ----

TEST_F(ServiceTest, HappyPathSolvesAndReportsCacheMissThenHit) {
  SolverService svc(quick_opts());
  const CSRMatrix A = lap2d_5pt(16, 16);
  RequestOptions ro;
  ro.rtol = 1e-8;
  const RequestReport r1 = svc.submit(A, ones(A.nrows), ro).get();
  EXPECT_EQ(r1.status, Status::kOk);
  EXPECT_FALSE(r1.cache_hit);
  EXPECT_EQ(r1.attempts, 1);
  EXPECT_LT(r1.final_relres, 1e-8);
  EXPECT_EQ(Int(r1.x.size()), A.nrows);

  const RequestReport r2 = svc.submit(A, ones(A.nrows), ro).get();
  EXPECT_EQ(r2.status, Status::kOk);
  EXPECT_TRUE(r2.cache_hit);
  EXPECT_EQ(r2.fingerprint, r1.fingerprint);

  const auto st = svc.stats();
  EXPECT_EQ(st.setup_builds, 1u);
  EXPECT_EQ(st.cache_hits, 1u);
  EXPECT_EQ(st.completed_ok, 2u);
}

TEST_F(ServiceTest, QueueFullRejectsAndStopResolvesEveryFuture) {
  ServiceOptions o = quick_opts();
  o.autostart = false;  // no consumer: the queue state is deterministic
  o.queue_capacity = 2;
  o.degrade_queue_fraction = 10.0;  // never degrade in this test
  SolverService svc(o);
  const CSRMatrix A = lap2d_5pt(8, 8);

  auto f1 = svc.submit(A, ones(A.nrows));
  auto f2 = svc.submit(A, ones(A.nrows));
  auto f3 = svc.submit(A, ones(A.nrows));  // queue holds 2 -> rejected
  const RequestReport r3 = f3.get();
  EXPECT_EQ(r3.status, Status::kRejected);
  EXPECT_TRUE(has_event_containing(r3, "queue full"));

  // Drain-stop with no workers must still fulfill the queued futures.
  svc.stop(true);
  EXPECT_EQ(f1.get().status, Status::kRejected);
  EXPECT_EQ(f2.get().status, Status::kRejected);
  const auto st = svc.stats();
  EXPECT_EQ(st.submitted, 3u);
  EXPECT_EQ(st.queue_full, 1u);
  EXPECT_EQ(st.rejected, 3u);
}

TEST_F(ServiceTest, SubmitAfterStopIsRejected) {
  SolverService svc(quick_opts());
  svc.stop(true);
  const CSRMatrix A = lap2d_5pt(8, 8);
  const RequestReport r = svc.submit(A, ones(A.nrows)).get();
  EXPECT_EQ(r.status, Status::kRejected);
}

TEST_F(ServiceTest, ExpiredDeadlineRejectedAtAdmission) {
  SolverService svc(quick_opts());
  const CSRMatrix A = lap2d_5pt(8, 8);
  RequestOptions ro;
  ro.deadline = Deadline::after(-1.0);
  const RequestReport r = svc.submit(A, ones(A.nrows), ro).get();
  EXPECT_EQ(r.status, Status::kDeadlineExceeded);
  EXPECT_EQ(r.attempts, 0);
  EXPECT_TRUE(has_event_containing(r, "before admission"));
}

TEST_F(ServiceTest, DeadlineExpiresWhileQueuedYieldsDeadlineExceeded) {
  ServiceOptions o = quick_opts();
  o.autostart = false;
  SolverService svc(o);
  const CSRMatrix A = lap2d_5pt(8, 8);
  RequestOptions ro;
  ro.deadline = Deadline::after(0.02);
  auto f = svc.submit(A, ones(A.nrows), ro);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  svc.start();  // the worker dequeues an already-expired request
  const RequestReport r = f.get();
  EXPECT_EQ(r.status, Status::kDeadlineExceeded);
  EXPECT_TRUE(has_event_containing(r, "expired in queue"));
  EXPECT_EQ(svc.stats().deadline_exceeded, 1u);
}

TEST_F(ServiceTest, InvalidInputResolvesImmediately) {
  SolverService svc(quick_opts());
  const CSRMatrix A = lap2d_5pt(8, 8);
  Vector wrong_size(std::size_t(A.nrows) - 1, 1.0);
  const RequestReport r = svc.submit(A, wrong_size).get();
  EXPECT_EQ(r.status, Status::kInvalidInput);
  EXPECT_TRUE(has_event_containing(r, "invalid input"));
}

TEST_F(ServiceTest, AdmissionDegradesUnderQueuePressure) {
  ServiceOptions o = quick_opts();
  o.autostart = false;
  o.queue_capacity = 4;
  o.degrade_queue_fraction = 0.5;  // degrade once 2 of 4 slots are held
  o.degraded_max_iterations = 50;
  o.degraded_rtol_floor = 1e-5;
  SolverService svc(o);
  const CSRMatrix A = lap2d_5pt(12, 12);
  RequestOptions ro;
  ro.rtol = 1e-9;
  auto f1 = svc.submit(A, ones(A.nrows), ro);
  auto f2 = svc.submit(A, ones(A.nrows), ro);
  auto f3 = svc.submit(A, ones(A.nrows), ro);  // queue depth 2 -> degraded
  svc.start();
  const RequestReport r1 = f1.get();
  const RequestReport r3 = f3.get();
  EXPECT_FALSE(r1.degraded);
  EXPECT_TRUE(r3.degraded);
  EXPECT_TRUE(has_event_containing(r3, "degraded on admission"));
  EXPECT_EQ(r3.status, Status::kOk);  // looser contract, still solved
  (void)f2.get();
  EXPECT_EQ(svc.stats().degraded, 1u);
}

// ------------------------------------------------------- fault injection ----

TEST_F(ServiceTest, AdmissionFaultSiteRejectsDeterministically) {
  SolverService svc(quick_opts());
  fault::Schedule once;
  once.count = 1;
  fault::arm("service.admit", once);
  const CSRMatrix A = lap2d_5pt(8, 8);
  const RequestReport r1 = svc.submit(A, ones(A.nrows)).get();
  EXPECT_EQ(r1.status, Status::kRejected);
  EXPECT_TRUE(has_event_containing(r1, "fault-injected"));
  const RequestReport r2 = svc.submit(A, ones(A.nrows)).get();
  EXPECT_EQ(r2.status, Status::kOk);
}

TEST_F(ServiceTest, TransientSetupAllocFailureIsRetried) {
  SolverService svc(quick_opts());
  fault::Schedule once;
  once.count = 1;
  fault::arm("service.setup.alloc", once);
  const CSRMatrix A = lap2d_5pt(12, 12);
  const RequestReport r = svc.submit(A, ones(A.nrows)).get();
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.attempts, 2);
  EXPECT_TRUE(has_event_containing(r, "setup failed"));
  EXPECT_TRUE(has_event_containing(r, "retrying after"));
  EXPECT_EQ(svc.stats().retries, 1u);
}

TEST_F(ServiceTest, PersistentSolveFaultExhaustsRetryBudget) {
  ServiceOptions o = quick_opts();
  o.max_attempts = 2;
  SolverService svc(o);
  fault::arm("amg.solve.poison", {});  // every cycle of every attempt
  const CSRMatrix A = lap2d_5pt(12, 12);
  const RequestReport r = svc.submit(A, ones(A.nrows)).get();
  EXPECT_EQ(r.status, Status::kNonFinite);
  EXPECT_EQ(r.attempts, 2);
  EXPECT_TRUE(has_event_containing(r, "retry budget exhausted"));
  const auto st = svc.stats();
  EXPECT_EQ(st.retries, 1u);
  EXPECT_EQ(st.failed, 1u);
}

// -------------------------------------------------------- circuit breaker ----

TEST_F(ServiceTest, BreakerTripsFailsFastAndRecoversThroughProbe) {
  ServiceOptions o = quick_opts();
  o.max_attempts = 1;
  o.breaker_threshold = 2;
  o.breaker_cooldown_s = 0.05;
  SolverService svc(o);
  const CSRMatrix A = lap2d_5pt(12, 12);

  fault::arm("amg.solve.poison", {});
  EXPECT_EQ(svc.submit(A, ones(A.nrows)).get().status, Status::kNonFinite);
  EXPECT_EQ(svc.submit(A, ones(A.nrows)).get().status, Status::kNonFinite);
  EXPECT_EQ(svc.stats().breaker_trips, 1u);
  EXPECT_EQ(svc.open_breakers(), 1u);

  // Open breaker fails fast without touching the solver.
  const RequestReport fast = svc.submit(A, ones(A.nrows)).get();
  EXPECT_EQ(fast.status, Status::kCircuitOpen);
  EXPECT_TRUE(has_event_containing(fast, "circuit open"));
  EXPECT_EQ(svc.stats().circuit_open, 1u);

  // After the cooldown the next request is the half-open probe; the fault
  // is cleared, so it succeeds and closes the breaker.
  fault::reset();
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  const RequestReport probe = svc.submit(A, ones(A.nrows)).get();
  EXPECT_EQ(probe.status, Status::kOk);
  EXPECT_TRUE(has_event_containing(probe, "probe"));
  EXPECT_EQ(svc.open_breakers(), 0u);
  EXPECT_EQ(svc.submit(A, ones(A.nrows)).get().status, Status::kOk);
}

TEST_F(ServiceTest, FailedProbeReopensBreaker) {
  ServiceOptions o = quick_opts();
  o.max_attempts = 1;
  o.breaker_threshold = 1;
  o.breaker_cooldown_s = 0.03;
  SolverService svc(o);
  const CSRMatrix A = lap2d_5pt(12, 12);

  fault::arm("amg.solve.poison", {});
  EXPECT_EQ(svc.submit(A, ones(A.nrows)).get().status, Status::kNonFinite);
  EXPECT_EQ(svc.stats().breaker_trips, 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Probe runs with the fault still armed and fails: breaker re-opens.
  const RequestReport probe = svc.submit(A, ones(A.nrows)).get();
  EXPECT_EQ(probe.status, Status::kNonFinite);
  EXPECT_EQ(svc.stats().breaker_trips, 2u);
  const RequestReport fast = svc.submit(A, ones(A.nrows)).get();
  EXPECT_EQ(fast.status, Status::kCircuitOpen);
}

// ------------------------------------------------------- pool management ----

TEST_F(ServiceTest, LruEvictionKeepsPoolBounded) {
  ServiceOptions o = quick_opts();
  o.max_hierarchies = 1;
  SolverService svc(o);
  const CSRMatrix A1 = lap2d_5pt(8, 8);
  const CSRMatrix A2 = lap2d_5pt(9, 9);
  EXPECT_EQ(svc.submit(A1, ones(A1.nrows)).get().status, Status::kOk);
  EXPECT_EQ(svc.submit(A2, ones(A2.nrows)).get().status, Status::kOk);
  EXPECT_EQ(svc.cached_hierarchies(), 1u);
  const auto st = svc.stats();
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.setup_builds, 2u);
}

TEST_F(ServiceTest, ForcedFingerprintCollisionSolvesEachOwnOperator) {
  // Both operators map to one pool key; a hit must still be the same
  // operator, so the second is solved against its own A, uncached.
  SolverService svc(quick_opts());
  fault::arm("service.fingerprint.collide", {});
  const CSRMatrix A1 = lap2d_5pt(12, 12);
  CSRMatrix A2 = A1;
  for (double& v : A2.values) v *= 3.0;  // same pattern, other values
  Vector b = ones(A1.nrows);
  for (Int i = 0; i < A1.nrows; ++i) b[std::size_t(i)] += 0.01 * double(i);
  RequestOptions ro;
  ro.rtol = 1e-9;
  const RequestReport r1 = svc.submit(A1, b, ro).get();
  const RequestReport r2 = svc.submit(A2, b, ro).get();
  const RequestReport r1_again = svc.submit(A1, b, ro).get();
  ASSERT_EQ(r1.status, Status::kOk);
  ASSERT_EQ(r2.status, Status::kOk);
  ASSERT_EQ(r1_again.status, Status::kOk);
  EXPECT_EQ(r1.fingerprint, r2.fingerprint);
  EXPECT_LT(test::relative_residual(A1, r1.x, b), 1e-8);
  EXPECT_LT(test::relative_residual(A2, r2.x, b), 1e-8);
  EXPECT_LT(test::relative_residual(A1, r1_again.x, b), 1e-8);
  // The collision is a miss that is not cached; the pooled A1 still hits.
  EXPECT_FALSE(r2.cache_hit);
  EXPECT_TRUE(has_event_containing(r2, "collides"));
  EXPECT_TRUE(r1_again.cache_hit);
  EXPECT_EQ(svc.cached_hierarchies(), 1u);
  EXPECT_EQ(svc.stats().setup_builds, 2u);
}

TEST_F(ServiceTest, BackoffDoesNotHoldTheOperatorLock) {
  // The first request's setup fails once (transient) and it backs off for
  // 2 s. A second request for the same operator, submitted during that
  // backoff, must not wait it out.
  ServiceOptions o = quick_opts(/*workers=*/2);
  o.backoff_initial_s = 2.0;
  o.backoff_max_s = 2.0;
  SolverService svc(o);
  fault::Schedule once;
  once.count = 1;
  fault::arm("service.setup.alloc", once);
  const CSRMatrix A = lap2d_5pt(12, 12);
  const auto t0 = std::chrono::steady_clock::now();
  auto first = svc.submit(A, ones(A.nrows));
  while (svc.stats().retries == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const RequestReport second = svc.submit(A, ones(A.nrows)).get();
  const double waited = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  EXPECT_EQ(second.status, Status::kOk);
  EXPECT_LT(waited, 1.5) << "second request waited out the backoff";
  EXPECT_EQ(first.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  const RequestReport r1 = first.get();
  EXPECT_EQ(r1.status, Status::kOk);
  EXPECT_EQ(r1.attempts, 2);
}

TEST_F(ServiceTest, MultiRhsRequestSolvesAllColumns) {
  SolverService svc(quick_opts());
  const CSRMatrix A = lap2d_5pt(16, 16);
  MultiVector B(A.nrows, 3);
  for (Int i = 0; i < A.nrows; ++i)
    for (Int j = 0; j < 3; ++j) B.at(i, j) = double(j + 1);
  RequestOptions ro;
  ro.rtol = 1e-8;
  const RequestReport r = svc.submit_multi(A, B, ro).get();
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.X.n, A.nrows);
  EXPECT_EQ(r.X.m, 3);
  EXPECT_LT(r.final_relres, 1e-8);
}

// ---------------------------------------------------- concurrent traffic ----

TEST_F(ServiceTest, ConcurrentMixedTrafficResolvesEveryRequest) {
  ServiceOptions o = quick_opts(/*workers=*/4);
  o.queue_capacity = 64;
  SolverService svc(o);
  const CSRMatrix A1 = lap2d_5pt(16, 16);
  const CSRMatrix A2 = lap2d_5pt(20, 20);
  std::vector<std::future<RequestReport>> futs;
  for (int i = 0; i < 16; ++i) {
    const CSRMatrix& A = (i % 2 == 0) ? A1 : A2;
    futs.push_back(svc.submit(A, ones(A.nrows)));
  }
  int ok = 0;
  for (auto& f : futs) {
    const RequestReport r = f.get();  // must terminate: no hangs
    EXPECT_TRUE(status_ok(r.status) || r.status == Status::kRejected)
        << status_name(r.status);
    if (status_ok(r.status)) ++ok;
  }
  EXPECT_GT(ok, 0);
  const auto st = svc.stats();
  EXPECT_EQ(st.submitted, 16u);
  EXPECT_LE(st.setup_builds, 2u + st.evictions);
}

}  // namespace
}  // namespace hpamg

// ThreadSanitizer stress suite. These tests are meaningful in any build
// (they assert functional outcomes), but their real job is to hand TSan
// dense concurrent schedules over every shared structure the solver
// touches from multiple threads:
//   - the metrics / trace / fault registries (find-or-create under a lock,
//     lock-free recording after);
//   - parallel SpMV / hybrid-GS / SpGEMM kernels reading one shared
//     hierarchy from concurrent caller threads;
//   - simmpi multi-rank exchanges, where every rank is a thread and the
//     mailboxes / collectives are the shared state.
// All stress threads here are plain std::threads, which TSan models
// fully. CI runs this binary under -DHPAMG_SANITIZE=thread with
// OMP_NUM_THREADS=1: libgomp's fork-join happens-before is invisible to
// TSan, so multi-thread OMP teams would drown the run in false
// positives (see tsan.supp and EXPERIMENTS.md "ThreadSanitizer pass").
// In the ASan/UBSan matrix entry the same tests run with 4-thread OMP
// teams, so the nested-team schedules stay exercised there.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "amg/hierarchy.hpp"
#include "amg/smoother.hpp"
#include "amg/solver.hpp"
#include "amg/spmv.hpp"
#include "dist/dist_amg.hpp"
#include "dist/dist_krylov.hpp"
#include "dist/dist_matrix.hpp"
#include "dist/halo.hpp"
#include "gen/stencil.hpp"
#include "spgemm/spgemm.hpp"
#include "support/fault.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"
#include "test_util.hpp"

namespace hpamg {
namespace {

constexpr int kThreads = 4;

/// Runs fn(t) on kThreads std::threads and joins them.
void on_threads(const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(fn, t);
  for (auto& th : threads) th.join();
}

// ---- registries ----------------------------------------------------------

TEST(Race, MetricsRegistryConcurrent) {
  metrics::enable();
  metrics::reset();
  // Every thread find-or-creates the same instrument names (racing the
  // registry lock) and hammers the lock-free record paths.
  on_threads([](int t) {
    metrics::Counter& shared = metrics::counter("race.counter");
    metrics::Gauge& g = metrics::gauge("race.gauge");
    metrics::Histogram& h = metrics::histogram("race.hist");
    metrics::Counter& mine =
        metrics::counter("race.counter." + std::to_string(t));
    for (int i = 0; i < 2000; ++i) {
      shared.add(1);
      mine.add(1);
      g.set(double(i));
      h.observe(std::uint64_t(i));
      if (i % 256 == 0) (void)metrics::snapshot();  // reader racing writers
    }
    metrics::MemTagScope scope(metrics::MemTag::kWorkspace);
    std::vector<double, metrics::CountingAllocator<double>> v(128, 0.0);
    v.resize(512);
  });
  EXPECT_EQ(metrics::counter("race.counter").value(), 2000u * kThreads);
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(metrics::counter("race.counter." + std::to_string(t)).value(),
              2000u);
  EXPECT_EQ(metrics::histogram("race.hist").count(), 2000u * kThreads);
  metrics::reset();
  metrics::disable();
}

TEST(Race, TraceRecordingConcurrent) {
  trace::reset();
  trace::enable(4096);
  on_threads([](int t) {
    trace::set_thread_track(0, "host", "racer " + std::to_string(t));
    for (int i = 0; i < 1000; ++i) {
      TRACE_SPAN("race.span", std::int64_t(i));
      trace::instant("race.instant");
      trace::counter("race.counter", "i", i);
      if (i % 100 == 0) {
        const std::uint64_t id = trace::next_flow_id();
        trace::flow_out("race.flow", id, t, 8);
        trace::flow_in("race.flow", id, t, 8);
      }
    }
  });
  trace::disable();
  const trace::TraceStats st = trace::stats();
  EXPECT_GE(st.tracks, std::size_t(kThreads));
  EXPECT_GT(st.recorded, 0u);
  EXPECT_FALSE(trace::export_chrome_json().empty());
  trace::reset();
}

TEST(Race, FaultRegistryConcurrent) {
  fault::reset();
  fault::Schedule everytime;
  fault::arm("race.always", everytime);
  fault::Schedule never;
  never.probability = 0.0;
  fault::arm("race.never", never);
  on_threads([](int t) {
    std::vector<double> v(64, 1.0);
    for (int i = 0; i < 2000; ++i) {
      std::uint64_t draw = 0;
      (void)fault::should_fire("race.always", &draw);
      (void)fault::should_fire("race.never");
      fault::maybe_poison("race.never", v.data(), v.size());
      if (t == 0 && i % 500 == 0) fault::arm("race.rearmed");  // racing arm
      (void)fault::hits("race.always");
    }
  });
  EXPECT_EQ(fault::hits("race.always"), std::uint64_t(2000) * kThreads);
  EXPECT_EQ(fault::fires("race.never"), 0u);
  fault::reset();
  EXPECT_FALSE(fault::enabled());
}

// ---- shared-hierarchy kernels --------------------------------------------

TEST(Race, SharedHierarchyKernelsConcurrent) {
  const CSRMatrix A = lap2d_5pt(40, 40);
  AMGOptions opts;
  opts.variant = Variant::kOptimized;
  const Hierarchy h = build_hierarchy(A, opts);
  ASSERT_GE(h.num_levels(), 2);
  const Level& L = h.levels[0];
  const HybridGSBaseline gs(A);
  const Vector ones(std::size_t(A.nrows), 1.0);

  // Concurrent read-only kernels over one shared hierarchy; every thread
  // owns its outputs. The kernels' internal `#pragma omp parallel` teams
  // nest under these caller threads, which is exactly the shape of a
  // multi-rank solve (one OpenMP team per simmpi rank thread).
  std::atomic<int> failures{0};
  on_threads([&](int t) {
    Vector y(std::size_t(A.nrows), 0.0), r(std::size_t(A.nrows), 0.0);
    Vector x(std::size_t(A.nrows), 0.0), tmp(std::size_t(A.nrows), 0.0);
    for (int round = 0; round < 3; ++round) {
      spmv(A, ones, y);
      const double rr = spmv_residual_norm2sq_fused(A, x, ones, r);
      if (!(rr > 0.0)) failures.fetch_add(1);
      gs.sweep(A, ones, x, tmp, /*forward=*/(t % 2 == 0));
      jacobi_sweep(A, ones, x, tmp);
      if (L.PfT.nrows > 0) {
        Vector e(std::size_t(L.nc), 1.0), xt(std::size_t(L.n), 0.0);
        Vector rc(std::size_t(L.nc), 0.0);
        interp_add_identity_block(L.Pf, e, xt, L.nc);
        restrict_identity_block(L.PfT, y, rc, L.nc);
      }
      const CSRMatrix AA = spgemm_twopass(A, A);
      if (AA.nrows != A.nrows) failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(Race, SolveWithInstrumentationConcurrent) {
  // End-to-end single-node solves on separate solver instances, with every
  // always-compiled instrumentation layer live, racing a trace/metrics
  // reader thread. Covers the instrumented OpenMP kernels (SpMV, GS,
  // SpGEMM inside setup) under the exact run-level switches benches use.
  metrics::enable();
  trace::reset();
  trace::enable(8192);
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      (void)metrics::snapshot();
      (void)trace::stats();
      std::this_thread::yield();
    }
  });
  on_threads([](int) {
    const CSRMatrix A = lap2d_5pt(24, 24);
    AMGOptions opts;
    opts.variant = Variant::kOptimized;
    AMGSolver solver(A, opts);
    Vector b(std::size_t(A.nrows), 1.0), x(std::size_t(A.nrows), 0.0);
    const SolveResult res = solver.solve(b, x, 1e-8, 60);
    EXPECT_TRUE(status_ok(res.status)) << status_name(res.status);
  });
  done.store(true);
  reader.join();
  trace::disable();
  trace::reset();
  metrics::disable();
}

// ---- simmpi multi-rank ---------------------------------------------------

TEST(Race, SimmpiExchangeManyRounds) {
  // Four rank-threads hammer the mailboxes: point-to-point ring traffic,
  // halo exchanges on a shared-by-construction pattern, and interleaved
  // collectives. Message payloads vary per round so delivery races would
  // surface as wrong sums, and TSan watches the mailbox internals.
  const CSRMatrix A = lap2d_5pt(18, 17);
  simmpi::run(4, [&](simmpi::Comm& c) {
    DistMatrix dA = distribute_csr(c, A);
    HaloExchange halo(c, dA.colmap, dA.row_starts, true);
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    for (int round = 0; round < 50; ++round) {
      std::vector<Long> payload(16, Long(c.rank() + round));
      c.send_vec(next, 7600, payload);
      const std::vector<Long> got = c.recv_vec<Long>(prev, 7600);
      ASSERT_EQ(got.size(), payload.size());
      EXPECT_EQ(got[0], Long(prev + round));

      Vector x(std::size_t(dA.local_rows()), double(round));
      Vector x_ext;
      halo.exchange(x, x_ext);
      const double sum = c.allreduce_sum(double(c.rank()));
      EXPECT_EQ(sum, 6.0);
      if (round % 10 == 0) c.barrier();
    }
  });
}

TEST(Race, SimmpiDistributedSolve) {
  // Full distributed pipeline on 4 rank-threads with instrumentation on:
  // setup (coarsen/interp/RAP exchanges), FGMRES solve (halo + allreduce
  // per iteration), teardown. With OMP_NUM_THREADS >= 4 each rank's
  // kernels also spawn OpenMP teams, so rank-level and team-level
  // parallelism overlap — the paper's node x core decomposition. Tracing
  // is on too, so every rank's probes emit spans concurrently.
  metrics::enable();
  trace::reset();
  trace::enable();
  const CSRMatrix A = lap2d_5pt(26, 26);
  simmpi::run(4, [&](simmpi::Comm& c) {
    DistMatrix dA = distribute_csr(c, A);
    DistHierarchy dh = dist_amg_setup(c, dA, DistAMGOptions{});
    Vector b(std::size_t(dA.local_rows()), 1.0);
    Vector x(std::size_t(dA.local_rows()), 0.0);
    const DistSolveResult res = dist_fgmres(c, dA, dh, b, x, 1e-8, 40, 20);
    EXPECT_TRUE(status_ok(res.status)) << status_name(res.status);
  });
  trace::disable();
  EXPECT_GT(trace::stats().recorded, 0u);
  trace::reset();
  metrics::disable();
  metrics::reset();
}

}  // namespace
}  // namespace hpamg

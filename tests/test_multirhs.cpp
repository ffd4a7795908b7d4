// Multi-RHS batched solving: bitwise equivalence of the batched kernels
// (SpMV, smoothers, V-cycle, standalone solve) against m independent
// scalar runs, block-Krylov convergence per column, the aliasing
// precondition added to the fused kernels, the batched halo exchange, the
// empty-boundary zero-length-send fix, and the --repeat metrics-envelope
// regression.
#include <gtest/gtest.h>

#include <omp.h>

#include <cmath>
#include <vector>

#include "amg/cycle.hpp"
#include "amg/multivector.hpp"
#include "amg/smoother.hpp"
#include "amg/solver.hpp"
#include "amg/spmv.hpp"
#include "bench_util.hpp"
#include "dist/dist_amg.hpp"
#include "dist/dist_matrix.hpp"
#include "dist/halo.hpp"
#include "dist/simmpi.hpp"
#include "gen/graph.hpp"
#include "gen/stencil.hpp"
#include "krylov/krylov.hpp"
#include "support/check.hpp"
#include "support/fault.hpp"
#include "support/metrics.hpp"
#include "test_util.hpp"

namespace hpamg {
namespace {

using test::random_spd;

/// Distinct deterministic columns so no two RHS are parallel.
MultiVector make_multi(Int n, Int m, double phase = 0.0) {
  MultiVector X(n, m);
  for (Int i = 0; i < n; ++i)
    for (Int j = 0; j < m; ++j)
      X.at(i, j) = std::sin(0.1 * double(i) + double(j) + phase) +
                   0.01 * double(j + 1);
  return X;
}

Vector column_of(const MultiVector& X, Int j) {
  Vector v(X.n);
  for (Int i = 0; i < X.n; ++i) v[i] = X.at(i, j);
  return v;
}

// ------------------------------------------------------- multivector ops ---

TEST(MultiVector, ColumnBlas1) {
  MultiVector X = make_multi(40, 3), Y = make_multi(40, 3, 1.0);
  const MultiVector Y0 = Y;
  const std::vector<double> alpha = {2.0, -1.0, 0.0};
  block::axpy<0>(alpha.data(), X.data.data(), Y.data.data(), 40, 3, nullptr,
                 nullptr);  // Y_j += alpha_j X_j
  for (Int i = 0; i < 40; ++i)
    for (Int j = 0; j < 3; ++j)
      EXPECT_DOUBLE_EQ(Y.at(i, j), Y0.at(i, j) + alpha[j] * X.at(i, j));
  // xpby with a live mask: frozen column 1 keeps its values.
  const std::vector<double> beta = {0.5, 9.0, -2.0};
  const std::vector<char> live = {1, 0, 1};
  MultiVector P = Y0;
  block::xpby<0>(X.data.data(), beta.data(), P.data.data(), 40, 3,
                 live.data(), nullptr);
  for (Int i = 0; i < 40; ++i) {
    EXPECT_DOUBLE_EQ(P.at(i, 0), X.at(i, 0) + 0.5 * Y0.at(i, 0));
    EXPECT_EQ(P.at(i, 1), Y0.at(i, 1));
  }

  std::vector<double> d(3);
  block::dot<0>(X.data.data(), X.data.data(), 40, 3, d.data(), nullptr);
  for (Int j = 0; j < 3; ++j) {
    const Vector c = column_of(X, j);
    double ref = 0.0;
    for (double v : c) ref += v * v;
    EXPECT_NEAR(d[j], ref, 1e-12 * std::abs(ref));
    // The m = 1 instance on the column alone adds the same partials.
    double d1 = 0.0;
    block::dot<1>(c.data(), c.data(), 40, 1, &d1, nullptr);
    EXPECT_EQ(d1, d[j]);
  }
}

// -------------------------------------------------------- batched kernels ---

class BatchedKernels : public ::testing::TestWithParam<Int> {};

TEST_P(BatchedKernels, SpmvBitwiseMatchesScalarColumns) {
  const Int m = GetParam();
  for (const CSRMatrix& A :
       {lap3d_27pt(6, 6, 6), thermal_like(14, 14)}) {
    const MultiVector X = make_multi(A.nrows, m);
    const MultiVector B = make_multi(A.nrows, m, 2.0);
    MultiVector Y(A.nrows, m), R(A.nrows, m), Rf(A.nrows, m);
    std::vector<double> norms(std::size_t(m), 0.0);
    with_width(m, [&]<int M>() {
      block::spmv<M>(A, X.data.data(), Y.data.data(), m, nullptr);
      block::spmv_residual<M>(A, X.data.data(), B.data.data(), R.data.data(),
                              m, nullptr);
      block::spmv_residual_norms<M>(A, X.data.data(), B.data.data(),
                                    Rf.data.data(), m, norms.data(), nullptr);
    });
    for (Int j = 0; j < m; ++j) {
      const Vector xj = column_of(X, j), bj = column_of(B, j);
      Vector yj(A.nrows), rj(A.nrows), rfj(A.nrows);
      spmv(A, xj, yj);
      spmv_residual(A, xj, bj, rj);
      const double n2 = spmv_residual_norm2sq_fused(A, xj, bj, rfj);
      for (Int i = 0; i < A.nrows; ++i) {
        ASSERT_EQ(Y.at(i, j), yj[i]) << "spmv col " << j << " row " << i;
        ASSERT_EQ(R.at(i, j), rj[i]);
        ASSERT_EQ(Rf.at(i, j), rfj[i]);
      }
      // Thread partials are added in thread-index order in both widths.
      EXPECT_EQ(norms[j], n2);
    }
  }
}

TEST_P(BatchedKernels, InterpRestrictBitwiseMatchesScalarColumns) {
  const Int m = GetParam();
  const Int nc = 30, nf = 50, n = nc + nf;
  CSRMatrix Pf = test::random_sparse(nf, nc, 3, 99);
  CSRMatrix PfT = test::random_sparse(nc, nf, 3, 98);
  const MultiVector E = make_multi(nc, m);
  const MultiVector Rfine = make_multi(n, m, 3.0);
  MultiVector X = make_multi(n, m, 1.0), Rc(nc, m);
  MultiVector X_ref = X;
  with_width(m, [&]<int M>() {
    block::interp_add_identity<M>(Pf, E.data.data(), X.data.data(), nc, m,
                                  nullptr);
    block::restrict_identity<M>(PfT, Rfine.data.data(), Rc.data.data(), nc,
                                m, nullptr);
  });
  for (Int j = 0; j < m; ++j) {
    Vector xj = column_of(X_ref, j), rcj(nc);
    interp_add_identity_block(Pf, column_of(E, j), xj, nc);
    restrict_identity_block(PfT, column_of(Rfine, j), rcj, nc);
    for (Int i = 0; i < n; ++i) ASSERT_EQ(X.at(i, j), xj[i]);
    for (Int i = 0; i < nc; ++i) ASSERT_EQ(Rc.at(i, j), rcj[i]);
  }
}

TEST_P(BatchedKernels, SmoothersBitwiseMatchScalarColumns) {
  const Int m = GetParam();
  for (const CSRMatrix& A :
       {lap3d_27pt(5, 5, 5), circuit_like(12, 12)}) {
    CSRMatrix As = A;
    As.sort_rows();
    HybridGSOptimized gs(As, 4);
    MultiVector B = make_multi(As.nrows, m);
    MultiVector X = make_multi(As.nrows, m, 1.0);
    // Jacobi.
    MultiVector Xjac = X, Tjac(As.nrows, m);
    with_width(m, [&]<int M>() {
      block::jacobi_sweep<M>(As, B.data.data(), Xjac.data.data(),
                             Tjac.data.data(), m, 2.0 / 3.0, 0, -1, nullptr);
    });
    for (Int j = 0; j < m; ++j) {
      Vector xj = column_of(X, j), tj(As.nrows);
      jacobi_sweep(As, column_of(B, j), xj, tj);
      for (Int i = 0; i < As.nrows; ++i) ASSERT_EQ(Xjac.at(i, j), xj[i]);
    }
    // Hybrid GS forward, backward, and zero-init.
    for (const bool forward : {true, false}) {
      MultiVector Xgs = X, Tgs(As.nrows, m);
      with_width(m, [&]<int M>() {
        gs.sweep_block<M>(B.data.data(), Xgs.data.data(), Tgs.data.data(), m,
                          0, As.nrows, forward, false, nullptr);
      });
      for (Int j = 0; j < m; ++j) {
        Vector xj = column_of(X, j), tj(As.nrows);
        gs.sweep(column_of(B, j), xj, tj, 0, As.nrows, forward);
        for (Int i = 0; i < As.nrows; ++i) ASSERT_EQ(Xgs.at(i, j), xj[i]);
      }
    }
    MultiVector Xz(As.nrows, m), Tz(As.nrows, m);
    with_width(m, [&]<int M>() {
      gs.sweep_block<M>(B.data.data(), Xz.data.data(), Tz.data.data(), m, 0,
                        As.nrows, true, /*zero_init=*/true, nullptr);
    });
    for (Int j = 0; j < m; ++j) {
      Vector xj(As.nrows, 0.0), tj(As.nrows);
      gs.sweep(column_of(B, j), xj, tj, 0, As.nrows, true, true);
      for (Int i = 0; i < As.nrows; ++i) ASSERT_EQ(Xz.at(i, j), xj[i]);
    }
  }
}

TEST_P(BatchedKernels, VcycleBitwiseMatchesScalarColumns) {
  const Int m = GetParam();
  for (const Variant v : {Variant::kOptimized, Variant::kBaseline}) {
    for (const CSRMatrix& A :
         {lap3d_27pt(6, 6, 6), thermal_like(16, 16)}) {
      AMGOptions o;
      o.variant = v;
      o.gs_partitions = 4;
      Hierarchy h = build_hierarchy(A, o);
      const MultiVector B = make_multi(A.nrows, m);
      MultiVector X(A.nrows, m);
      vcycle_multi(h, B, X);
      // The single-column references run on one thread: a V-cycle has no
      // reductions and the hybrid-GS partitions are pinned, so its result
      // does not depend on the thread count (and m serial cycles stay cheap
      // on a loaded host).
      const int saved = omp_get_max_threads();
      omp_set_num_threads(1);
      for (Int j = 0; j < m; ++j) {
        Vector xj(A.nrows, 0.0);
        vcycle(h, column_of(B, j), xj);
        for (Int i = 0; i < A.nrows; ++i)
          ASSERT_EQ(X.at(i, j), xj[i])
              << "variant " << int(v) << " col " << j << " row " << i;
      }
      omp_set_num_threads(saved);
    }
  }
}

// 33 > kMaxRhsBlock: the column-block split is checked against m = 1 too.
INSTANTIATE_TEST_SUITE_P(Widths, BatchedKernels,
                         ::testing::Values<Int>(1, 3, 8, 33));

TEST(MultiWorkspace, SizedPerLevelAndIdempotent) {
  CSRMatrix A = lap3d_27pt(6, 6, 6);
  Hierarchy h = build_hierarchy(A, AMGOptions{});
  // Setup sizes the one per-level workspace for a single column.
  for (const Level& L : h.levels) {
    EXPECT_EQ(Int(L.b.size()), L.n);
    EXPECT_EQ(Int(L.rc_pre.size()), std::max<Int>(L.nc, 1));
  }
  ensure_multi_workspace(h, 5);
  for (const Level& L : h.levels) {
    for (const Vector* v : {&L.b, &L.x, &L.temp, &L.r})
      EXPECT_EQ(Int(v->size()), 5 * L.n);
    EXPECT_EQ(Int(L.rc_pre.size()), 5 * std::max<Int>(L.nc, 1));
  }
  // Grown to the widest m seen: the same or a narrower width reallocates
  // nothing, and a single-column cycle runs on the wide workspace.
  const double* before = h.levels[0].b.data();
  ensure_multi_workspace(h, 5);
  ensure_multi_workspace(h, 2);
  EXPECT_EQ(h.levels[0].b.data(), before);
  EXPECT_EQ(Int(h.levels[0].b.size()), 5 * h.levels[0].n);
  const Vector b(A.nrows, 1.0);
  Vector x(A.nrows, 0.0), x_fresh(A.nrows, 0.0);
  vcycle(h, b, x);
  Hierarchy fresh = build_hierarchy(A, AMGOptions{});
  vcycle(fresh, b, x_fresh);
  for (Int i = 0; i < A.nrows; ++i) ASSERT_EQ(x[i], x_fresh[i]);
}

// ------------------------------------------------------- solve_multi -------

TEST(SolveMulti, ColumnsBitwiseEqualSingleColumnSolves) {
  CSRMatrix A = lap3d_27pt(7, 7, 7);
  AMGSolver amg(A, AMGOptions{});
  const Int m = 3;
  const MultiVector B = make_multi(A.nrows, m);
  MultiVector X(A.nrows, m);
  // rtol tiny so both runs do exactly max_iterations cycles.
  const MultiSolveResult sr = amg.solve_multi(B, X, 1e-30, 5);
  EXPECT_EQ(sr.iterations, 5);
  for (Int j = 0; j < m; ++j) {
    MultiVector Bj(A.nrows, 1), Xj(A.nrows, 1);
    Bj.data = column_of(B, j);
    const MultiSolveResult s1 = amg.solve_multi(Bj, Xj, 1e-30, 5);
    EXPECT_EQ(s1.iterations, 5);
    for (Int i = 0; i < A.nrows; ++i) ASSERT_EQ(X.at(i, j), Xj.at(i, 0));
  }
}

TEST(SolveMulti, ConvergesEveryColumn) {
  CSRMatrix A = lap3d_27pt(8, 8, 8);
  AMGSolver amg(A, AMGOptions{});
  const Int m = 4;
  const MultiVector B = make_multi(A.nrows, m);
  MultiVector X(A.nrows, m);
  const MultiSolveResult sr = amg.solve_multi(B, X, 1e-8, 100);
  ASSERT_TRUE(sr.converged) << status_name(sr.status);
  ASSERT_EQ(Int(sr.final_relres.size()), m);
  for (Int j = 0; j < m; ++j) {
    EXPECT_LE(sr.final_relres[j], 1e-8);
    EXPECT_GE(sr.col_iterations[j], 0);
    EXPECT_LE(test::relative_residual(A, column_of(X, j), column_of(B, j)),
              1e-7);
  }
}

TEST(SolveMulti, PoisonedBatchRecoversLikeScalarSolve) {
  // The batched solve shares the scalar solve's scrub-and-restart loop: a
  // one-off NaN in the iterate is absorbed by restoring the last good
  // snapshot, judged on the worst column.
  CSRMatrix A = lap3d_27pt(8, 8, 8);
  AMGSolver amg(A, AMGOptions{});
  const Int m = 3;
  const MultiVector B = make_multi(A.nrows, m);
  MultiVector X(A.nrows, m);
  fault::reset();
  fault::Schedule once;
  once.after_n = 2;
  once.count = 1;
  fault::arm("amg.solve.poison", once);
  const MultiSolveResult sr = amg.solve_multi(B, X, 1e-8, 100);
  fault::reset();
  EXPECT_EQ(sr.status, Status::kRecovered) << status_name(sr.status);
  EXPECT_TRUE(sr.converged);
  EXPECT_EQ(sr.recoveries, 1);
  EXPECT_GE(sr.nonfinite_iteration, 1);
  for (Int j = 0; j < m; ++j)
    EXPECT_LE(test::relative_residual(A, column_of(X, j), column_of(B, j)),
              1e-7);
}

TEST(SolveMulti, DeterministicAcrossRunsAtFourThreads) {
  // Column reductions add the thread partials in thread-index order, so the
  // same batched solve is bitwise-repeatable whatever the scheduling.
  CSRMatrix A = lap3d_27pt(8, 8, 8);
  AMGSolver amg(A, AMGOptions{});
  const Int m = 4;
  const MultiVector B = make_multi(A.nrows, m);
  const int saved = omp_get_max_threads();
#if !defined(__SANITIZE_THREAD__)
  // TSan runs keep OpenMP teams serialized: libgomp's fork-join edges are
  // invisible to it (tsan.supp).
  omp_set_num_threads(4);
#endif
  MultiSolveResult first;
  for (int run = 0; run < 10; ++run) {
    MultiVector X(A.nrows, m);
    const MultiSolveResult sr = amg.solve_multi(B, X, 1e-8, 100);
    ASSERT_TRUE(sr.converged);
    if (run == 0) {
      first = sr;
      continue;
    }
    EXPECT_EQ(sr.iterations, first.iterations);
    ASSERT_EQ(sr.final_relres.size(), first.final_relres.size());
    for (Int j = 0; j < m; ++j)
      EXPECT_EQ(sr.final_relres[j], first.final_relres[j]) << "run " << run;
  }
  omp_set_num_threads(saved);
}

// ------------------------------------------------------- block Krylov ------

TEST(BlockCG, MatchesScalarCgPerColumn) {
  CSRMatrix A = lap3d_27pt(7, 7, 7);
  const Int m = 3;
  const MultiVector B = make_multi(A.nrows, m);
  MultiVector X(A.nrows, m);
  KrylovOptions opt;
  opt.rtol = 1e-9;
  opt.max_iterations = 400;
  const BlockKrylovResult br = block_pcg(A, B, X, opt);
  ASSERT_TRUE(br.converged) << status_name(br.status);
  for (Int j = 0; j < m; ++j) {
    Vector bj = column_of(B, j), xj(A.nrows, 0.0);
    const KrylovResult sr = pcg(A, bj, xj, opt);
    ASSERT_TRUE(sr.converged);
    // Column recurrences are mathematically identical to scalar CG; the
    // iteration counts agree up to reduction rounding.
    EXPECT_NEAR(double(br.col_iterations[j]), double(sr.iterations), 2.0);
    EXPECT_LE(test::relative_residual(A, column_of(X, j), bj), 1e-8);
  }
}

TEST(BlockCG, PreconditionedConvergesFaster) {
  CSRMatrix A = lap3d_27pt(8, 8, 8);
  AMGSolver amg(A, AMGOptions{});
  const Int m = 4;
  const MultiVector B = make_multi(A.nrows, m);
  KrylovOptions opt;
  opt.rtol = 1e-8;
  opt.max_iterations = 200;
  MultiVector Xp(A.nrows, m), Xu(A.nrows, m);
  const BlockKrylovResult plain = block_pcg(A, B, Xu, opt);
  const BlockKrylovResult pre = block_pcg(
      A, B, Xp, opt,
      [&](const MultiVector& R, MultiVector& Z) {
        amg.precondition_multi(R, Z);
      });
  ASSERT_TRUE(pre.converged) << status_name(pre.status);
  ASSERT_TRUE(plain.converged);
  EXPECT_LT(pre.iterations, plain.iterations);
  for (Int j = 0; j < m; ++j)
    EXPECT_LE(test::relative_residual(A, column_of(Xp, j), column_of(B, j)),
              1e-7);
}

TEST(BlockFgmres, ConvergesEveryColumnWithAmgPrecond) {
  CSRMatrix A = lap3d_27pt(7, 7, 7);
  AMGSolver amg(A, AMGOptions{});
  const Int m = 3;
  const MultiVector B = make_multi(A.nrows, m);
  MultiVector X(A.nrows, m);
  KrylovOptions opt;
  opt.rtol = 1e-9;
  opt.max_iterations = 100;
  opt.restart = 20;
  const BlockKrylovResult br = block_fgmres(
      A, B, X, opt,
      [&](const MultiVector& R, MultiVector& Z) {
        amg.precondition_multi(R, Z);
      });
  ASSERT_TRUE(br.converged) << status_name(br.status);
  for (Int j = 0; j < m; ++j) {
    EXPECT_LE(br.final_relres[j], 1e-9);
    EXPECT_LE(test::relative_residual(A, column_of(X, j), column_of(B, j)),
              1e-8);
  }
}

// ------------------------------------------------- aliasing precondition ---

TEST(Aliasing, DistinctBuffersValidator) {
  double a = 0.0, b = 0.0;
  EXPECT_EQ(check::distinct_buffers(&a, &b, "k"), Status::kOk);
  EXPECT_EQ(check::distinct_buffers(nullptr, nullptr, "k"), Status::kOk);
  EXPECT_EQ(check::distinct_buffers(&a, &a, "k"), Status::kInvalidInput);
  EXPECT_NE(check::last_error().find("aliases"), std::string::npos);
}

TEST(Aliasing, FusedKernelsRejectOutAliasingX) {
  if (!check::kCompiled || !check::active(check::Depth::kCheap))
    GTEST_SKIP() << "HPAMG_CHECK not compiled/enabled";
  CSRMatrix A = lap2d_5pt(8, 8);
  Vector x(A.nrows, 1.0), b(A.nrows, 1.0);
  EXPECT_THROW(spmv(A, x, x), SolverError);
  EXPECT_THROW(spmv_residual(A, x, b, x), SolverError);
  EXPECT_THROW(spmv_residual_norm2sq_fused(A, x, b, x), SolverError);
  // r aliasing b is part of the contract and must keep working.
  Vector r = b;
  Vector x2(A.nrows, 0.5);
  EXPECT_NO_THROW(spmv_residual(A, x2, r, r));
  MultiVector X = make_multi(A.nrows, 2), Bm = make_multi(A.nrows, 2, 1.0);
  std::vector<double> norms(2);
  double* xp = X.data.data();
  EXPECT_THROW(block::spmv<0>(A, xp, xp, 2, nullptr), SolverError);
  EXPECT_THROW(block::spmv_residual_norms<0>(A, xp, Bm.data.data(), xp, 2,
                                             norms.data(), nullptr),
               SolverError);
}

// ------------------------------------------------------- batched halo ------

TEST(HaloMulti, ExchangeMatchesScalarPerColumn) {
  CSRMatrix A = lap2d_5pt(12, 12);
  simmpi::run(4, [&](simmpi::Comm& c) {
    DistMatrix dA = distribute_csr(c, A);
    HaloExchange halo(c, dA.colmap, dA.row_starts, true);
    const Int m = 3, n = dA.local_rows();
    MultiVector x(n, m);
    for (Int i = 0; i < n; ++i)
      for (Int j = 0; j < m; ++j)
        x.at(i, j) = double(dA.first_row() + i) * 1.5 + 100.0 * double(j);
    const std::uint64_t msgs_before = c.stats().messages_sent;
    MultiVector ext;
    halo.exchange(x, ext);
    // One message per send peer, independent of m.
    const std::uint64_t multi_msgs = c.stats().messages_sent - msgs_before;
    ASSERT_EQ(Int(ext.n), Int(dA.colmap.size()));
    for (std::size_t k = 0; k < dA.colmap.size(); ++k)
      for (Int j = 0; j < m; ++j)
        EXPECT_DOUBLE_EQ(ext.at(Int(k), j),
                         double(dA.colmap[k]) * 1.5 + 100.0 * double(j));
    // Scalar exchange of column 0 posts the same number of messages: the
    // batched path costs 1/m messages per RHS.
    Vector x0(n), ext0;
    for (Int i = 0; i < n; ++i) x0[i] = x.at(i, 0);
    const std::uint64_t before0 = c.stats().messages_sent;
    halo.exchange(x0, ext0);
    EXPECT_EQ(c.stats().messages_sent - before0, multi_msgs);
    for (std::size_t k = 0; k < dA.colmap.size(); ++k)
      EXPECT_EQ(ext0[k], ext.at(Int(k), 0));
  });
}

TEST(HaloMulti, DistSpmvBlockMatchesScalar) {
  CSRMatrix A = lap3d_27pt(5, 5, 5);
  simmpi::run(3, [&](simmpi::Comm& c) {
    DistMatrix dA = distribute_csr(c, A);
    HaloExchange halo(c, dA.colmap, dA.row_starts, true);
    const Int m = 4, n = dA.local_rows();
    MultiVector X(n, m);
    for (Int i = 0; i < n; ++i)
      for (Int j = 0; j < m; ++j)
        X.at(i, j) = std::sin(double(dA.first_row() + i) + double(j));
    MultiVector X_ext, Y;
    dist_spmv(c, dA, halo, X, X_ext, Y);
    for (Int j = 0; j < m; ++j) {
      Vector xj(n), x_ext, yj;
      for (Int i = 0; i < n; ++i) xj[i] = X.at(i, j);
      dist_spmv(c, dA, halo, xj, x_ext, yj);
      for (Int i = 0; i < n; ++i) ASSERT_EQ(Y.at(i, j), yj[i]);
    }
  });
}

// --------------------------------------- empty-boundary zero-length sends ---

TEST(HaloEmpty, NoMessagesForEmptyBoundarySets) {
  // Ranks with nothing to exchange must not post point-to-point messages:
  // the count handshake is a collective, and zero-length sends previously
  // polluted per-peer CommStats and the zero bucket of the message-size
  // histogram.
  simmpi::run(4, [&](simmpi::Comm& c) {
    std::vector<Long> starts = {0, 10, 20, 30, 40};
    std::vector<Long> colmap;  // every rank: empty boundary
    const std::uint64_t msgs_before = c.stats().messages_sent;
    HaloExchange h(c, colmap, starts, true);
    EXPECT_EQ(h.check_symmetry(), Status::kOk) << check::last_error();
    Vector x(10, 1.0), ext;
    h.exchange(x, ext);
    MultiVector xm(10, 3), extm;
    h.exchange(xm, extm);
    EXPECT_EQ(c.stats().messages_sent, msgs_before);
    EXPECT_EQ(c.stats().bytes_sent, 0u);
    for (const simmpi::PeerTraffic& p : c.stats().per_peer) {
      EXPECT_EQ(p.messages, 0u);
      EXPECT_EQ(p.size_hist[0], 0u);  // no zero-byte artifacts
    }
  });
}

TEST(HaloEmpty, MixedPatternPostsNoZeroLengthSends) {
  // 3 ranks; only ranks 0<->1 share a boundary. Rank 2 is isolated and
  // must stay silent; no rank ever records a zero-byte message.
  simmpi::run(3, [&](simmpi::Comm& c) {
    std::vector<Long> starts = {0, 10, 20, 30};
    std::vector<Long> colmap;
    if (c.rank() == 0) colmap = {10, 11};
    if (c.rank() == 1) colmap = {8, 9};
    HaloExchange h(c, colmap, starts, false);
    EXPECT_EQ(h.check_symmetry(), Status::kOk) << check::last_error();
    Vector x(10);
    for (Int i = 0; i < 10; ++i) x[i] = double(c.rank() * 10 + i);
    Vector ext;
    h.exchange(x, ext);
    for (std::size_t k = 0; k < colmap.size(); ++k)
      EXPECT_DOUBLE_EQ(ext[k], double(colmap[k]));
    if (c.rank() == 2) EXPECT_EQ(c.stats().messages_sent, 0u);
    for (const simmpi::PeerTraffic& p : c.stats().per_peer)
      EXPECT_EQ(p.size_hist[0], 0u);
  });
}

TEST(Alltoall, PersonalizedExchange) {
  simmpi::run(4, [&](simmpi::Comm& c) {
    std::vector<Long> send(4);
    for (int r = 0; r < 4; ++r) send[r] = Long(c.rank() * 10 + r);
    const std::vector<Long> got = c.alltoall(send);
    ASSERT_EQ(got.size(), 4u);
    for (int r = 0; r < 4; ++r) EXPECT_EQ(got[r], Long(r * 10 + c.rank()));
  });
}

// ------------------------------------------- --repeat metrics regression ---

TEST(RepeatMetrics, EnvelopeIndependentOfRepeatCount) {
  // Simulates the bench repeat protocol (warm-up + N timed repeats, with
  // begin_timed_repeat at the top of each timed body) around a
  // comm-instrumented workload and requires the final registry snapshot to
  // be identical for --repeat 1 and --repeat 3.
  CSRMatrix A = lap2d_5pt(10, 10);
  auto run_bench = [&](int repeats) {
    metrics::reset();
    metrics::enable();
    auto workload = [&]() {
      simmpi::run(2, [&](simmpi::Comm& c) {
        DistMatrix dA = distribute_csr(c, A);
        HaloExchange halo(c, dA.colmap, dA.row_starts, true);
        Vector x(dA.local_rows(), 1.0), ext;
        for (int round = 0; round < 3; ++round) halo.exchange(x, ext);
      });
    };
    workload();  // warm-up (repeats > 1 in the real benches)
    for (int i = 0; i < repeats; ++i) {
      bench::begin_timed_repeat();
      workload();
    }
    metrics::Snapshot s = metrics::snapshot();
    metrics::disable();
    metrics::reset();
    return s;
  };
  const metrics::Snapshot one = run_bench(1);
  const metrics::Snapshot three = run_bench(3);
  ASSERT_EQ(one.histograms.size(), three.histograms.size());
  bool saw_msg_bytes = false;
  for (std::size_t h = 0; h < one.histograms.size(); ++h) {
    EXPECT_EQ(one.histograms[h].name, three.histograms[h].name);
    EXPECT_EQ(one.histograms[h].count, three.histograms[h].count)
        << one.histograms[h].name;
    EXPECT_EQ(one.histograms[h].sum, three.histograms[h].sum)
        << one.histograms[h].name;
    if (one.histograms[h].name == "comm.msg_bytes") {
      saw_msg_bytes = true;
      EXPECT_GT(one.histograms[h].count, 0u);  // workload was instrumented
    }
  }
  EXPECT_TRUE(saw_msg_bytes);
  ASSERT_EQ(one.counters.size(), three.counters.size());
  for (std::size_t k = 0; k < one.counters.size(); ++k) {
    EXPECT_EQ(one.counters[k].first, three.counters[k].first);
    if (one.counters[k].first.rfind("mem.", 0) == 0) continue;  // allocator
    EXPECT_EQ(one.counters[k].second, three.counters[k].second)
        << one.counters[k].first;
  }
}

}  // namespace
}  // namespace hpamg

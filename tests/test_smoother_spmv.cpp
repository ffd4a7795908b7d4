// Smoother and SpMV kernel tests, including the baseline/optimized hybrid
// Gauss-Seidel equivalence (§3.2) and the fused/identity-block SpMV
// variants (§3.2-3.3).
#include <gtest/gtest.h>

#include <cmath>
#include <type_traits>

#include "amg/hierarchy.hpp"
#include "amg/smoother.hpp"
#include "amg/spmv.hpp"
#include "matrix/permute.hpp"
#include "gen/stencil.hpp"
#include "matrix/transpose.hpp"
#include "test_util.hpp"

namespace hpamg {
namespace {

using test::random_spd;

double residual_norm(const CSRMatrix& A, const Vector& x, const Vector& b) {
  Vector r(A.nrows);
  spmv_residual(A, x, b, r);
  return norm2(r);
}

// ------------------------------------------------------------- smoothers ---

TEST(Jacobi, ReducesResidualOnSpd) {
  CSRMatrix A = lap2d_5pt(20, 20);
  Vector b(A.nrows, 1.0), x(A.nrows, 0.0), temp(A.nrows);
  double prev = residual_norm(A, x, b);
  for (int s = 0; s < 5; ++s) {
    jacobi_sweep(A, b, x, temp);
    const double cur = residual_norm(A, x, b);
    EXPECT_LT(cur, prev);
    prev = cur;
  }
}

TEST(Jacobi, RowRangeOnlyTouchesRange) {
  CSRMatrix A = lap2d_5pt(10, 10);
  Vector b(A.nrows, 1.0), x(A.nrows, 0.0), temp(A.nrows);
  jacobi_sweep(A, b, x, temp, 2.0 / 3.0, 0, 50);
  for (Int i = 50; i < A.nrows; ++i) EXPECT_DOUBLE_EQ(x[i], 0.0);
  bool any = false;
  for (Int i = 0; i < 50; ++i) any |= x[i] != 0.0;
  EXPECT_TRUE(any);
}

class GsSweepEquiv : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GsSweepEquiv, OptimizedMatchesBaselineSweep) {
  // Same hybrid semantics -> identical iterates (modulo FP associativity in
  // the per-row accumulation, which both do left-to-right over a
  // reordered set; tolerance covers it).
  CSRMatrix A = random_spd(150, 4, GetParam());
  A.sort_rows();
  HybridGSBaseline base(A);
  HybridGSOptimized opt(A);
  Vector b(A.nrows, 1.0);
  Vector xb(A.nrows, 0.5), xo(A.nrows, 0.5), tb(A.nrows), to(A.nrows);
  for (int s = 0; s < 3; ++s) {
    base.sweep(A, b, xb, tb, true);
    opt.sweep(b, xo, to, 0, A.nrows, true);
    for (Int i = 0; i < A.nrows; ++i) ASSERT_NEAR(xb[i], xo[i], 1e-11);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GsSweepEquiv,
                         ::testing::Range<std::uint64_t>(0, 6));

TEST(HybridGs, CfOrderEquivalence) {
  // Baseline C-then-F via per-row branch == optimized C-then-F via ranges,
  // on a CF-permuted operator where C rows come first.
  CSRMatrix A = random_spd(120, 4, 17);
  A.sort_rows();
  const Int nc = 50;
  CFMarker cf(120);
  for (Int i = 0; i < 120; ++i) cf[i] = i < nc ? 1 : -1;
  HybridGSBaseline base(A);
  HybridGSOptimized opt(A);
  Vector b(A.nrows, 2.0);
  Vector xb(A.nrows, 0.0), xo(A.nrows, 0.0), tb(A.nrows), to(A.nrows);
  base.sweep(A, b, xb, tb, true, cf.data(), 1);
  base.sweep(A, b, xb, tb, true, cf.data(), -1);
  opt.sweep(b, xo, to, 0, nc, true);
  opt.sweep(b, xo, to, nc, A.nrows, true);
  for (Int i = 0; i < A.nrows; ++i) ASSERT_NEAR(xb[i], xo[i], 1e-11);
}

TEST(HybridGs, ZeroInitSkipMatchesFullSweep) {
  // With x == 0, skipping upper/external terms changes nothing (§3.2).
  CSRMatrix A = random_spd(100, 4, 23);
  A.sort_rows();
  HybridGSOptimized gs(A);
  Vector b(A.nrows, 1.0);
  Vector x1(A.nrows, 0.0), x2(A.nrows, 0.0), t1(A.nrows), t2(A.nrows);
  gs.sweep(b, x1, t1, 0, A.nrows, true, /*zero_init=*/false);
  gs.sweep(b, x2, t2, 0, A.nrows, true, /*zero_init=*/true);
  for (Int i = 0; i < A.nrows; ++i) ASSERT_NEAR(x1[i], x2[i], 1e-12);
}

TEST(HybridGs, ConvergesAsASolver) {
  CSRMatrix A = lap2d_5pt(16, 16);
  HybridGSOptimized gs(A);
  Vector b(A.nrows, 1.0), x(A.nrows, 0.0), t(A.nrows);
  // Plain GS converges at 1 - O(h^2) on Laplacians: expect a steady but
  // modest reduction (AMG exists precisely because this is slow).
  const double r0 = residual_norm(A, x, b);
  for (int s = 0; s < 100; ++s) gs.sweep(b, x, t, 0, A.nrows, true);
  EXPECT_LT(residual_norm(A, x, b), 0.5 * r0);
}

TEST(HybridGs, BackwardSweepWorks) {
  CSRMatrix A = random_spd(80, 4, 29);
  A.sort_rows();
  HybridGSOptimized gs(A);
  Vector b(A.nrows, 1.0), x(A.nrows, 0.0), t(A.nrows);
  // One backward sweep can transiently raise the 2-norm; several must
  // reduce it (GS decreases the energy norm monotonically on SPD).
  const double r0 = residual_norm(A, x, b);
  for (int s = 0; s < 10; ++s) gs.sweep(b, x, t, 0, A.nrows, /*forward=*/false);
  EXPECT_LT(residual_norm(A, x, b), r0);
}

TEST(HybridGs, BranchCountersFavorOptimized) {
  CSRMatrix A = lap2d_5pt(30, 30);
  HybridGSBaseline base(A);
  HybridGSOptimized opt(A);
  Vector b(A.nrows, 1.0), x(A.nrows, 0.0), t(A.nrows);
  WorkCounters wb, wo;
  base.sweep(A, b, x, t, true, nullptr, 0, &wb);
  opt.sweep(b, x, t, 0, A.nrows, true, false, &wo);
  EXPECT_GT(wb.branches, 0u);
  EXPECT_EQ(wo.branches, 0u);  // the partitioned plan removed them all
}

static_assert(std::is_constructible_v<HybridGSOptimized, const CSRMatrix&, int>);
static_assert(!std::is_constructible_v<HybridGSOptimized, CSRMatrix&&, int>,
              "a plan must not view a temporary operator");

TEST(HybridGs, PlanRejectsUnsortedRows) {
  CSRMatrix A = random_spd(20, 3, 5);
  std::swap(A.colidx[A.rowptr[4]], A.colidx[A.rowptr[4] + 1]);
  EXPECT_THROW(HybridGSOptimized(A, 2), std::invalid_argument);
}

TEST(HybridGs, PlanReadsTheOperatorInPlace) {
  // The sweep reads A's arrays through the plan's per-row offsets, in the
  // order local-lower, local-upper, external-below, external-above; a
  // direct hybrid GS in that order gives bitwise the same iterate and the
  // counters charge every off-diagonal entry once.
  CSRMatrix A = random_spd(200, 5, 41);
  const HybridGSOptimized gs(A, 3);
  EXPECT_TRUE(gs.views(A));
  const std::vector<Int>& bounds = gs.thread_bounds();
  Vector b(A.nrows), x(A.nrows), t(A.nrows);
  for (Int i = 0; i < A.nrows; ++i) {
    b[i] = 1.0 + 0.01 * i;
    x[i] = 0.5 - 0.003 * i;
  }
  Vector ref = x;
  const Vector old = x;
  std::uint64_t offdiag = 0;
  for (std::size_t p = 0; p + 1 < bounds.size(); ++p) {
    const Int is = bounds[p], ie = bounds[p + 1];
    for (Int i = is; i < ie; ++i) {
      double acc = b[i], diag = 1.0;
      const auto pass = [&](auto in_piece, const Vector& v) {
        for (Int k = A.rowptr[i]; k < A.rowptr[i + 1]; ++k)
          if (in_piece(A.colidx[k])) acc -= A.values[k] * v[A.colidx[k]];
      };
      pass([&](Int c) { return c >= is && c < i; }, ref);
      pass([&](Int c) { return c > i && c < ie; }, ref);
      pass([&](Int c) { return c < is; }, old);
      pass([&](Int c) { return c >= ie; }, old);
      for (Int k = A.rowptr[i]; k < A.rowptr[i + 1]; ++k) {
        if (A.colidx[k] == i)
          diag = A.values[k];
        else
          ++offdiag;
      }
      ref[i] = acc * (1.0 / diag);
    }
  }
  WorkCounters wc;
  gs.sweep(b, x, t, 0, A.nrows, true, false, &wc);
  EXPECT_EQ(x, ref);  // bitwise
  EXPECT_EQ(wc.flops, 2 * offdiag);
  EXPECT_EQ(wc.bytes_read, offdiag * (sizeof(Int) + 2 * sizeof(double)));
  EXPECT_EQ(wc.bytes_written, std::uint64_t(A.nrows) * sizeof(double));
}

TEST(HybridGs, PlanSurvivesMovingItsLevel) {
  // The plan views L.A's buffers, which a std::vector move keeps: a level
  // moved through reallocating pushes sweeps to the same iterates.
  Level L;
  L.A = lap2d_5pt(24, 24);
  L.n = L.A.nrows;
  L.gs_opt = std::make_unique<HybridGSOptimized>(L.A, 4);
  Vector b(L.n, 1.0), x0(L.n, 0.25), t(L.n);
  Vector before = x0;
  for (int s = 0; s < 2; ++s) L.gs_opt->sweep(b, before, t, 0, L.n, true);
  std::vector<Level> levels;
  levels.push_back(std::move(L));
  for (int k = 0; k < 9; ++k) levels.emplace_back();  // reallocates
  ASSERT_TRUE(levels[0].gs_opt->views(levels[0].A));
  Vector after = x0;
  for (int s = 0; s < 2; ++s)
    levels[0].gs_opt->sweep(b, after, t, 0, levels[0].n, true);
  EXPECT_EQ(after, before);  // bitwise
}

TEST(LexGs, LevelsRespectDependenciesAndConverge) {
  CSRMatrix A = lap2d_5pt(20, 20);
  LexGS lex(A);
  EXPECT_GT(lex.num_levels(), 1);
  Vector b(A.nrows, 1.0), x(A.nrows, 0.0);
  const double r0 = residual_norm(A, x, b);
  for (int s = 0; s < 100; ++s) lex.sweep(A, b, x);
  EXPECT_LT(residual_norm(A, x, b), 0.5 * r0);
}

TEST(LexGs, MatchesSequentialGaussSeidel) {
  // Level-scheduled execution must reproduce the sequential lexicographic
  // iterate exactly (dependencies honored).
  CSRMatrix A = random_spd(60, 3, 31);
  A.sort_rows();
  LexGS lex(A);
  Vector b(A.nrows, 1.0), x(A.nrows, 0.0), ref(A.nrows, 0.0);
  lex.sweep(A, b, x);
  for (Int i = 0; i < A.nrows; ++i) {
    double acc = b[i];
    double diag = 1.0;
    for (Int k = A.rowptr[i]; k < A.rowptr[i + 1]; ++k) {
      const Int j = A.colidx[k];
      if (j == i)
        diag = A.values[k];
      else
        acc -= A.values[k] * ref[j];
    }
    ref[i] = acc / diag;
  }
  for (Int i = 0; i < A.nrows; ++i) ASSERT_NEAR(x[i], ref[i], 1e-12);
}

// ----------------------------------------------------------------- spmv ----

TEST(Spmv, MatchesDenseReference) {
  CSRMatrix A = test::random_sparse(40, 30, 5, 2);
  Vector x(30), y(40);
  for (Int i = 0; i < 30; ++i) x[i] = 0.1 * i - 1.0;
  spmv(A, x, y);
  DenseMatrix d = DenseMatrix::from_csr(A);
  for (Int i = 0; i < 40; ++i) {
    double ref = 0;
    for (Int j = 0; j < 30; ++j) ref += d(i, j) * x[j];
    ASSERT_NEAR(y[i], ref, 1e-12);
  }
}

TEST(Spmv, TransposeMatchesMaterializedTranspose) {
  CSRMatrix A = test::random_sparse(25, 35, 4, 3);
  Vector x(25), y1(35), y2(35);
  for (Int i = 0; i < 25; ++i) x[i] = std::sin(double(i));
  spmv_transpose(A, x, y1);
  spmv(transpose_parallel(A), x, y2);
  for (Int i = 0; i < 35; ++i) ASSERT_NEAR(y1[i], y2[i], 1e-12);
}

TEST(Spmv, FusedResidualNormMatchesUnfused) {
  CSRMatrix A = random_spd(100, 4, 5);
  Vector x(100), b(100, 1.0), r1(100), r2(100);
  for (Int i = 0; i < 100; ++i) x[i] = 0.01 * i;
  spmv_residual(A, x, b, r1);
  const double n2 = spmv_residual_norm2sq_fused(A, x, b, r2);
  EXPECT_NEAR(n2, dot(r1, r1), 1e-10 * std::max(1.0, dot(r1, r1)));
  for (Int i = 0; i < 100; ++i) ASSERT_DOUBLE_EQ(r1[i], r2[i]);
}

TEST(Spmv, FusedSavesOnePassOfTraffic) {
  CSRMatrix A = random_spd(200, 4, 6);
  Vector x(200, 0.5), b(200, 1.0), r(200);
  WorkCounters fused, unfused;
  spmv_residual_norm2sq_fused(A, x, b, r, &fused);
  spmv_residual(A, x, b, r, &unfused);
  dot(r, r, &unfused);
  EXPECT_LT(fused.bytes_total(), unfused.bytes_total());
}

TEST(Spmv, IdentityBlockInterpMatchesFullP) {
  // P = [I; Pf]; x += P e must equal the identity-block kernel.
  const Int n = 50, nc = 20;
  CSRMatrix Pf = test::random_sparse(n - nc, nc, 3, 7);
  std::vector<Triplet> trip;
  for (Int i = 0; i < nc; ++i) trip.push_back({i, i, 1.0});
  for (Int i = 0; i < Pf.nrows; ++i)
    for (Int k = Pf.rowptr[i]; k < Pf.rowptr[i + 1]; ++k)
      trip.push_back({nc + i, Pf.colidx[k], Pf.values[k]});
  CSRMatrix P = CSRMatrix::from_triplets(n, nc, std::move(trip));

  Vector e(nc), x1(n, 0.25), x2(n, 0.25), tmp(n);
  for (Int i = 0; i < nc; ++i) e[i] = 0.3 * i - 1.0;
  spmv(P, e, tmp);
  for (Int i = 0; i < n; ++i) x1[i] += tmp[i];
  interp_add_identity_block(Pf, e, x2, nc);
  for (Int i = 0; i < n; ++i) ASSERT_NEAR(x1[i], x2[i], 1e-13);

  // Restriction side: rc = P^T r.
  Vector r(n), rc1(nc), rc2(nc);
  for (Int i = 0; i < n; ++i) r[i] = std::cos(double(i));
  spmv_transpose(P, r, rc1);
  CSRMatrix PfT = transpose_parallel(Pf);
  restrict_identity_block(PfT, r, rc2, nc);
  for (Int i = 0; i < nc; ++i) ASSERT_NEAR(rc1[i], rc2[i], 1e-13);
}

TEST(Spmv, SizeChecksThrow) {
  CSRMatrix A = random_spd(10, 2, 8);
  Vector small(5), y(10);
  EXPECT_THROW(spmv(A, small, y), std::invalid_argument);
}

}  // namespace
}  // namespace hpamg

// Tests for multi-color GS and the numeric setup refresh (time-dependent
// reuse), plus the smoother comparison properties behind the §5.2 study.
#include <gtest/gtest.h>

#include <cmath>

#include "amg/solver.hpp"
#include "amg/spmv.hpp"
#include "gen/stencil.hpp"
#include "test_util.hpp"

namespace hpamg {
namespace {

// ------------------------------------------------------------ multicolor --

TEST(MultiColorGs, ColoringIsProper) {
  CSRMatrix A = lap2d_5pt(20, 20);
  MultiColorGS mc(A);
  // 5-point stencil is bipartite: exactly 2 colors (red-black).
  EXPECT_EQ(mc.num_colors(), 2);
  CSRMatrix B = lap3d_27pt(6, 6, 6);
  MultiColorGS mcb(B);
  EXPECT_GE(mcb.num_colors(), 8);  // 27-pt needs >= 8 colors
  EXPECT_LE(mcb.num_colors(), 32);
}

TEST(MultiColorGs, SweepReducesResidual) {
  CSRMatrix A = lap2d_5pt(24, 24);
  MultiColorGS mc(A);
  Vector b(A.nrows, 1.0), x(A.nrows, 0.0), r(A.nrows);
  spmv_residual(A, x, b, r);
  const double r0 = norm2(r);
  for (int s = 0; s < 100; ++s) mc.sweep(A, b, x);
  spmv_residual(A, x, b, r);
  EXPECT_LT(norm2(r), 0.5 * r0);
}

TEST(MultiColorGs, RedBlackMatchesManualRedBlackGs) {
  // On a bipartite graph, multi-color GS with 2 colors is red-black GS.
  CSRMatrix A = lap2d_5pt(10, 10);
  MultiColorGS mc(A);
  ASSERT_EQ(mc.num_colors(), 2);
  Vector b(A.nrows, 1.0), x(A.nrows, 0.0), ref(A.nrows, 0.0);
  mc.sweep(A, b, x);
  // Manual red-black: greedy first-fit colors row 0 red, so red = parity
  // of (i + j) on the grid.
  auto update = [&](Int i) {
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
  };
  for (Int i = 0; i < A.nrows; ++i)
    if ((i / 10 + i % 10) % 2 == 0) update(i);
  for (Int i = 0; i < A.nrows; ++i)
    if ((i / 10 + i % 10) % 2 == 1) update(i);
  for (Int i = 0; i < A.nrows; ++i) ASSERT_NEAR(x[i], ref[i], 1e-12);
}

TEST(MultiColorGs, WorksAsAmgSmoother) {
  CSRMatrix A = lap3d_7pt(10, 10, 10);
  AMGOptions o;
  o.smoother = SmootherKind::kMultiColorGS;
  AMGSolver amg(A, o);
  Vector b(A.nrows, 1.0), x(A.nrows, 0.0);
  SolveResult r = amg.solve(b, x, 1e-7, 100);
  EXPECT_TRUE(r.converged);
}

TEST(MultiColorGs, ConvergesFasterThanFinePartitionedHybrid) {
  // The AmgX regime (§5.2): against a near-Jacobi hybrid GS (one partition
  // per few rows), colored GS keeps true GS coupling and needs no more
  // V-cycles.
  CSRMatrix A = lap2d_5pt(40, 40);
  Vector b(A.nrows, 1.0);
  AMGOptions mc_opts, hyb_opts;
  mc_opts.smoother = SmootherKind::kMultiColorGS;
  hyb_opts.gs_partitions = 800;  // 2 rows per partition: Jacobi-like
  AMGSolver mc(A, mc_opts), hyb(A, hyb_opts);
  Vector x1(A.nrows, 0.0), x2(A.nrows, 0.0);
  SolveResult r_mc = mc.solve(b, x1, 1e-7, 300);
  SolveResult r_hyb = hyb.solve(b, x2, 1e-7, 300);
  ASSERT_TRUE(r_mc.converged);
  ASSERT_TRUE(r_hyb.converged);
  EXPECT_LE(r_mc.iterations, r_hyb.iterations);
}

// ---------------------------------------------------------------- refresh --

TEST(RefreshValues, MatchesFreshSetupSolve) {
  CSRMatrix A = lap2d_5pt(30, 30);
  AMGSolver amg(A, {});
  Vector b(A.nrows, 1.0), x(A.nrows, 0.0);
  ASSERT_TRUE(amg.solve(b, x, 1e-7, 100).converged);

  // New values, same pattern: scaled + coefficient drift.
  CSRMatrix A2 = A;
  for (std::size_t k = 0; k < A2.values.size(); ++k)
    A2.values[k] *= 2.0;
  amg.refresh_values(A2);
  std::fill(x.begin(), x.end(), 0.0);
  SolveResult r = amg.solve(b, x, 1e-7, 100);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(test::relative_residual(A2, x, b), 1e-6);

  // Iteration count comparable to a from-scratch setup on A2 (lagged
  // transfers are exact here because P is scale-invariant for A -> 2A).
  AMGSolver fresh(A2, {});
  Vector xf(A2.nrows, 0.0);
  SolveResult rf = fresh.solve(b, xf, 1e-7, 100);
  EXPECT_NEAR(r.iterations, rf.iterations, 2);
}

TEST(RefreshValues, HandlesRealCoefficientDrift) {
  // Time-dependent diffusion: coefficients drift smoothly; frozen
  // interpolation degrades gracefully (a few extra iterations), which is
  // the reuse trade-off the paper describes.
  auto coeff_at = [](double t) {
    return [t](Int x, Int y, Int) {
      return 1.0 + 0.3 * t * std::sin(0.2 * x) * std::cos(0.2 * y);
    };
  };
  CSRMatrix A0 = lap2d_5pt(30, 30, 1.0, coeff_at(0.0));
  AMGSolver amg(A0, {});
  Vector b(A0.nrows, 1.0);
  Int first_iters = 0;
  for (int step = 0; step <= 3; ++step) {
    CSRMatrix At = lap2d_5pt(30, 30, 1.0, coeff_at(double(step)));
    if (step > 0) amg.refresh_values(At);
    Vector x(At.nrows, 0.0);
    SolveResult r = amg.solve(b, x, 1e-7, 200);
    ASSERT_TRUE(r.converged) << "step " << step;
    if (step == 0)
      first_iters = r.iterations;
    else
      EXPECT_LE(r.iterations, first_iters + 6) << "step " << step;
  }
}

TEST(RefreshValues, BaselineVariantToo) {
  CSRMatrix A = lap2d_5pt(20, 20);
  AMGOptions o;
  o.variant = Variant::kBaseline;
  AMGSolver amg(A, o);
  CSRMatrix A2 = A;
  for (auto& v : A2.values) v *= 3.0;
  amg.refresh_values(A2);
  Vector b(A.nrows, 1.0), x(A.nrows, 0.0);
  EXPECT_TRUE(amg.solve(b, x, 1e-7, 100).converged);
}

TEST(RefreshValues, RejectsPatternChange) {
  CSRMatrix A = lap2d_5pt(15, 15);
  AMGSolver amg(A, {});
  CSRMatrix B = lap2d_9pt(15, 15);  // different stencil: new pattern
  EXPECT_THROW(amg.refresh_values(B), std::invalid_argument);
  CSRMatrix C = lap2d_5pt(16, 16);  // different size
  EXPECT_THROW(amg.refresh_values(C), std::invalid_argument);
}

TEST(RefreshValues, RefreshesCoarseLU) {
  CSRMatrix A = lap2d_5pt(12, 12);
  AMGSolver amg(A, {});
  CSRMatrix A2 = A;
  for (auto& v : A2.values) v *= 5.0;
  amg.refresh_values(A2);
  // Solve must reflect the new scaling exactly: x(A2) = x(A) / 5.
  Vector b(A.nrows, 1.0), x2(A.nrows, 0.0);
  ASSERT_TRUE(amg.solve(b, x2, 1e-10, 100).converged);
  AMGSolver ref(A, {});
  Vector x1(A.nrows, 0.0);
  ASSERT_TRUE(ref.solve(b, x1, 1e-10, 100).converged);
  for (Int i = 0; i < A.nrows; ++i) ASSERT_NEAR(x2[i] * 5.0, x1[i], 1e-6);
}

/// Refreshing with the operator the hierarchy was built from rebuilds
/// exactly what setup built: every level operator bitwise (the plans view
/// the new ones) and the same solve iterates.
void expect_refresh_reproduces_setup(const CSRMatrix& A,
                                     const AMGOptions& o) {
  AMGSolver amg(A, o);
  std::vector<CSRMatrix> ops;
  for (const Level& L : amg.hierarchy().levels) ops.push_back(L.A);
  Vector b(A.nrows), x1(A.nrows, 0.0), x2(A.nrows, 0.0);
  for (Int i = 0; i < A.nrows; ++i) b[i] = 1.0 + std::sin(0.1 * i);
  const SolveResult r1 = amg.solve(b, x1, 1e-8, 300);
  ASSERT_TRUE(r1.converged);

  amg.refresh_values(A);
  const Hierarchy& h = amg.hierarchy();
  ASSERT_EQ(h.levels.size(), ops.size());
  for (std::size_t l = 0; l < ops.size(); ++l) {
    EXPECT_EQ(h.levels[l].A.rowptr, ops[l].rowptr) << "level " << l;
    EXPECT_EQ(h.levels[l].A.colidx, ops[l].colidx) << "level " << l;
    EXPECT_EQ(h.levels[l].A.values, ops[l].values) << "level " << l;
  }
  EXPECT_EQ(check_hierarchy(h), Status::kOk);
  const SolveResult r2 = amg.solve(b, x2, 1e-8, 300);
  EXPECT_EQ(r2.iterations, r1.iterations);
  EXPECT_EQ(r2.history, r1.history);
  EXPECT_EQ(x2, x1);  // bitwise
}

TEST(RefreshValues, SetupOperatorReproducesSetupWithLuCoarsest) {
  CSRMatrix A = lap2d_5pt(30, 30);
  ASSERT_GT(AMGSolver(A, {}).hierarchy().coarse_lu.size(), 0);
  expect_refresh_reproduces_setup(A, {});
}

TEST(RefreshValues, SetupOperatorReproducesSetupWithSmoothingCoarsest) {
  // Degenerate.HugeCoarseLevelFallsBackToSmoothing's hierarchy: the
  // coarsest level smooths, so its plan must be rebuilt on the refreshed
  // operator (a stale plan reads freed arrays).
  CSRMatrix A = lap2d_5pt(60, 60);
  AMGOptions o;
  o.max_levels = 2;
  ASSERT_EQ(AMGSolver(A, o).hierarchy().coarse_lu.size(), 0);
  ASSERT_TRUE(AMGSolver(A, o).hierarchy().levels.back().gs_opt);
  expect_refresh_reproduces_setup(A, o);
}

TEST(RefreshValues, RegularizesTheCoarsestLikeSetup) {
  // A zero diagonal on a one-level hierarchy: setup regularizes the
  // coarsest operator, and so does the refresh.
  CSRMatrix A = lap2d_5pt(5, 5);
  for (Int k = A.rowptr[3]; k < A.rowptr[4]; ++k)
    if (A.colidx[k] == 3) A.values[k] = 0.0;
  Hierarchy h = build_hierarchy(A, {});
  ASSERT_EQ(h.num_levels(), 1);
  ASSERT_EQ(h.events.size(), 1u);
  const CSRMatrix regularized = h.levels[0].A;
  EXPECT_NE(regularized.values, A.values);
  refresh_hierarchy(h, A);
  EXPECT_EQ(h.levels[0].A.colidx, regularized.colidx);
  EXPECT_EQ(h.levels[0].A.values, regularized.values);
  EXPECT_EQ(h.events.size(), 2u);
}

}  // namespace
}  // namespace hpamg

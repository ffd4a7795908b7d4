// Additional Krylov-solver properties: GMRES/FGMRES agreement under a
// fixed preconditioner, restart semantics, residual-history behaviour, and
// breakdown/edge handling.
#include <gtest/gtest.h>

#include <cmath>

#include "amg/solver.hpp"
#include "gen/stencil.hpp"
#include "krylov/krylov.hpp"
#include "test_util.hpp"

namespace hpamg {
namespace {

TEST(KrylovExtra, GmresAndFgmresAgreeWithFixedPreconditioner) {
  // With a constant (linear) preconditioner, right-preconditioned GMRES and
  // FGMRES build the same Krylov space: iteration counts match closely.
  CSRMatrix A = lap2d_5pt(30, 30);
  AMGSolver amg(A, {});
  Vector b(A.nrows, 1.0);
  auto pre = [&](const Vector& r, Vector& z) { amg.precondition(r, z); };
  KrylovOptions o;
  o.rtol = 1e-9;
  Vector x1(A.nrows, 0.0), x2(A.nrows, 0.0);
  KrylovResult g = gmres(A, b, x1, o, pre);
  KrylovResult f = fgmres(A, b, x2, o, pre);
  ASSERT_TRUE(g.converged);
  ASSERT_TRUE(f.converged);
  EXPECT_NEAR(g.iterations, f.iterations, 1);
  for (Int i = 0; i < A.nrows; ++i) ASSERT_NEAR(x1[i], x2[i], 1e-6);
}

TEST(KrylovExtra, HistoriesDecreaseOverall) {
  CSRMatrix A = lap2d_5pt(20, 20);
  Vector b(A.nrows, 1.0), x(A.nrows, 0.0);
  KrylovOptions o;
  o.rtol = 1e-8;
  KrylovResult r = pcg(A, b, x, o);
  ASSERT_TRUE(r.converged);
  ASSERT_GE(r.history.size(), 2u);
  EXPECT_LT(r.history.back(), r.history.front());
}

TEST(KrylovExtra, ZeroRhsConvergesImmediately) {
  CSRMatrix A = lap2d_5pt(10, 10);
  Vector b(A.nrows, 0.0), x(A.nrows, 0.0);
  for (int which = 0; which < 3; ++which) {
    std::fill(x.begin(), x.end(), 0.0);
    KrylovResult r = which == 0   ? pcg(A, b, x)
                     : which == 1 ? gmres(A, b, x)
                                  : fgmres(A, b, x);
    EXPECT_TRUE(r.converged) << which;
    EXPECT_EQ(r.iterations, 0) << which;
  }
}

TEST(KrylovExtra, SizeMismatchThrows) {
  CSRMatrix A = lap2d_5pt(8, 8);
  Vector b(10, 1.0), x(A.nrows, 0.0);
  EXPECT_THROW(pcg(A, b, x), std::invalid_argument);
  EXPECT_THROW(gmres(A, b, x), std::invalid_argument);
  EXPECT_THROW(fgmres(A, b, x), std::invalid_argument);
}

TEST(KrylovExtra, MaxIterationsRespected) {
  CSRMatrix A = lap2d_5pt(40, 40);
  Vector b(A.nrows, 1.0), x(A.nrows, 0.0);
  KrylovOptions o;
  o.rtol = 1e-14;  // unreachable in 3 iterations
  o.max_iterations = 3;
  KrylovResult r = pcg(A, b, x, o);
  EXPECT_FALSE(r.converged);
  EXPECT_LE(r.iterations, 3);
}

TEST(KrylovExtra, FgmresToleratesVaryingPreconditioner) {
  // Flexible GMRES's reason to exist: a preconditioner that changes per
  // apply (alternating smoothers) must still converge; plain right-P GMRES
  // has no such guarantee.
  CSRMatrix A = lap2d_5pt(25, 25);
  AMGOptions o1, o2;
  o2.smoother = SmootherKind::kJacobi;
  AMGSolver amg1(A, o1), amg2(A, o2);
  int calls = 0;
  auto pre = [&](const Vector& r, Vector& z) {
    (++calls % 2 ? amg1 : amg2).precondition(r, z);
  };
  Vector b(A.nrows, 1.0), x(A.nrows, 0.0);
  KrylovOptions o;
  o.rtol = 1e-9;
  KrylovResult r = fgmres(A, b, x, o, pre);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(test::relative_residual(A, x, b), 1e-8);
}

TEST(KrylovExtra, FgmresRecoversFromOnePoisonedPreconditionerApply) {
  // One preconditioner apply writes a NaN: the Arnoldi step that uses it
  // poisons the basis, which is discarded; the solve restarts from the last
  // (finite) restart iterate and still converges.
  CSRMatrix A = lap2d_5pt(25, 25);
  AMGSolver amg(A, {});
  int calls = 0;
  auto pre = [&](const Vector& r, Vector& z) {
    amg.precondition(r, z);
    if (++calls == 3) z[z.size() / 2] = std::nan("");
  };
  Vector b(A.nrows, 1.0), x(A.nrows, 0.0);
  KrylovOptions o;
  o.rtol = 1e-9;
  KrylovResult r = fgmres(A, b, x, o, pre);
  EXPECT_EQ(r.status, Status::kRecovered);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.nonfinite_iteration, 3);
  // The result keeps what the loop recorded: the incident and the phases.
  EXPECT_EQ(r.recoveries, 1);
  EXPECT_EQ(r.events.size(), 1u);
  EXPECT_GT(r.solve_times.get("SpMV"), 0.0);
  for (double v : x) ASSERT_TRUE(std::isfinite(v));
  EXPECT_LT(test::relative_residual(A, x, b), o.rtol);
}

TEST(KrylovExtra, PcgMatchesLuSolution) {
  CSRMatrix A = test::random_spd(60, 4, 13);
  LUSolver lu(A);
  Vector b(60);
  for (Int i = 0; i < 60; ++i) b[i] = std::sin(0.3 * i);
  Vector x_lu(60), x_cg(60, 0.0);
  lu.solve(b.data(), x_lu.data());
  KrylovOptions o;
  o.rtol = 1e-12;
  o.max_iterations = 500;
  KrylovResult r = pcg(A, b, x_cg, o);
  ASSERT_TRUE(r.converged);
  for (Int i = 0; i < 60; ++i) ASSERT_NEAR(x_cg[i], x_lu[i], 1e-7);
}

}  // namespace
}  // namespace hpamg

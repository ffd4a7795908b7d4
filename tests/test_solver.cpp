// End-to-end AMG solver tests: hierarchy construction invariants, V-cycle
// convergence, baseline/optimized agreement, scalability (O(1) iterations),
// and Krylov integration.
#include <gtest/gtest.h>

#include <cmath>

#include "amg/solver.hpp"
#include "gen/graph.hpp"
#include "gen/reservoir.hpp"
#include "gen/stencil.hpp"
#include "krylov/krylov.hpp"
#include "test_util.hpp"

namespace hpamg {
namespace {

AMGOptions base_opts(Variant v) {
  AMGOptions o;
  o.variant = v;
  return o;
}

TEST(Hierarchy, LevelsShrinkAndComplexityBounded) {
  CSRMatrix A = lap2d_5pt(50, 50);
  Hierarchy h = build_hierarchy(A, base_opts(Variant::kOptimized));
  ASSERT_GE(h.num_levels(), 3);
  for (Int l = 1; l < h.num_levels(); ++l)
    EXPECT_LT(h.levels[l].n, h.levels[l - 1].n);
  EXPECT_GT(h.operator_complexity(), 1.0);
  EXPECT_LT(h.operator_complexity(), 5.0);
  EXPECT_LT(h.grid_complexity(), 2.5);
  std::uint64_t bytes = 0;
  for (const LevelMemory& m : h.memory_by_level())
    bytes += m.operator_bytes + m.interp_bytes + m.smoother_bytes;
  EXPECT_GT(bytes, 0u);
  EXPECT_FALSE(hierarchy_summary(h).empty());
}

TEST(Hierarchy, OptimizedGsPlanHoldsNoOperatorCopy) {
  // The plan is three offsets and an inverse diagonal per row plus the
  // partition bounds; the level operator is read in place.
  AMGOptions o = base_opts(Variant::kOptimized);
  o.gs_partitions = 4;
  Hierarchy h = build_hierarchy(lap3d_27pt(14, 14, 14), o);
  ASSERT_GE(h.num_levels(), 3);
  const std::vector<LevelMemory> mem = h.memory_by_level();
  for (Int l = 0; l + 1 < h.num_levels(); ++l) {
    const Level& L = h.levels[l];
    ASSERT_TRUE(L.gs_opt);
    EXPECT_TRUE(L.gs_opt->views(L.A));
    const std::uint64_t bound =
        std::uint64_t(L.n) * (3 * sizeof(Int) + sizeof(double)) +
        L.gs_opt->thread_bounds().size() * sizeof(Int);
    EXPECT_LE(mem[l].smoother_bytes, bound) << "level " << l;
    EXPECT_LT(mem[l].smoother_bytes, mem[l].operator_bytes) << "level " << l;
  }
}

TEST(Hierarchy, OptimizedLevelsAreCfPermuted) {
  CSRMatrix A = lap2d_5pt(30, 30);
  Hierarchy h = build_hierarchy(A, base_opts(Variant::kOptimized));
  for (Int l = 0; l + 1 < h.num_levels(); ++l) {
    const Level& L = h.levels[l];
    EXPECT_EQ(Int(L.perm.perm.size()), L.n);
    EXPECT_EQ(L.perm.ncoarse, L.nc);
    // Identity-block representation present, baseline P absent.
    EXPECT_EQ(L.Pf.nrows, L.n - L.nc);
    EXPECT_EQ(L.PfT.nrows, L.nc);
    EXPECT_EQ(L.P.nrows, 0);
  }
}

TEST(Hierarchy, BaselineKeepsFullP) {
  CSRMatrix A = lap2d_5pt(30, 30);
  Hierarchy h = build_hierarchy(A, base_opts(Variant::kBaseline));
  for (Int l = 0; l + 1 < h.num_levels(); ++l) {
    EXPECT_EQ(h.levels[l].P.nrows, h.levels[l].n);
    EXPECT_EQ(h.levels[l].Pf.nrows, 0);
  }
}

TEST(Hierarchy, MaxLevelsRespected) {
  CSRMatrix A = lap2d_5pt(60, 60);
  AMGOptions o = base_opts(Variant::kOptimized);
  o.max_levels = 3;
  Hierarchy h = build_hierarchy(A, o);
  EXPECT_LE(h.num_levels(), 3);
}

TEST(Hierarchy, TinyMatrixGoesStraightToCoarseSolve) {
  CSRMatrix A = test::random_spd(20, 3, 1);
  Hierarchy h = build_hierarchy(A, base_opts(Variant::kOptimized));
  EXPECT_EQ(h.num_levels(), 1);
  Vector b(20, 1.0), x(20, 0.0);
  vcycle(h, b, x);
  EXPECT_LT(test::relative_residual(A, x, b), 1e-10);  // direct solve
}

TEST(Vcycle, ReducesResidualMonotonically) {
  CSRMatrix A = lap2d_5pt(40, 40);
  Hierarchy h = build_hierarchy(A, base_opts(Variant::kOptimized));
  Vector b(A.nrows, 1.0), x(A.nrows, 0.0);
  double prev = 1e300;
  for (int it = 0; it < 6; ++it) {
    vcycle(h, b, x);
    const double r = test::relative_residual(A, x, b);
    EXPECT_LT(r, prev);
    prev = r;
  }
  EXPECT_LT(prev, 1e-3);
}

struct SolverCase {
  const char* name;
  int which;
  double rtol;
  Int max_iters;  // generous bound; real check is convergence
};

class SolverSweep
    : public ::testing::TestWithParam<std::tuple<SolverCase, Variant>> {
 protected:
  CSRMatrix make() const {
    switch (std::get<0>(GetParam()).which) {
      case 0:
        return lap2d_5pt(60, 60);
      case 1:
        return lap3d_7pt(14, 14, 14);
      case 2:
        return lap2d_5pt(50, 50, 10.0);  // anisotropic
      case 3:
        return two_cubes_like(10, 10, 10);  // coefficient jump
      case 4:
        return thermal_like(40, 40);  // graded + skew
      default:
        return reservoir_matrix(10, 10, 10);  // heterogeneous
    }
  }
};

TEST_P(SolverSweep, StandaloneAmgConverges) {
  const auto [c, variant] = GetParam();
  CSRMatrix A = make();
  AMGSolver amg(A, base_opts(variant));
  Vector b(A.nrows, 1.0), x(A.nrows, 0.0);
  SolveResult r = amg.solve(b, x, c.rtol, c.max_iters);
  EXPECT_TRUE(r.converged) << c.name << " relres=" << r.final_relres;
  EXPECT_LE(r.iterations, c.max_iters);
  // The returned solution really solves the system.
  EXPECT_LT(test::relative_residual(A, x, b), c.rtol * 10);
}

INSTANTIATE_TEST_SUITE_P(
    Problems, SolverSweep,
    ::testing::Combine(
        ::testing::Values(SolverCase{"lap2d", 0, 1e-7, 60},
                          SolverCase{"lap3d", 1, 1e-7, 60},
                          SolverCase{"aniso", 2, 1e-7, 80},
                          SolverCase{"jump", 3, 1e-7, 80},
                          SolverCase{"thermal", 4, 1e-7, 80},
                          SolverCase{"reservoir", 5, 1e-7, 80}),
        ::testing::Values(Variant::kOptimized, Variant::kBaseline)));

TEST(Solver, BaselineAndOptimizedAgreeWithSameRng) {
  // With the same (sequential) PMIS RNG the two variants build the same
  // hierarchy up to reordering; iteration counts must be nearly identical
  // (the paper verifies exact agreement when sharing the baseline RNG).
  CSRMatrix A = lap2d_5pt(40, 40);
  AMGOptions ob = base_opts(Variant::kBaseline);
  AMGOptions oo = base_opts(Variant::kOptimized);
  oo.rng = RngKind::kSequential;
  AMGSolver sb(A, ob), so(A, oo);
  Vector b(A.nrows, 1.0), xb(A.nrows, 0.0), xo(A.nrows, 0.0);
  SolveResult rb = sb.solve(b, xb, 1e-7, 100);
  SolveResult ro = so.solve(b, xo, 1e-7, 100);
  ASSERT_TRUE(rb.converged);
  ASSERT_TRUE(ro.converged);
  EXPECT_NEAR(rb.iterations, ro.iterations, 2);
  EXPECT_NEAR(sb.operator_complexity(), so.operator_complexity(), 0.05);
}

TEST(Solver, IterationCountStaysFlatAcrossSizes) {
  // The multigrid promise (§2): O(1) iterations as the problem grows.
  Int prev_iters = 0;
  for (Int s : {20, 40, 80}) {
    CSRMatrix A = lap2d_5pt(s, s);
    AMGSolver amg(A, base_opts(Variant::kOptimized));
    Vector b(A.nrows, 1.0), x(A.nrows, 0.0);
    SolveResult r = amg.solve(b, x, 1e-7, 100);
    ASSERT_TRUE(r.converged);
    if (prev_iters > 0) EXPECT_LE(r.iterations, prev_iters + 4);
    prev_iters = r.iterations;
  }
}

TEST(Solver, NonzeroInitialGuessAndZeroRhs) {
  CSRMatrix A = lap2d_5pt(20, 20);
  AMGSolver amg(A, base_opts(Variant::kOptimized));
  Vector b(A.nrows, 0.0), x(A.nrows, 1.0);
  SolveResult r = amg.solve(b, x, 1e-8, 50);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(norm_inf(x), 1e-6);  // solution of Ax=0 is 0
}

TEST(Solver, AlreadyConvergedReturnsImmediately) {
  CSRMatrix A = lap2d_5pt(15, 15);
  AMGSolver amg(A, base_opts(Variant::kOptimized));
  Vector b(A.nrows, 0.0), x(A.nrows, 0.0);
  SolveResult r = amg.solve(b, x, 1e-7, 50);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0);
}

TEST(Solver, SolveTimesCoverFigureCategories) {
  CSRMatrix A = lap2d_5pt(40, 40);
  AMGSolver amg(A, base_opts(Variant::kOptimized));
  Vector b(A.nrows, 1.0), x(A.nrows, 0.0);
  SolveResult r = amg.solve(b, x, 1e-7, 50);
  EXPECT_GT(r.solve_times.get("GS"), 0.0);
  EXPECT_GT(r.solve_times.get("SpMV"), 0.0);
  EXPECT_GT(amg.setup_times().get("RAP"), 0.0);
  EXPECT_GT(amg.setup_times().get("Interp"), 0.0);
  EXPECT_GT(amg.setup_times().get("Strength+Coarsen"), 0.0);
}

TEST(Solver, JacobiAndLexGsSmootherOptionsWork) {
  CSRMatrix A = lap2d_5pt(30, 30);
  for (SmootherKind s : {SmootherKind::kJacobi, SmootherKind::kLexGS}) {
    AMGOptions o = base_opts(Variant::kOptimized);
    o.smoother = s;
    AMGSolver amg(A, o);
    Vector b(A.nrows, 1.0), x(A.nrows, 0.0);
    SolveResult r = amg.solve(b, x, 1e-7, 150);
    EXPECT_TRUE(r.converged) << int(s);
  }
}

TEST(Solver, AggressiveSchemesLowerComplexity) {
  CSRMatrix A = lap3d_7pt(12, 12, 12);
  AMGOptions ei = base_opts(Variant::kOptimized);
  AMGOptions mp = ei, ts = ei;
  mp.interp = InterpKind::kMultipass;
  mp.num_aggressive_levels = 1;
  ts.interp = InterpKind::kExtPI2Stage;
  ts.num_aggressive_levels = 1;
  AMGSolver s_ei(A, ei), s_mp(A, mp), s_ts(A, ts);
  EXPECT_LT(s_mp.operator_complexity(), s_ei.operator_complexity());
  EXPECT_LT(s_ts.operator_complexity(), s_ei.operator_complexity());
  Vector b(A.nrows, 1.0), x(A.nrows, 0.0);
  for (AMGSolver* s : {&s_ei, &s_mp, &s_ts}) {
    std::fill(x.begin(), x.end(), 0.0);
    SolveResult r = s->solve(b, x, 1e-7, 150);
    EXPECT_TRUE(r.converged);
  }
}

// --------------------------------------------------------------- krylov ----

TEST(Krylov, CgOnSpd) {
  CSRMatrix A = lap2d_5pt(25, 25);
  Vector b(A.nrows, 1.0), x(A.nrows, 0.0);
  KrylovOptions o;
  o.rtol = 1e-9;
  KrylovResult r = pcg(A, b, x, o);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(test::relative_residual(A, x, b), 1e-8);
}

TEST(Krylov, AmgPreconditioningCutsIterations) {
  CSRMatrix A = lap2d_5pt(50, 50);
  Vector b(A.nrows, 1.0), x(A.nrows, 0.0);
  KrylovOptions o;
  o.rtol = 1e-8;
  KrylovResult plain = pcg(A, b, x, o);
  AMGSolver amg(A, base_opts(Variant::kOptimized));
  std::fill(x.begin(), x.end(), 0.0);
  KrylovResult pre = pcg(A, b, x, o, [&](const Vector& r, Vector& z) {
    amg.precondition(r, z);
  });
  ASSERT_TRUE(plain.converged);
  ASSERT_TRUE(pre.converged);
  EXPECT_LT(pre.iterations * 3, plain.iterations);
}

TEST(Krylov, GmresAndFgmresSolveNonsymmetric) {
  // Convection-diffusion-like: Laplacian plus skew perturbation.
  CSRMatrix L = lap2d_5pt(20, 20);
  std::vector<Triplet> t;
  for (Int i = 0; i < L.nrows; ++i)
    for (Int k = L.rowptr[i]; k < L.rowptr[i + 1]; ++k) {
      double v = L.values[k];
      if (L.colidx[k] == i + 1) v *= 1.5;  // upwind bias
      t.push_back({i, L.colidx[k], v});
    }
  CSRMatrix A = CSRMatrix::from_triplets(L.nrows, L.ncols, std::move(t));
  Vector b(A.nrows, 1.0), x(A.nrows, 0.0);
  KrylovOptions o;
  o.rtol = 1e-8;
  // Full (unrestarted) GMRES: must converge within n iterations in exact
  // arithmetic; restarted GMRES can stagnate on nonsymmetric problems.
  o.restart = A.nrows;
  o.max_iterations = A.nrows;
  KrylovResult g = gmres(A, b, x, o);
  EXPECT_TRUE(g.converged);
  EXPECT_LT(test::relative_residual(A, x, b), 1e-7);
  std::fill(x.begin(), x.end(), 0.0);
  KrylovResult f = fgmres(A, b, x, o);
  EXPECT_TRUE(f.converged);
  EXPECT_LT(test::relative_residual(A, x, b), 1e-7);
}

TEST(Krylov, FgmresWithAmgMatchesPaperSetup) {
  // Table 4 configuration: FGMRES + AMG preconditioner.
  CSRMatrix A = reservoir_matrix(12, 12, 6);
  AMGSolver amg(A, base_opts(Variant::kOptimized));
  Vector b(A.nrows, 1.0), x(A.nrows, 0.0);
  KrylovOptions o;
  o.rtol = 1e-5;  // strong-scaling tolerance from §5.1.2
  KrylovResult r = fgmres(A, b, x, o, [&](const Vector& v, Vector& z) {
    amg.precondition(v, z);
  });
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.iterations, 30);
}

TEST(Krylov, RestartBoundary) {
  CSRMatrix A = lap2d_5pt(15, 15);
  Vector b(A.nrows, 1.0), x(A.nrows, 0.0);
  KrylovOptions o;
  o.rtol = 1e-9;
  o.restart = 5;  // force several restart cycles
  o.max_iterations = 3000;
  KrylovResult r = gmres(A, b, x, o);
  EXPECT_TRUE(r.converged);
}

}  // namespace
}  // namespace hpamg

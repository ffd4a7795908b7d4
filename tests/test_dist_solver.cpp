// Distributed AMG pipeline tests: SpGEMM/RAP vs sequential, distributed
// coarsening vs sequential, distributed interpolation, and end-to-end
// convergence of the multi-node solver configurations (Table 4 schemes).
#include <gtest/gtest.h>

#include "amg/interp_extpi.hpp"
#include "amg/pmis.hpp"
#include "amg/strength.hpp"
#include "dist/dist_coarsen.hpp"
#include "dist/dist_interp.hpp"
#include "dist/dist_krylov.hpp"
#include "dist/dist_spgemm.hpp"
#include "dist/dist_transpose.hpp"
#include "gen/reservoir.hpp"
#include "gen/stencil.hpp"
#include "krylov/krylov.hpp"
#include "matrix/transpose.hpp"
#include "perfmodel/attrib.hpp"
#include "spgemm/rap.hpp"
#include "spgemm/spgemm.hpp"
#include "support/metrics.hpp"
#include "test_util.hpp"

namespace hpamg {
namespace {


/// Dense-free reference for y = A^T x.
void spmv_transpose_ref(const CSRMatrix& A, const Vector& x, Vector& y) {
  std::fill(y.begin(), y.end(), 0.0);
  for (Int i = 0; i < A.nrows; ++i)
    for (Int k = A.rowptr[i]; k < A.rowptr[i + 1]; ++k)
      y[A.colidx[k]] += A.values[k] * x[i];
}

class DistRanks : public ::testing::TestWithParam<int> {};

TEST_P(DistRanks, SpgemmMatchesSequential) {
  CSRMatrix A = lap2d_5pt(14, 14);
  CSRMatrix ref = spgemm_onepass(A, A);
  ref.sort_rows();
  simmpi::run(GetParam(), [&](simmpi::Comm& c) {
    DistMatrix dA = distribute_csr(c, A);
    for (bool par : {true, false}) {
      DistSpgemmOptions o;
      o.variant = par ? Variant::kOptimized : Variant::kBaseline;
      o.parallel_renumber = par;
      DistSpgemmInfo info;
      DistMatrix dC = dist_spgemm(c, dA, dA, o, nullptr, &info);
      dC.validate();
      CSRMatrix C = gather_csr(c, dC);
      C.sort_rows();
      EXPECT_TRUE(csr_same_operator(ref, C, 1e-9));
      if (c.size() > 1) EXPECT_GT(info.gathered_rows, 0u);
    }
  });
}

/// M's rows over `row_starts` (an even partition when null); the column
/// partition is even unless M is square.
DistMatrix distribute_rows(simmpi::Comm& c, const CSRMatrix& M,
                           const std::vector<Long>* row_starts = nullptr) {
  return build_dist_matrix(
      c, M.nrows, M.ncols,
      [&](Long grow, std::vector<std::pair<Long, double>>& out) {
        const Int i = Int(grow);
        for (Int k = M.rowptr[i]; k < M.rowptr[i + 1]; ++k)
          out.push_back({Long(M.colidx[k]), M.values[k]});
      },
      row_starts);
}

/// dist_rap of each variant against its serial fused kernel (same pattern,
/// values to 1e-12), the kept R bitwise P^T, and one gathered row per
/// R.colmap entry plus one per external column of R·A.
void expect_rap_matches_serial(simmpi::Comm& c, const CSRMatrix& A,
                               const CSRMatrix& P,
                               const std::vector<Long>* row_starts) {
  const CSRMatrix R = transpose_parallel(P);
  DistMatrix dA = distribute_rows(c, A, row_starts);
  DistMatrix dP = distribute_rows(c, P, row_starts);
  for (Variant v : {Variant::kOptimized, Variant::kBaseline}) {
    CSRMatrix ref = v == Variant::kOptimized ? rap_fused_rowwise(R, A, P)
                                             : rap_fused_hypre(R, A, P);
    ref.sort_rows();
    DistSpgemmOptions o;
    o.variant = v;
    DistSpgemmInfo info;
    DistMatrix dR;
    DistMatrix dC = dist_rap(c, dA, dP, o, nullptr, &info, &dR);
    dC.validate();
    const CSRMatrix C = gather_csr(c, dC);
    EXPECT_EQ(C.rowptr, ref.rowptr);
    EXPECT_EQ(C.colidx, ref.colidx);
    ASSERT_EQ(C.values.size(), ref.values.size());
    for (std::size_t k = 0; k < ref.values.size(); ++k)
      EXPECT_NEAR(C.values[k], ref.values[k],
                  1e-12 * std::max(1.0, std::abs(ref.values[k])));
    const CSRMatrix Rg = gather_csr(c, dR);
    EXPECT_EQ(Rg.rowptr, R.rowptr);
    EXPECT_EQ(Rg.colidx, R.colidx);
    EXPECT_EQ(Rg.values, R.values);
    const DistMatrix dRA = dist_spgemm(c, dR, dA, o);
    EXPECT_EQ(info.gathered_rows, dR.colmap.size() + dRA.colmap.size());
  }
}

TEST_P(DistRanks, RapMatchesSequential) {
  CSRMatrix A = lap2d_5pt(12, 12);
  CSRMatrix S = strength_matrix(A, {0.25, 0.8});
  CSRMatrix ST = transpose_parallel(S);
  PmisOptions po;
  CFMarker cf = pmis_coarsen(S, ST, po);
  ExtPIOptions eo;
  const CSRMatrix P = extpi_interp(A, S, cf, eo);
  // Fine row i interpolates from coarse columns nc-1-i/3 and the one
  // below it: the last rank's rows reach only another rank's C points.
  const Int nc = A.nrows / 3;
  std::vector<Triplet> rev;
  for (Int i = 0; i < A.nrows; ++i) {
    rev.push_back({i, nc - 1 - i / 3, 1.0});
    if (nc - 1 - i / 3 > 0) rev.push_back({i, nc - 2 - i / 3, 0.5});
  }
  const CSRMatrix Prev = CSRMatrix::from_triplets(A.nrows, nc, rev);
  simmpi::run(GetParam(), [&](simmpi::Comm& c) {
    expect_rap_matches_serial(c, A, P, nullptr);
    expect_rap_matches_serial(c, A, Prev, nullptr);
    if (c.size() == 1) return;
    // Rank 1 owns no rows.
    std::vector<Long> starts = even_partition(A.nrows, c.size());
    starts[1] = starts[2];
    expect_rap_matches_serial(c, A, P, &starts);
    expect_rap_matches_serial(c, A, Prev, &starts);
  });
}

TEST_P(DistRanks, StrengthAndPmisMatchSequential) {
  CSRMatrix A = lap2d_5pt(15, 15, 4.0);
  StrengthOptions so;
  CSRMatrix S = strength_matrix(A, so);
  CSRMatrix ST = transpose_parallel(S);
  PmisOptions po;  // counter RNG keyed on global index: partition-invariant
  CFMarker ref = pmis_coarsen(S, ST, po);
  simmpi::run(GetParam(), [&](simmpi::Comm& c) {
    DistMatrix dA = distribute_csr(c, A);
    DistMatrix dS = dist_strength(dA, so);
    // Strength pattern matches the sequential operator.
    CSRMatrix Sg = gather_csr(c, dS);
    EXPECT_TRUE(csr_approx_equal(S, Sg));
    DistMatrix dST = dist_transpose(c, dS);
    CFMarker cf = dist_pmis(c, dS, dST, po);
    const Long r0 = dA.first_row();
    for (Int i = 0; i < dA.local_rows(); ++i)
      EXPECT_EQ(cf[i] > 0, ref[r0 + i] > 0) << "point " << r0 + i;
  });
}

TEST_P(DistRanks, AggressivePmisMatchesSequential) {
  // Global first-pass C ids are serial pmis_aggressive's compact C1 index,
  // so the distance-two graph, its measures and both markers match the
  // serial ones at every partition.
  for (const CSRMatrix& A :
       {lap3d_7pt(20, 20, 20), lap3d_7pt(14, 14, 14, 1.0, 8.0)}) {
    StrengthOptions so;
    so.threshold = 0.25;
    so.max_row_sum = 0.8;
    CSRMatrix S = strength_matrix(A, so);
    CSRMatrix ST = transpose_parallel(S);
    PmisOptions po;
    CFMarker first_ref;
    const CFMarker ref = pmis_aggressive(S, ST, po, &first_ref);
    simmpi::run(GetParam(), [&](simmpi::Comm& c) {
      DistMatrix dA = distribute_csr(c, A);
      DistMatrix dS = dist_strength(dA, so);
      DistMatrix dST = dist_transpose(c, dS);
      CFMarker first;
      const CFMarker cf = dist_pmis_aggressive(c, dS, dST, po, &first);
      ASSERT_EQ(Int(cf.size()), dA.local_rows());
      ASSERT_EQ(Int(first.size()), dA.local_rows());
      Long differ = 0, differ_first = 0;
      for (Int i = 0; i < dA.local_rows(); ++i) {
        differ += cf[i] != ref[dA.first_row() + i];
        differ_first += first[i] != first_ref[dA.first_row() + i];
      }
      EXPECT_EQ(c.allreduce_sum(differ), 0) << "n=" << A.nrows;
      EXPECT_EQ(c.allreduce_sum(differ_first), 0) << "n=" << A.nrows;
    });
  }
}

TEST_P(DistRanks, ExtPIInterpMatchesSequential) {
  // The 27-point operator's strong F neighbors reach across rank
  // boundaries at distance two, so Ĉ takes C points no colmap names.
  for (const CSRMatrix& A : {lap2d_5pt(13, 13), lap3d_27pt(10, 10, 10)}) {
    StrengthOptions so;
    CSRMatrix S = strength_matrix(A, so);
    CSRMatrix ST = transpose_parallel(S);
    PmisOptions po;
    CFMarker cf = pmis_coarsen(S, ST, po);
    // Compare UNTRUNCATED operators: Eq. (1) is order-independent as a
    // set, whereas max_elmts truncation breaks weight ties by construction
    // order, which legitimately differs between the two implementations.
    ExtPIOptions eo;
    eo.truncation.trunc_fact = 0.0;
    eo.truncation.max_elmts = 0;
    CSRMatrix Pref = extpi_interp(A, S, cf, eo);
    Pref.sort_rows();
    simmpi::run(GetParam(), [&](simmpi::Comm& c) {
      DistMatrix dA = distribute_csr(c, A);
      DistMatrix dS = dist_strength(dA, so);
      DistMatrix dST = dist_transpose(c, dS);
      CFMarker dcf = dist_pmis(c, dS, dST, po);
      for (Int i = 0; i < dA.local_rows(); ++i)
        ASSERT_EQ(dcf[i], cf[dA.first_row() + i]) << "row " << i;
      CoarseNumbering cn = coarse_numbering(c, dcf);
      for (bool filtered : {true, false}) {
        DistInterpOptions io;
        io.truncation.trunc_fact = 0.0;
        io.truncation.max_elmts = 0;
        io.filtered_exchange = filtered;
        DistMatrix dP = dist_extpi_interp(c, dA, dS, dST, dcf, cn, io);
        dP.validate();
        CSRMatrix P = gather_csr(c, dP);
        P.sort_rows();
        EXPECT_TRUE(csr_approx_equal(Pref, P, 1e-10))
            << "n=" << A.nrows << " filtered=" << filtered;
      }
      // With the paper's truncation (0.1 / 4): row caps hold and row sums
      // match the untruncated sums (truncation rescales to preserve them).
      DistInterpOptions io;
      DistMatrix dP = dist_extpi_interp(c, dA, dS, dST, dcf, cn, io);
      CSRMatrix P = gather_csr(c, dP);
      for (Int i = 0; i < P.nrows; ++i) {
        if (cf[i] > 0) continue;
        EXPECT_LE(P.row_nnz(i), 4);
        double sp = 0, sr = 0;
        for (Int k = P.rowptr[i]; k < P.rowptr[i + 1]; ++k) sp += P.values[k];
        for (Int k = Pref.rowptr[i]; k < Pref.rowptr[i + 1]; ++k)
          sr += Pref.values[k];
        EXPECT_NEAR(sp, sr, 1e-9 * std::max(1.0, std::abs(sr)));
      }
    });
  }
}

TEST_P(DistRanks, FilteredExchangeShrinksVolume) {
  // On an isotropic Laplacian every connection is strong and opposite-sign,
  // so the §4.3 filter keeps everything; anisotropy creates the weak
  // entries the filter strips (as do coarse-level operators in a full
  // hierarchy).
  CSRMatrix A = lap3d_7pt(10, 10, 10, 1.0, 8.0);
  if (GetParam() == 1) GTEST_SKIP() << "no exchange with one rank";
  simmpi::run(GetParam(), [&](simmpi::Comm& c) {
    DistMatrix dA = distribute_csr(c, A);
    StrengthOptions so;
    DistMatrix dS = dist_strength(dA, so);
    DistMatrix dST = dist_transpose(c, dS);
    CFMarker cf = dist_pmis(c, dS, dST);
    CoarseNumbering cn = coarse_numbering(c, cf);
    DistInterpInfo full, filt;
    DistInterpOptions io;
    io.filtered_exchange = false;
    dist_extpi_interp(c, dA, dS, dST, cf, cn, io, nullptr, &full);
    io.filtered_exchange = true;
    dist_extpi_interp(c, dA, dS, dST, cf, cn, io, nullptr, &filt);
    const Long f = c.allreduce_sum(Long(full.gathered_bytes));
    const Long g = c.allreduce_sum(Long(filt.gathered_bytes));
    if (c.rank() == 0) {
      EXPECT_LT(double(g), 0.8 * double(f))
          << "filtered " << g << " vs full " << f;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, DistRanks, ::testing::Values(1, 2, 4, 7));

struct DistScheme {
  const char* name;
  InterpKind interp;
  Int aggressive;
  Variant variant;
};

class DistSolveSweep : public ::testing::TestWithParam<DistScheme> {};

TEST_P(DistSolveSweep, FgmresConvergesOn4Ranks) {
  const DistScheme s = GetParam();
  CSRMatrix A = lap3d_7pt(12, 12, 12);
  simmpi::run(4, [&](simmpi::Comm& c) {
    DistMatrix dA = distribute_csr(c, A);
    DistAMGOptions o;
    o.variant = s.variant;
    o.interp = s.interp;
    o.num_aggressive_levels = s.aggressive;
    DistHierarchy h = dist_amg_setup(c, dA, o);
    Vector b(dA.local_rows(), 1.0), x(dA.local_rows(), 0.0);
    DistSolveResult r = dist_fgmres(c, dA, h, b, x, 1e-7, 100);
    EXPECT_TRUE(r.converged) << s.name << " relres=" << r.final_relres;
    // The gathered solution solves the global system.
    Vector full = gather_vector(c, x, dA.row_starts);
    Vector ones(A.nrows, 1.0);
    if (c.rank() == 0)
      EXPECT_LT(test::relative_residual(A, full, ones), 1e-6);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, DistSolveSweep,
    ::testing::Values(
        DistScheme{"ei4_opt", InterpKind::kExtPI, 0, Variant::kOptimized},
        DistScheme{"2sei_opt", InterpKind::kExtPI2Stage, 1, Variant::kOptimized},
        DistScheme{"mp_opt", InterpKind::kMultipass, 1, Variant::kOptimized},
        DistScheme{"ei4_base", InterpKind::kExtPI, 0, Variant::kBaseline},
        DistScheme{"mp_base", InterpKind::kMultipass, 1, Variant::kBaseline}));

TEST(DistSolve, StandaloneAmgAndSingleRank) {
  CSRMatrix A = lap2d_5pt(25, 25);
  simmpi::run(1, [&](simmpi::Comm& c) {
    DistMatrix dA = distribute_csr(c, A);
    DistAMGOptions o;
    DistHierarchy h = dist_amg_setup(c, dA, o);
    Vector b(dA.local_rows(), 1.0), x(dA.local_rows(), 0.0);
    DistSolveResult r = dist_amg_solve(c, dA, h, b, x, 1e-7, 100);
    EXPECT_TRUE(r.converged);
  });
}

TEST(DistSolve, AmgSolveZeroRhsConvergesWithoutCycling) {
  // As AMGSolver::solve: the initial residual is checked before the first
  // cycle, so b = 0 (x = 0) is converged on entry.
  CSRMatrix A = lap2d_5pt(16, 16);
  for (int P : {1, 2}) {
    simmpi::run(P, [&](simmpi::Comm& c) {
      DistMatrix dA = distribute_csr(c, A);
      DistHierarchy h = dist_amg_setup(c, dA, DistAMGOptions{});
      Vector b(dA.local_rows(), 0.0), x(dA.local_rows(), 0.0);
      DistSolveResult r = dist_amg_solve(c, dA, h, b, x, 1e-7, 100);
      EXPECT_TRUE(r.converged) << "ranks=" << P;
      EXPECT_EQ(r.status, Status::kOk) << "ranks=" << P;
      EXPECT_EQ(r.iterations, 0) << "ranks=" << P;
    });
  }
}

TEST(DistSolve, SerialAndDistFgmresAgreeOnOneRank) {
  // dist_fgmres and serial fgmres run the same loop: on one rank, with the
  // same V-cycle as preconditioner, they take the same iterations and
  // their histories agree to rounding.
  CSRMatrix A = lap2d_5pt(30, 30);
  simmpi::run(1, [&](simmpi::Comm& c) {
    DistMatrix dA = distribute_csr(c, A);
    DistHierarchy h = dist_amg_setup(c, dA, DistAMGOptions{});
    Vector b(A.nrows, 1.0), xd(A.nrows, 0.0), xs(A.nrows, 0.0);
    DistSolveResult d = dist_fgmres(c, dA, h, b, xd, 1e-8, 100);
    auto pre = [&](const Vector& r, Vector& z) {
      std::fill(z.begin(), z.end(), 0.0);
      dist_vcycle(c, h, r, z);
    };
    KrylovOptions o;
    o.rtol = 1e-8;
    o.max_iterations = 100;
    KrylovResult s = fgmres(A, b, xs, o, pre);
    ASSERT_TRUE(d.converged);
    ASSERT_TRUE(s.converged);
    EXPECT_EQ(d.iterations, s.iterations);
    ASSERT_EQ(d.history.size(), s.history.size());
    for (std::size_t k = 0; k < d.history.size(); ++k)
      EXPECT_NEAR(d.history[k], s.history[k], 1e-9 * s.history[k]) << k;
    // The exit residual is recomputed as b - A x, whose cancellation at
    // relres ~1e-8 leaves only about eight significant digits.
    EXPECT_NEAR(d.final_relres, s.final_relres, 1e-6 * s.final_relres);
  });
}

TEST(DistSolve, IterationsStableAcrossRankCounts) {
  // The partitioning changes hybrid-GS smoothing slightly; iteration counts
  // must stay in a narrow band (the weak-scaling premise of Fig 6).
  CSRMatrix A = lap2d_5pt(30, 30);
  std::vector<Int> iters;
  for (int P : {1, 2, 4}) {
    Int it = 0;
    simmpi::run(P, [&](simmpi::Comm& c) {
      DistMatrix dA = distribute_csr(c, A);
      DistAMGOptions o;
      DistHierarchy h = dist_amg_setup(c, dA, o);
      Vector b(dA.local_rows(), 1.0), x(dA.local_rows(), 0.0);
      DistSolveResult r = dist_fgmres(c, dA, h, b, x, 1e-7, 100);
      if (c.rank() == 0) it = r.iterations;
    });
    iters.push_back(it);
  }
  for (Int it : iters) {
    EXPECT_GE(it, iters[0] - 3);
    EXPECT_LE(it, iters[0] + 3);
  }
}

TEST(DistSolve, SetupRecordsPhasesAndComm) {
  CSRMatrix A = lap3d_7pt(10, 10, 10);
  simmpi::run(3, [&](simmpi::Comm& c) {
    DistMatrix dA = distribute_csr(c, A);
    DistAMGOptions o;
    DistHierarchy h = dist_amg_setup(c, dA, o);
    EXPECT_GT(h.setup_times.get("Interp"), 0.0);
    EXPECT_GT(h.setup_times.get("RAP"), 0.0);
    EXPECT_GT(h.setup_comm.messages_sent, 0u);
    EXPECT_GT(h.phase_comm["RAP"].bytes_sent, 0u);
    EXPECT_GT(h.operator_complexity(), 1.0);
    EXPECT_LT(h.operator_complexity(), 6.0);
  });
}


TEST(DistSolve, Ei4InterpCountsBytes) {
  // The ei(4) interpolation counts its memory traffic, so the distributed
  // Interp phase gets a roofline row (the snapshot drops zero-byte cells).
  CSRMatrix A = lap3d_7pt(10, 10, 10);
  metrics::reset();
  metrics::enable();
  attrib::reset();
  simmpi::run(2, [&](simmpi::Comm& c) {
    DistMatrix dA = distribute_csr(c, A);
    DistAMGOptions o;
    o.interp = InterpKind::kExtPI;
    o.truncation.max_elmts = 4;
    (void)dist_amg_setup(c, dA, o);
  });
  const std::vector<RooflineEntry> roof = attrib::snapshot();
  attrib::reset();
  metrics::disable();
  metrics::reset();
  std::uint64_t interp_bytes = 0;
  for (const RooflineEntry& e : roof)
    if (e.kernel == "setup.interp" && e.level == 0) interp_bytes += e.bytes;
  EXPECT_GT(interp_bytes, 0u);
}

TEST(DistSolve, CoarseFallbackWhenMaxLevelsCaps) {
  // max_levels = 2 leaves a coarse level too big to replicate (the LU
  // replication cap is 4096 rows); the distributed GS fallback must keep
  // the cycle convergent.
  CSRMatrix A = lap2d_5pt(120, 120);
  simmpi::run(3, [&](simmpi::Comm& c) {
    DistMatrix dA = distribute_csr(c, A);
    DistAMGOptions o;
    o.max_levels = 2;
    DistHierarchy h = dist_amg_setup(c, dA, o);
    EXPECT_EQ(h.coarse_lu.size(), 0);
    Vector b(dA.local_rows(), 1.0), x(dA.local_rows(), 0.0);
    DistSolveResult r = dist_fgmres(c, dA, h, b, x, 1e-7, 200);
    EXPECT_TRUE(r.converged);
  });
}

TEST(DistSolve, Ei4HierarchyIsPinned) {
  // Table 4 ei(4) on 4 ranks, pinned: a rewrite of the distributed
  // setup kernels must keep every level's operator. max_elmts = 4 breaks weight
  // ties by Ĉ insertion order, so a changed insertion order moves the
  // column-weighted checksum of P, and usually the coarse nnz.
  struct Level {
    Long rows, a_nnz, p_nnz;
    double p_checksum;  ///< sum over P entries of (column + 1) * value
  };
  const Level want[] = {{4096, 97336, 15145, 608768.46693527733},
                        {348, 14644, 1086, 12750.866890237328},
                        {102, 4036, 151, 1538.6091259901386},
                        {51, 1357, 0, 0.0}};
  CSRMatrix A = lap3d_27pt(16, 16, 16);
  simmpi::run(4, [&](simmpi::Comm& c) {
    DistMatrix dA = distribute_csr(c, A);
    DistAMGOptions o;
    o.strength.threshold = 0.25;
    o.strength.max_row_sum = 0.8;
    o.truncation.trunc_fact = 0.1;
    o.truncation.max_elmts = 4;
    o.interp = InterpKind::kExtPI;
    DistHierarchy h = dist_amg_setup(c, dA, o);
    ASSERT_EQ(h.levels.size(), std::size(want));
    for (std::size_t l = 0; l < h.levels.size(); ++l) {
      const DistLevel& L = h.levels[l];
      EXPECT_EQ(L.A.global_rows, want[l].rows) << "level " << l;
      EXPECT_EQ(c.allreduce_sum(L.A.nnz_local()), want[l].a_nnz)
          << "level " << l;
      EXPECT_EQ(c.allreduce_sum(L.P.nnz_local()), want[l].p_nnz)
          << "level " << l;
      if (L.P.global_rows == 0) continue;
      CSRMatrix P = gather_csr(c, L.P);
      double sum = 0.0;
      for (Int i = 0; i < P.nrows; ++i)
        for (Int k = P.rowptr[i]; k < P.rowptr[i + 1]; ++k)
          sum += (P.colidx[k] + 1) * P.values[k];
      EXPECT_NEAR(sum, want[l].p_checksum, 1e-10 * want[l].p_checksum)
          << "level " << l;
    }
    Vector b(dA.local_rows(), 1.0), x(dA.local_rows(), 0.0);
    DistSolveResult r = dist_fgmres(c, dA, h, b, x, 1e-7, 100);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.iterations, 7);
  });
}

TEST(DistSolve, TwoStageEiHierarchyIsPinned) {
  // Table 4 2s-ei on 4 ranks, pinned: level 0 runs the stage-1 Galerkin
  // product A1 = P1^T A P1 and the composite P1 P2 besides the level RAP.
  struct Level {
    Long rows, a_nnz, p_nnz;
  };
  const Level want[] = {{4096, 97336, 14575}, {65, 1857, 198}, {19, 297, 0}};
  CSRMatrix A = lap3d_27pt(16, 16, 16);
  simmpi::run(4, [&](simmpi::Comm& c) {
    DistMatrix dA = distribute_csr(c, A);
    DistAMGOptions o;
    o.strength.threshold = 0.25;
    o.strength.max_row_sum = 0.8;
    o.truncation.trunc_fact = 0.1;
    o.truncation.max_elmts = 4;
    o.interp = InterpKind::kExtPI2Stage;
    o.num_aggressive_levels = 1;
    DistHierarchy h = dist_amg_setup(c, dA, o);
    ASSERT_EQ(h.levels.size(), std::size(want));
    for (std::size_t l = 0; l < h.levels.size(); ++l) {
      const DistLevel& L = h.levels[l];
      EXPECT_EQ(L.A.global_rows, want[l].rows) << "level " << l;
      EXPECT_EQ(c.allreduce_sum(L.A.nnz_local()), want[l].a_nnz)
          << "level " << l;
      EXPECT_EQ(c.allreduce_sum(L.P.nnz_local()), want[l].p_nnz)
          << "level " << l;
    }
    Vector b(dA.local_rows(), 1.0), x(dA.local_rows(), 0.0);
    DistSolveResult r = dist_fgmres(c, dA, h, b, x, 1e-7, 100);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.iterations, 11);
  });
}

TEST(DistSolve, MultipassInterpMatchesSequentialUntruncated) {
  CSRMatrix A = lap2d_5pt(13, 13);
  StrengthOptions so;
  CSRMatrix S = strength_matrix(A, so);
  CSRMatrix ST = transpose_parallel(S);
  PmisOptions po;
  CFMarker cf = pmis_coarsen(S, ST, po);  // same splitting both sides
  MultipassOptions mo;
  mo.truncation.trunc_fact = 0.0;
  mo.truncation.max_elmts = 0;
  CSRMatrix Pref = multipass_interp(A, S, cf, mo);
  Pref.sort_rows();
  simmpi::run(3, [&](simmpi::Comm& c) {
    DistMatrix dA = distribute_csr(c, A);
    DistMatrix dS = dist_strength(dA, so);
    DistMatrix dST = dist_transpose(c, dS);
    CFMarker dcf = dist_pmis(c, dS, dST, po);
    CoarseNumbering cn = coarse_numbering(c, dcf);
    DistInterpOptions io;
    io.truncation.trunc_fact = 0.0;
    io.truncation.max_elmts = 0;
    DistMatrix dP = dist_multipass_interp(c, dA, dS, dcf, cn, io);
    CSRMatrix P = gather_csr(c, dP);
    P.sort_rows();
    EXPECT_TRUE(csr_approx_equal(Pref, P, 1e-10));
  });
}

TEST(DistSolve, SpmvTransposeMatchesSequential) {
  CSRMatrix A = test::random_sparse(90, 60, 4, 11);
  Vector x(90);
  for (Int i = 0; i < 90; ++i) x[i] = 0.1 * i - 3.0;
  Vector ref(60);
  spmv_transpose_ref(A, x, ref);
  simmpi::run(4, [&](simmpi::Comm& c) {
    DistMatrix dA = build_dist_matrix(
        c, A.nrows, A.ncols,
        [&](Long grow, std::vector<std::pair<Long, double>>& out) {
          const Int i = Int(grow);
          for (Int k = A.rowptr[i]; k < A.rowptr[i + 1]; ++k)
            out.push_back({Long(A.colidx[k]), A.values[k]});
        });
    Vector xl(dA.local_rows());
    for (Int i = 0; i < dA.local_rows(); ++i) xl[i] = x[dA.first_row() + i];
    Vector yl;
    dist_spmv_transpose(c, dA, xl, yl);
    const Long c0 = dA.first_col();
    for (Int i = 0; i < dA.local_cols(); ++i)
      ASSERT_NEAR(yl[i], ref[c0 + i], 1e-12);
  });
}

TEST(DistSolve, ReservoirStrongScalingConfiguration) {
  // Fig 8 configuration in miniature: reservoir matrix, rtol 1e-5.
  CSRMatrix A = reservoir_matrix(10, 10, 10);
  simmpi::run(4, [&](simmpi::Comm& c) {
    DistMatrix dA = distribute_csr(c, A);
    DistAMGOptions o;
    o.interp = InterpKind::kExtPI;
    DistHierarchy h = dist_amg_setup(c, dA, o);
    Vector b(dA.local_rows(), 1.0), x(dA.local_rows(), 0.0);
    DistSolveResult r = dist_fgmres(c, dA, h, b, x, 1e-5, 60);
    EXPECT_TRUE(r.converged);
  });
}

}  // namespace
}  // namespace hpamg

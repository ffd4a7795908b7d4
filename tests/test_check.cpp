// Invariant-checker tests (support/check.hpp): every corrupted structure
// must produce the documented Status::kInvalidInput with a diagnosis in
// check::last_error() — never UB, never silence. The validators are always
// compiled, so this suite runs identically in release and -DHPAMG_CHECK=ON
// builds; the macro-gated call sites are additionally exercised end-to-end
// by the whole test suite under a check-enabled CI configuration.
#include <gtest/gtest.h>

#include <limits>

#include "amg/hierarchy.hpp"
#include "amg/solver.hpp"
#include "dist/dist_matrix.hpp"
#include "dist/halo.hpp"
#include "gen/stencil.hpp"
#include "support/check.hpp"
#include "test_util.hpp"

namespace hpamg {
namespace {

CSRMatrix small_lap() { return lap2d_5pt(6, 5); }

// ---- CSR well-formedness -------------------------------------------------

TEST(CheckCSR, AcceptsWellFormed) {
  const CSRMatrix A = small_lap();
  EXPECT_EQ(check::csr_well_formed(A, "A"), Status::kOk);
  EXPECT_EQ(check::last_error(), "");
}

TEST(CheckCSR, UnsortedColumnsRejected) {
  CSRMatrix A = small_lap();
  // Swap two entries of a multi-entry row: structure intact, order broken.
  Int row = -1;
  for (Int i = 0; i < A.nrows; ++i)
    if (A.row_nnz(i) >= 2) { row = i; break; }
  ASSERT_GE(row, 0);
  std::swap(A.colidx[A.rowptr[row]], A.colidx[A.rowptr[row] + 1]);
  EXPECT_EQ(check::csr_well_formed(A, "A"), Status::kInvalidInput);
  EXPECT_NE(check::last_error().find("not strictly ascending"),
            std::string::npos);
  // Without the sorted requirement the same matrix passes (duplicate
  // tolerance for builders that sort later).
  EXPECT_EQ(check::csr_well_formed(A, "A", /*require_sorted_unique=*/false),
            Status::kOk);
}

TEST(CheckCSR, OutOfBoundsColumnRejected) {
  CSRMatrix A = small_lap();
  A.colidx[0] = A.ncols + 3;
  EXPECT_EQ(check::csr_well_formed(A, "A"), Status::kInvalidInput);
  EXPECT_NE(check::last_error().find("outside"), std::string::npos);
  A.colidx[0] = -1;
  EXPECT_EQ(check::csr_well_formed(A, "A"), Status::kInvalidInput);
}

TEST(CheckCSR, BrokenRowptrRejected) {
  CSRMatrix A = small_lap();
  A.rowptr[1] = A.rowptr[2] + 1;  // non-monotone
  EXPECT_EQ(check::csr_well_formed(A, "A"), Status::kInvalidInput);
  EXPECT_NE(check::last_error().find("monotone"), std::string::npos);

  CSRMatrix B = small_lap();
  B.rowptr.pop_back();  // wrong size
  EXPECT_EQ(check::csr_well_formed(B, "B"), Status::kInvalidInput);

  CSRMatrix C = small_lap();
  C.values.pop_back();  // nnz disagreement
  EXPECT_EQ(check::csr_well_formed(C, "C"), Status::kInvalidInput);
}

TEST(CheckCSR, NonFiniteValueRejectedAtFullDepth) {
  CSRMatrix A = small_lap();
  EXPECT_EQ(check::csr_finite(A, "A"), Status::kOk);
  A.values[2] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(check::csr_finite(A, "A"), Status::kInvalidInput);
  EXPECT_NE(check::last_error().find("non-finite"), std::string::npos);
}

// ---- Interpolation / hierarchy consistency -------------------------------

TEST(CheckInterp, DimensionAgreement) {
  CSRMatrix P = CSRMatrix::identity(8);
  EXPECT_EQ(check::interp_shape(P, 8, 8, "P"), Status::kOk);
  EXPECT_EQ(check::interp_shape(P, 10, 8, "P"), Status::kInvalidInput);
  EXPECT_NE(check::last_error().find("expected 10 x 8"), std::string::npos);
}

TEST(CheckHierarchy, BuiltHierarchyPasses) {
  for (Variant v : {Variant::kBaseline, Variant::kOptimized}) {
    AMGOptions o;
    o.variant = v;
    Hierarchy h = build_hierarchy(lap2d_5pt(24, 24), o);
    ASSERT_GE(h.num_levels(), 2);
    EXPECT_EQ(check_hierarchy(h), Status::kOk) << check::last_error();
  }
}

TEST(CheckHierarchy, MismatchedInterpDimsRejected) {
  AMGOptions o;
  o.variant = Variant::kBaseline;
  Hierarchy h = build_hierarchy(lap2d_5pt(24, 24), o);
  ASSERT_GE(h.num_levels(), 2);
  // Corrupt P's column count: pretend the coarse space is one bigger.
  h.levels[0].P.ncols += 1;
  EXPECT_EQ(check_hierarchy(h), Status::kInvalidInput);
  EXPECT_NE(check::last_error().find("interpolation P"), std::string::npos);
}

TEST(CheckHierarchy, BrokenGalerkinChainRejected) {
  AMGOptions o;
  o.variant = Variant::kBaseline;
  Hierarchy h = build_hierarchy(lap2d_5pt(24, 24), o);
  ASSERT_GE(h.num_levels(), 2);
  // Grow the claimed coarse space consistently with P so only the size
  // chain (next level's row count) disagrees.
  h.levels[0].nc += 1;
  h.levels[0].P.ncols += 1;
  EXPECT_EQ(check_hierarchy(h), Status::kInvalidInput);
  EXPECT_NE(check::last_error().find("Galerkin chain"), std::string::npos);
  h.levels[0].nc -= 1;
  h.levels[0].P.ncols -= 1;
  EXPECT_EQ(check_hierarchy(h), Status::kOk) << check::last_error();
}

TEST(CheckHierarchy, GsPlanMustViewItsOwnLevel) {
  Hierarchy h = build_hierarchy(lap2d_5pt(24, 24), {});
  ASSERT_GE(h.num_levels(), 3);
  ASSERT_TRUE(h.levels[0].gs_opt && h.levels[1].gs_opt);
  // Each plan reads its level operator in place; a swapped plan reads the
  // wrong level's arrays.
  std::swap(h.levels[0].gs_opt, h.levels[1].gs_opt);
  EXPECT_EQ(check_hierarchy(h), Status::kInvalidInput);
  EXPECT_NE(check::last_error().find("hybrid GS plan"), std::string::npos);
  std::swap(h.levels[0].gs_opt, h.levels[1].gs_opt);
  EXPECT_EQ(check_hierarchy(h), Status::kOk) << check::last_error();
  // A copy of the operator has the same values in other buffers.
  const CSRMatrix copy = h.levels[1].A;
  h.levels[1].gs_opt = std::make_unique<HybridGSOptimized>(copy, 2);
  EXPECT_EQ(check_hierarchy(h), Status::kInvalidInput);
}

// ---- Partitions and distributed ownership --------------------------------

TEST(CheckPartition, ContiguousPartitionRules) {
  EXPECT_EQ(check::partition({0, 4, 9}, 2, 9, "p"), Status::kOk);
  // Wrong boundary count.
  EXPECT_EQ(check::partition({0, 9}, 2, 9, "p"), Status::kInvalidInput);
  // Does not start at zero.
  EXPECT_EQ(check::partition({1, 4, 9}, 2, 9, "p"), Status::kInvalidInput);
  // Non-monotone.
  EXPECT_EQ(check::partition({0, 6, 4}, 2, 4, "p"), Status::kInvalidInput);
  // Does not cover the global count.
  EXPECT_EQ(check::partition({0, 4, 8}, 2, 9, "p"), Status::kInvalidInput);
}

TEST(CheckOwnership, ColmapRules) {
  // Rank owns [4, 8) of 12 global columns.
  EXPECT_EQ(check::colmap_ownership({1, 3, 8, 11}, 4, 8, 12, "cm"),
            Status::kOk);
  // Owned column leaked into the halo.
  EXPECT_EQ(check::colmap_ownership({1, 5, 8}, 4, 8, 12, "cm"),
            Status::kInvalidInput);
  EXPECT_NE(check::last_error().find("own span"), std::string::npos);
  // Unsorted / duplicate.
  EXPECT_EQ(check::colmap_ownership({3, 1}, 4, 8, 12, "cm"),
            Status::kInvalidInput);
  EXPECT_EQ(check::colmap_ownership({1, 1}, 4, 8, 12, "cm"),
            Status::kInvalidInput);
  // Out of the global range.
  EXPECT_EQ(check::colmap_ownership({12}, 4, 8, 12, "cm"),
            Status::kInvalidInput);
}

TEST(CheckOwnership, DistMatrixPartitionAudit) {
  CSRMatrix A = lap2d_5pt(12, 11);
  simmpi::run(3, [&](simmpi::Comm& c) {
    DistMatrix dA = distribute_csr(c, A);
    EXPECT_EQ(dA.check_partition(c.size()), Status::kOk)
        << check::last_error();
    // Corrupt the colmap on one rank: claim an owned column as external.
    if (c.rank() == 1 && !dA.colmap.empty()) {
      dA.colmap[0] = dA.first_col();
      EXPECT_EQ(dA.check_partition(c.size()), Status::kInvalidInput);
    }
    // Corrupt the partition: rank boundary past the global row count.
    DistMatrix bad = distribute_csr(c, A);
    bad.row_starts.back() += 1;
    EXPECT_EQ(bad.check_partition(c.size()), Status::kInvalidInput);
  });
}

// ---- Halo symmetry -------------------------------------------------------

TEST(CheckHalo, MirroredCountsPass) {
  // 3 ranks as seen from rank 1: peers claim what rank 1 expects.
  EXPECT_EQ(check::halo_counts_mirror({4, 0, 7}, {4, 0, 7}, 1, "halo"),
            Status::kOk);
}

TEST(CheckHalo, AsymmetricListsRejected) {
  EXPECT_EQ(check::halo_counts_mirror({4, 0, 7}, {4, 0, 5}, 1, "halo"),
            Status::kInvalidInput);
  EXPECT_NE(check::last_error().find("not mirrored"), std::string::npos);
  // A peer this rank is not expecting anything from.
  EXPECT_EQ(check::halo_counts_mirror({4, 0, 1}, {4, 0, 0}, 1, "halo"),
            Status::kInvalidInput);
  // Table shape disagreement.
  EXPECT_EQ(check::halo_counts_mirror({4, 0}, {4, 0, 0}, 1, "halo"),
            Status::kInvalidInput);
}

TEST(CheckHalo, BuiltExchangeIsSymmetric) {
  CSRMatrix A = lap2d_5pt(10, 9);
  simmpi::run(4, [&](simmpi::Comm& c) {
    DistMatrix dA = distribute_csr(c, A);
    HaloExchange halo(c, dA.colmap, dA.row_starts, true);
    EXPECT_EQ(halo.check_symmetry(), Status::kOk) << check::last_error();
  });
}

// ---- Vector shapes and enforcement ---------------------------------------

TEST(CheckVectors, ShapeMismatchRejected) {
  EXPECT_EQ(check::vectors_match(5, 5, 5, "solve"), Status::kOk);
  EXPECT_EQ(check::vectors_match(5, 4, 5, "solve"), Status::kInvalidInput);
  EXPECT_EQ(check::vectors_match(5, 5, 6, "solve"), Status::kInvalidInput);
}

TEST(CheckEnforce, EscalatesToSolverError) {
  CSRMatrix A = small_lap();
  A.colidx[0] = -7;
  try {
    check::enforce(check::csr_well_formed(A, "bad matrix"));
    FAIL() << "enforce() must throw on a failed validator";
  } catch (const SolverError& e) {
    EXPECT_EQ(e.status(), Status::kInvalidInput);
    EXPECT_NE(std::string(e.what()).find("bad matrix"), std::string::npos);
  }
  // Passing validators do not throw and clear the diagnosis.
  check::enforce(check::csr_well_formed(small_lap(), "good matrix"));
  EXPECT_EQ(check::last_error(), "");
}

TEST(CheckConfig, DepthAndCompileGates) {
  // depth() is process-wide and environment-driven; whatever it is, the
  // accessors must agree with each other and with the build flag.
  const check::Depth d = check::depth();
  EXPECT_GE(int(d), 0);
  EXPECT_LE(int(d), 2);
  if (!check::kCompiled) {
    EXPECT_FALSE(check::active(check::Depth::kCheap));
    EXPECT_FALSE(check::active(check::Depth::kFull));
  } else {
    EXPECT_EQ(check::active(check::Depth::kCheap),
              int(d) >= int(check::Depth::kCheap));
    EXPECT_EQ(check::active(check::Depth::kFull),
              int(d) >= int(check::Depth::kFull));
  }
}

}  // namespace
}  // namespace hpamg

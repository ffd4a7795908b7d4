// Tests for the CSR core, dense bridge, transpose, permutation, vector ops
// and MatrixMarket I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "gen/stencil.hpp"
#include "matrix/csr.hpp"
#include "matrix/dense.hpp"
#include "matrix/io.hpp"
#include "matrix/permute.hpp"
#include "matrix/transpose.hpp"
#include "matrix/vector_ops.hpp"
#include "test_util.hpp"

namespace hpamg {
namespace {

using test::random_sparse;
using test::random_spd;

// ------------------------------------------------------------------ csr ----

TEST(Csr, FromTripletsSortsAndSumsDuplicates) {
  std::vector<Triplet> t = {{1, 2, 1.0}, {0, 1, 2.0}, {1, 2, 3.0}, {1, 0, 5.0}};
  CSRMatrix A = CSRMatrix::from_triplets(2, 3, t);
  A.validate();
  EXPECT_TRUE(A.rows_sorted());
  EXPECT_EQ(A.nnz(), 3);
  EXPECT_DOUBLE_EQ(A.at(1, 2), 4.0);
  EXPECT_DOUBLE_EQ(A.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(A.at(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(A.at(0, 0), 0.0);
}

TEST(Csr, FromTripletsRejectsOutOfRange) {
  EXPECT_THROW(CSRMatrix::from_triplets(2, 2, {{2, 0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(CSRMatrix::from_triplets(2, 2, {{0, -1, 1.0}}),
               std::invalid_argument);
}

TEST(Csr, Identity) {
  CSRMatrix I = CSRMatrix::identity(5);
  I.validate();
  EXPECT_EQ(I.nnz(), 5);
  for (Int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(I.diag(i), 1.0);
}

TEST(Csr, SortRows) {
  CSRMatrix A(2, 4);
  A.rowptr = {0, 3, 4};
  A.colidx = {3, 0, 2, 1};
  A.values = {3.0, 0.0, 2.0, 1.0};
  EXPECT_FALSE(A.rows_sorted());
  A.sort_rows();
  EXPECT_TRUE(A.rows_sorted());
  EXPECT_EQ(A.colidx, (std::vector<Int>{0, 2, 3, 1}));
  EXPECT_EQ(A.values, (std::vector<double>{0.0, 2.0, 3.0, 1.0}));
}

TEST(Csr, ValidateCatchesCorruption) {
  CSRMatrix A(2, 2);
  A.rowptr = {0, 1, 2};
  A.colidx = {0, 5};  // out of range
  A.values = {1.0, 1.0};
  EXPECT_THROW(A.validate(), std::invalid_argument);
}

TEST(Csr, SameOperatorToleratesPatternDifferences) {
  // Same operator, one with an explicit zero.
  CSRMatrix A = CSRMatrix::from_triplets(2, 2, {{0, 0, 1.0}, {0, 1, 0.0}});
  CSRMatrix B = CSRMatrix::from_triplets(2, 2, {{0, 0, 1.0}});
  EXPECT_TRUE(csr_same_operator(A, B));
  CSRMatrix C = CSRMatrix::from_triplets(2, 2, {{0, 0, 1.5}});
  EXPECT_FALSE(csr_same_operator(A, C));
}

TEST(Csr, ApproxEqual) {
  CSRMatrix A = test::random_sparse(20, 20, 4, 1);
  CSRMatrix B = A;
  EXPECT_TRUE(csr_approx_equal(A, B));
  B.values[0] += 1e-15;
  EXPECT_TRUE(csr_approx_equal(A, B, 1e-12));
  B.values[0] += 1.0;
  EXPECT_FALSE(csr_approx_equal(A, B, 1e-12));
}

// ---------------------------------------------------------------- dense ----

TEST(Dense, RoundTripAndMultiply) {
  CSRMatrix A = random_sparse(12, 9, 3, 2);
  CSRMatrix B = random_sparse(9, 7, 3, 3);
  DenseMatrix dA = DenseMatrix::from_csr(A);
  EXPECT_TRUE(csr_same_operator(A, dA.to_csr()));
  DenseMatrix dC = dA.multiply(DenseMatrix::from_csr(B));
  EXPECT_EQ(dC.nrows, 12);
  EXPECT_EQ(dC.ncols, 7);
}

TEST(Dense, TransposeInvolution) {
  DenseMatrix d = DenseMatrix::from_csr(random_sparse(6, 9, 3, 4));
  DenseMatrix dtt = d.transpose().transpose();
  for (Int i = 0; i < d.nrows; ++i)
    for (Int j = 0; j < d.ncols; ++j) EXPECT_DOUBLE_EQ(d(i, j), dtt(i, j));
}

TEST(Lu, SolvesSpdSystem) {
  CSRMatrix A = random_spd(40, 4, 5);
  LUSolver lu(A);
  EXPECT_FALSE(lu.singular());
  Vector b(40, 1.0), x(40, 0.0);
  lu.solve(b.data(), x.data());
  EXPECT_LT(test::relative_residual(A, x, b), 1e-10);
}

TEST(Lu, PivotsOnZeroDiagonal) {
  // [[0 1][1 0]] needs pivoting.
  CSRMatrix A = CSRMatrix::from_triplets(2, 2, {{0, 1, 1.0}, {1, 0, 1.0}});
  LUSolver lu(A);
  EXPECT_FALSE(lu.singular());
  Vector b = {2.0, 3.0}, x(2);
  lu.solve(b.data(), x.data());
  EXPECT_DOUBLE_EQ(x[0], 3.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
}

TEST(Lu, FlagsSingular) {
  CSRMatrix A(3, 3);  // all-zero
  LUSolver lu(A);
  EXPECT_TRUE(lu.singular());
}

// ------------------------------------------------------------ transpose ----

class TransposeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TransposeSweep, ParallelMatchesSerialMatchesDense) {
  CSRMatrix A = random_sparse(50 + Int(GetParam()) * 13, 37, 4, GetParam());
  CSRMatrix Ts = transpose_serial(A);
  CSRMatrix Tp = transpose_parallel(A);
  Ts.validate();
  Tp.validate();
  EXPECT_TRUE(csr_approx_equal(Ts, Tp));
  DenseMatrix ref = DenseMatrix::from_csr(A).transpose();
  EXPECT_TRUE(csr_same_operator(Ts, ref.to_csr()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransposeSweep, ::testing::Range<std::uint64_t>(0, 8));

TEST(Transpose, Involution) {
  CSRMatrix A = random_sparse(30, 40, 5, 99);
  EXPECT_TRUE(csr_approx_equal(A, transpose_parallel(transpose_parallel(A))));
}

TEST(Transpose, EmptyAndZeroRowMatrices) {
  CSRMatrix A(3, 4);  // all-zero rows
  CSRMatrix T = transpose_parallel(A);
  EXPECT_EQ(T.nrows, 4);
  EXPECT_EQ(T.nnz(), 0);
}

// -------------------------------------------------------------- permute ----

TEST(Permute, CfPermutationPlacesCoarseFirst) {
  CFMarker cf = {-1, 1, -1, 1, 1, -1};
  CFPermutation p = cf_permutation(cf);
  EXPECT_EQ(p.ncoarse, 3);
  EXPECT_EQ(p.perm, (std::vector<Int>{1, 3, 4, 0, 2, 5}));
  for (Int ni = 0; ni < 6; ++ni) EXPECT_EQ(p.inv[p.perm[ni]], ni);
}

/// Row gather, column renumbering, then a sort: the two-pass reference
/// for the one-pass sorted permutation.
CSRMatrix permute_then_sort(const CSRMatrix& A, const CFPermutation& p) {
  CSRMatrix B(A.nrows, A.ncols);
  for (Int ni = 0; ni < A.nrows; ++ni) {
    const Int oi = p.perm[ni];
    for (Int k = A.rowptr[oi]; k < A.rowptr[oi + 1]; ++k) {
      B.colidx.push_back(p.inv[A.colidx[k]]);
      B.values.push_back(A.values[k]);
    }
    B.rowptr[ni + 1] = Int(B.colidx.size());
  }
  B.sort_rows();
  return B;
}

TEST(Permute, SymmetricPermutationPreservesEntries) {
  CSRMatrix A = random_spd(30, 3, 11);
  CFMarker cf(30);
  for (Int i = 0; i < 30; ++i) cf[i] = (i % 3 == 0) ? 1 : -1;
  CFPermutation p = cf_permutation(cf);
  CSRMatrix B = permute_symmetric(A, p);
  EXPECT_TRUE(B.rows_sorted());
  for (Int ni = 0; ni < 30; ++ni)
    for (Int nj = 0; nj < 30; ++nj)
      EXPECT_DOUBLE_EQ(B.at(ni, nj), A.at(p.perm[ni], p.perm[nj]));
  for (const CSRMatrix& M : {random_spd(300, 5, 7), lap3d_27pt(7, 6, 5)}) {
    CFMarker mark(std::size_t(M.nrows));
    for (Int i = 0; i < M.nrows; ++i) mark[i] = (i * 7919 % 5 < 2) ? 1 : -1;
    const CFPermutation q = cf_permutation(mark);
    const CSRMatrix P = permute_symmetric(M, q), R = permute_then_sort(M, q);
    EXPECT_TRUE(P.rows_sorted());
    EXPECT_EQ(P.rowptr, R.rowptr);
    EXPECT_EQ(P.colidx, R.colidx);
    EXPECT_EQ(P.values, R.values);  // bitwise
  }
}

TEST(Permute, SymmetricPermutationSortsUnsortedInput) {
  CSRMatrix A = random_spd(40, 4, 3);
  const CSRMatrix sorted = A;
  for (Int i = 0; i < A.nrows; ++i) {  // reverse every row
    std::reverse(A.colidx.begin() + A.rowptr[i],
                 A.colidx.begin() + A.rowptr[i + 1]);
    std::reverse(A.values.begin() + A.rowptr[i],
                 A.values.begin() + A.rowptr[i + 1]);
  }
  CFMarker cf(40);
  for (Int i = 0; i < 40; ++i) cf[i] = (i % 4 == 1) ? 1 : -1;
  const CFPermutation p = cf_permutation(cf);
  const CSRMatrix B = permute_symmetric(A, p), R = permute_symmetric(sorted, p);
  EXPECT_TRUE(B.rows_sorted());
  EXPECT_EQ(B.colidx, R.colidx);
  EXPECT_EQ(B.values, R.values);
}

TEST(Permute, ThreeWayPartitionGroupsStably) {
  CSRMatrix A = random_sparse(40, 40, 6, 21);
  CSRMatrix orig = A;
  RowPartition rp = three_way_partition_rows(
      A, [](Int, Int col, double) { return col % 3; });
  for (Int i = 0; i < A.nrows; ++i) {
    for (Int k = A.rowptr[i]; k < A.rowptr[i + 1]; ++k) {
      const int cls = A.colidx[k] % 3;
      if (k < rp.ptr1[i])
        EXPECT_EQ(cls, 0);
      else if (k < rp.ptr2[i])
        EXPECT_EQ(cls, 1);
      else
        EXPECT_EQ(cls, 2);
    }
  }
  // Same multiset of (col, val) per row.
  A.sort_rows();
  EXPECT_TRUE(csr_approx_equal(orig, A));
}

// ----------------------------------------------------------- vector ops ----

TEST(VectorOps, Blas1Kernels) {
  Vector x = {1, 2, 3}, y = {4, 5, 6};
  axpy(2.0, x, y);
  EXPECT_EQ(y, (Vector{6, 9, 12}));
  xpby(x, 0.5, y);
  EXPECT_EQ(y, (Vector{4, 6.5, 9}));
  scale(2.0, y);
  EXPECT_EQ(y, (Vector{8, 13, 18}));
  EXPECT_DOUBLE_EQ(dot(x, x), 14.0);
  EXPECT_DOUBLE_EQ(norm2(x), std::sqrt(14.0));
  EXPECT_DOUBLE_EQ(norm_inf(y), 18.0);
  set_zero(y);
  EXPECT_EQ(y, (Vector{0, 0, 0}));
  copy(x, y);
  EXPECT_EQ(y, x);
}

TEST(VectorOps, CountersTrackTraffic) {
  Vector x(100, 1.0), y(100, 2.0);
  WorkCounters wc;
  axpy(1.0, x, y, &wc);
  EXPECT_EQ(wc.flops, 200u);
  EXPECT_EQ(wc.bytes_read, 100u * 2 * sizeof(double));
  EXPECT_EQ(wc.bytes_written, 100u * sizeof(double));
}

// ------------------------------------------------------------------- io ----

TEST(Io, RoundTripGeneral) {
  CSRMatrix A = random_sparse(15, 12, 3, 8);
  std::stringstream ss;
  write_matrix_market(A, ss);
  CSRMatrix B = read_matrix_market(ss);
  EXPECT_TRUE(csr_approx_equal(A, B, 1e-14));
}

TEST(Io, SymmetricExpansion) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate real symmetric\n"
     << "% comment line\n"
     << "3 3 4\n"
     << "1 1 2.0\n2 1 -1.0\n3 2 -1.0\n3 3 2.0\n";
  CSRMatrix A = read_matrix_market(ss);
  EXPECT_EQ(A.nnz(), 6);
  EXPECT_DOUBLE_EQ(A.at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(A.at(1, 0), -1.0);
}

TEST(Io, PatternField) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate pattern general\n"
     << "2 2 2\n1 1\n2 2\n";
  CSRMatrix A = read_matrix_market(ss);
  EXPECT_DOUBLE_EQ(A.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(A.at(1, 1), 1.0);
}

TEST(Io, RejectsBadHeader) {
  std::stringstream ss;
  ss << "not a matrix market file\n";
  EXPECT_THROW(read_matrix_market(ss), std::invalid_argument);
}

// -------------------------------------------------------- fingerprinting ----

TEST(Fingerprint, ConstructionOrderDoesNotChangeTheHash) {
  // Same operator assembled in two different triplet orders: from_triplets
  // sorts, so both end up row-sorted — but also build a third copy by hand
  // with UNSORTED columns inside a row and check it still matches.
  std::vector<Triplet> fwd = {{0, 0, 4.0}, {0, 1, -1.0}, {1, 0, -1.0},
                              {1, 1, 4.0}, {1, 2, -1.0}, {2, 2, 4.0}};
  std::vector<Triplet> rev(fwd.rbegin(), fwd.rend());
  const CSRMatrix a = CSRMatrix::from_triplets(3, 3, fwd);
  const CSRMatrix b = CSRMatrix::from_triplets(3, 3, rev);
  EXPECT_EQ(matrix_fingerprint(a), matrix_fingerprint(b));

  CSRMatrix c(3, 3);
  c.rowptr = {0, 2, 5, 6};
  c.colidx = {1, 0, 2, 1, 0, 2};  // rows 0 and 1 stored column-unsorted
  c.values = {-1.0, 4.0, -1.0, 4.0, -1.0, 4.0};
  c.validate();
  EXPECT_FALSE(c.rows_sorted());
  EXPECT_EQ(matrix_fingerprint(a), matrix_fingerprint(c));
}

CSRMatrix tridiag(Int n) {
  std::vector<Triplet> t;
  for (Int i = 0; i < n; ++i) {
    t.push_back({i, i, 2.0});
    if (i > 0) t.push_back({i, i - 1, -1.0});
    if (i + 1 < n) t.push_back({i, i + 1, -1.0});
  }
  return CSRMatrix::from_triplets(n, n, t);
}

TEST(Fingerprint, ValueAndStructureChangesChangeTheHash) {
  const CSRMatrix a = tridiag(8);
  CSRMatrix b = a;
  b.values[3] += 1e-12;  // tiny value change must be visible
  EXPECT_NE(matrix_fingerprint(a), matrix_fingerprint(b));

  CSRMatrix wider = a;
  wider.ncols += 1;  // same entries, different shape
  EXPECT_NE(matrix_fingerprint(a), matrix_fingerprint(wider));

  // An explicit zero is part of the stored operator the solver sees.
  CSRMatrix explicit_zero = CSRMatrix::from_triplets(
      2, 2, {{0, 0, 1.0}, {0, 1, 0.0}, {1, 1, 1.0}});
  CSRMatrix no_zero =
      CSRMatrix::from_triplets(2, 2, {{0, 0, 1.0}, {1, 1, 1.0}});
  EXPECT_NE(matrix_fingerprint(explicit_zero), matrix_fingerprint(no_zero));
}

TEST(Fingerprint, NegativeZeroHashesAsPositiveZero) {
  CSRMatrix a = CSRMatrix::from_triplets(1, 1, {{0, 0, 0.0}});
  CSRMatrix b = a;
  b.values[0] = -0.0;
  EXPECT_EQ(matrix_fingerprint(a), matrix_fingerprint(b));
}

}  // namespace
}  // namespace hpamg

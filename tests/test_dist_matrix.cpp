// Distributed-matrix substrate tests: partitioning, diag/offd splitting,
// halo exchange, remote-row gather, transpose, and column renumbering.
#include <gtest/gtest.h>

#include <cstring>

#include "amg/interp_extpi.hpp"
#include "amg/pmis.hpp"
#include "amg/strength.hpp"
#include "dist/dist_matrix.hpp"
#include "dist/dist_transpose.hpp"
#include "dist/halo.hpp"
#include "dist/renumber.hpp"
#include "gen/stencil.hpp"
#include "matrix/transpose.hpp"
#include "test_util.hpp"

namespace hpamg {
namespace {

TEST(EvenPartition, CoversExactly) {
  std::vector<Long> s = even_partition(100, 7);
  ASSERT_EQ(s.size(), 8u);
  EXPECT_EQ(s.front(), 0);
  EXPECT_EQ(s.back(), 100);
  for (int r = 0; r < 7; ++r) EXPECT_LE(s[r], s[r + 1]);
}

class DistMatrixRanks : public ::testing::TestWithParam<int> {};

TEST_P(DistMatrixRanks, DistributeGatherRoundTrip) {
  const int P = GetParam();
  CSRMatrix A = lap2d_5pt(17, 13);
  simmpi::run(P, [&](simmpi::Comm& c) {
    DistMatrix dA = distribute_csr(c, A);
    dA.validate();
    CSRMatrix back = gather_csr(c, dA);
    EXPECT_TRUE(csr_approx_equal(A, back));
    // Row count conservation.
    EXPECT_EQ(c.allreduce_sum(Long(dA.local_rows())), Long(A.nrows));
    EXPECT_EQ(c.allreduce_sum(dA.nnz_local()), A.nnz());
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, DistMatrixRanks, ::testing::Values(1, 2, 3, 5, 8));

TEST(DistMatrix, ColOwnerBinarySearch) {
  simmpi::run(3, [](simmpi::Comm& c) {
    CSRMatrix A = lap2d_5pt(9, 9);
    DistMatrix dA = distribute_csr(c, A);
    for (Long g = 0; g < 81; ++g) {
      const int o = dA.col_owner(g);
      EXPECT_GE(g, dA.col_starts[o]);
      EXPECT_LT(g, dA.col_starts[o + 1]);
    }
  });
}

TEST(DistMatrix, BuilderMatchesDistribute) {
  CSRMatrix A = lap3d_7pt(6, 6, 6);
  simmpi::run(4, [&](simmpi::Comm& c) {
    DistMatrix d1 = distribute_csr(c, A);
    DistMatrix d2 = build_dist_matrix(
        c, A.nrows, A.ncols,
        [&](Long grow, std::vector<std::pair<Long, double>>& out) {
          const Int i = Int(grow);
          for (Int k = A.rowptr[i]; k < A.rowptr[i + 1]; ++k)
            out.push_back({Long(A.colidx[k]), A.values[k]});
        });
    EXPECT_TRUE(csr_approx_equal(d1.diag, d2.diag));
    EXPECT_TRUE(csr_approx_equal(d1.offd, d2.offd));
    EXPECT_EQ(d1.colmap, d2.colmap);
  });
}

TEST(Halo, ExchangeDeliversExternalValues) {
  CSRMatrix A = lap2d_5pt(12, 12);
  simmpi::run(4, [&](simmpi::Comm& c) {
    DistMatrix dA = distribute_csr(c, A);
    for (bool persistent : {false, true}) {
      HaloExchange halo(c, dA.colmap, dA.row_starts, persistent);
      Vector x(dA.local_rows());
      for (Int i = 0; i < dA.local_rows(); ++i)
        x[i] = double(dA.first_row() + i) * 1.5;
      Vector ext;
      for (int round = 0; round < 3; ++round) {  // reuse the pattern
        halo.exchange(x, ext);
        ASSERT_EQ(Int(ext.size()), Int(dA.colmap.size()));
        for (std::size_t j = 0; j < dA.colmap.size(); ++j)
          EXPECT_DOUBLE_EQ(ext[j], double(dA.colmap[j]) * 1.5);
      }
    }
  });
}

TEST(Halo, PersistentModeSkipsRequestSetups) {
  CSRMatrix A = lap2d_5pt(12, 12);
  auto stats = simmpi::run(2, [&](simmpi::Comm& c) {
    DistMatrix dA = distribute_csr(c, A);
    HaloExchange halo(c, dA.colmap, dA.row_starts, /*persistent=*/true);
    const auto before = c.stats();
    Vector x(dA.local_rows(), 1.0), ext;
    for (int round = 0; round < 5; ++round) halo.exchange(x, ext);
    EXPECT_EQ(c.stats().request_setups, before.request_setups);
    EXPECT_GT(c.stats().persistent_starts, before.persistent_starts);
  });
}

TEST(Halo, GatherRowsReturnsExactRows) {
  CSRMatrix A = lap2d_5pt(10, 10);
  simmpi::run(3, [&](simmpi::Comm& c) {
    DistMatrix dA = distribute_csr(c, A);
    GatheredRows got = gather_rows(c, dA, dA.colmap);
    ASSERT_EQ(got.rows.size(), dA.colmap.size());
    for (std::size_t e = 0; e < got.rows.size(); ++e) {
      const Int gi = Int(got.rows[e]);
      const Int len = got.rowptr[Int(e) + 1] - got.rowptr[Int(e)];
      ASSERT_EQ(len, A.row_nnz(gi));
      for (Int k = 0; k < len; ++k) {
        const Int p = got.rowptr[Int(e)] + k;
        EXPECT_DOUBLE_EQ(got.values[p], A.at(gi, Int(got.gcol[p])));
      }
    }
  });
}

TEST(Halo, GatherRowsSenderFilterApplies) {
  CSRMatrix A = lap2d_5pt(10, 10);
  simmpi::run(2, [&](simmpi::Comm& c) {
    DistMatrix dA = distribute_csr(c, A);
    // Keep only diagonal-ish entries: global col even.
    GatheredRows got = gather_rows(c, dA, dA.colmap,
                                   [](Int, Int, Long gc, double) {
                                     return gc % 2 == 0;
                                   });
    for (Long gc : got.gcol) EXPECT_EQ(gc % 2, 0);
    GatheredRows full = gather_rows(c, dA, dA.colmap);
    EXPECT_LT(got.bytes_received, full.bytes_received);
  });
}

/// Distributes a sequential matrix over `row_starts` (even by default);
/// columns split evenly, or as the rows if it is square.
DistMatrix distribute_rows(simmpi::Comm& c, const CSRMatrix& A,
                           const std::vector<Long>* row_starts = nullptr) {
  return build_dist_matrix(
      c, A.nrows, A.ncols,
      [&A](Long grow, std::vector<std::pair<Long, double>>& out) {
        const Int i = Int(grow);
        for (Int k = A.rowptr[i]; k < A.rowptr[i + 1]; ++k)
          out.push_back({Long(A.colidx[k]), A.values[k]});
      },
      row_starts);
}

void expect_same_block(const CSRMatrix& got, const CSRMatrix& want,
                       const char* block) {
  EXPECT_EQ(got.nrows, want.nrows) << block;
  EXPECT_EQ(got.ncols, want.ncols) << block;
  EXPECT_EQ(got.rowptr, want.rowptr) << block;
  EXPECT_EQ(got.colidx, want.colidx) << block;
  // Bitwise: the transpose moves values, it never computes them.
  ASSERT_EQ(got.values.size(), want.values.size()) << block;
  if (!got.values.empty()) {
    EXPECT_EQ(std::memcmp(got.values.data(), want.values.data(),
                          got.values.size() * sizeof(double)),
              0)
        << block;
  }
  for (Int i = 0; i < got.nrows; ++i)
    for (Int k = got.rowptr[i] + 1; k < got.rowptr[i + 1]; ++k)
      EXPECT_LT(got.colidx[k - 1], got.colidx[k]) << block << " row " << i;
}

/// dist_transpose of dA equals ref = A^T distributed over dA's column
/// partition: every block array and the colmap, exactly.
void expect_exact_transpose(simmpi::Comm& c, const DistMatrix& dA,
                            const CSRMatrix& ref) {
  const DistMatrix want = distribute_rows(c, ref, &dA.col_starts);
  for (bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "parallel" : "serial");
    DistMatrix dT = dist_transpose(c, dA, parallel);
    dT.validate();
    EXPECT_EQ(dT.row_starts, want.row_starts);
    EXPECT_EQ(dT.col_starts, want.col_starts);
    expect_same_block(dT.diag, want.diag, "diag");
    expect_same_block(dT.offd, want.offd, "offd");
    EXPECT_EQ(dT.colmap, want.colmap);
  }
}

class DistTransposeRanks : public ::testing::TestWithParam<int> {};

TEST_P(DistTransposeRanks, MatchesSequentialTranspose) {
  const int P = GetParam();
  CSRMatrix A = test::random_spd(120, 4, 3);
  A.sort_rows();
  const CSRMatrix ref = transpose_serial(A);
  // A rectangular interpolation operator (fine rows x coarse columns).
  const CSRMatrix L = lap2d_5pt(12, 12);
  const CSRMatrix S = strength_matrix(L, {0.25, 0.8});
  const CFMarker cf = pmis_coarsen(S, transpose_parallel(S));
  const CSRMatrix Pi = extpi_interp(L, S, cf, ExtPIOptions{});
  const CSRMatrix Pi_ref = transpose_serial(Pi);
  // A row partition with an empty rank (rank 0 at two ranks).
  std::vector<Long> gappy = even_partition(A.nrows, P);
  if (P > 1) gappy[P / 2] = gappy[P / 2 - 1];
  simmpi::run(P, [&](simmpi::Comm& c) {
    {
      SCOPED_TRACE("square");
      expect_exact_transpose(c, distribute_csr(c, A), ref);
    }
    {
      SCOPED_TRACE("rectangular P");
      expect_exact_transpose(c, distribute_rows(c, Pi), Pi_ref);
    }
    {
      SCOPED_TRACE("empty rank");
      expect_exact_transpose(c, distribute_rows(c, A, &gappy), ref);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, DistTransposeRanks, ::testing::Values(1, 2, 4, 6));

// -------------------------------------------------------------- renumber ---

class RenumberSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RenumberSweep, ParallelMatchesBaseline) {
  std::mt19937_64 rng(GetParam());
  const Long own_first = 100, own_last = 200;
  const Int nloc = Int(own_last - own_first);
  std::vector<Long> existing = {20, 55, 90, 250, 300};  // sorted, off-range
  std::vector<Long> gcol(3000);
  for (auto& g : gcol) g = Long(rng() % 400);
  RenumberInput in;
  in.gcol = &gcol;
  in.own_first = own_first;
  in.own_last = own_last;
  in.existing = &existing;
  in.nloc = nloc;
  RenumberResult a = renumber_columns_baseline(in);
  RenumberResult b = renumber_columns_parallel(in);
  EXPECT_EQ(a.new_entries, b.new_entries);
  EXPECT_EQ(a.local, b.local);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RenumberSweep,
                         ::testing::Range<std::uint64_t>(0, 10));

TEST(Renumber, MappingProperties) {
  std::vector<Long> gcol = {5, 150, 5, 300, 150, 42};
  std::vector<Long> existing = {42};
  RenumberInput in;
  in.gcol = &gcol;
  in.own_first = 100;
  in.own_last = 200;
  in.existing = &existing;
  in.nloc = 100;
  RenumberResult r = renumber_columns_parallel(in);
  // Own column 150 -> 50; existing 42 -> nloc + 0; new {5, 300} sorted ->
  // nloc + 1 + {0, 1}.
  EXPECT_EQ(r.new_entries, (std::vector<Long>{5, 300}));
  EXPECT_EQ(r.local, (std::vector<Int>{101, 50, 101, 102, 50, 100}));
}

TEST(Renumber, EmptyInput) {
  std::vector<Long> gcol, existing;
  RenumberInput in;
  in.gcol = &gcol;
  in.own_first = 0;
  in.own_last = 10;
  in.existing = &existing;
  in.nloc = 10;
  RenumberResult r = renumber_columns_parallel(in);
  EXPECT_TRUE(r.local.empty());
  EXPECT_TRUE(r.new_entries.empty());
}

TEST(Renumber, CountsProbes) {
  std::vector<Long> gcol(500, 999);
  std::vector<Long> existing;
  RenumberInput in;
  in.gcol = &gcol;
  in.own_first = 0;
  in.own_last = 10;
  in.existing = &existing;
  in.nloc = 10;
  WorkCounters wc;
  renumber_columns_parallel(in, &wc);
  EXPECT_GT(wc.hash_probes, 0u);
}

}  // namespace
}  // namespace hpamg

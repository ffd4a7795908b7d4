// Matrix permutation utilities and the coarse/fine (CF) reordering
// at the heart of the paper's node-level optimizations (§3.1.2, §3.2):
// renumber points so coarse points precede fine points, permute operators
// accordingly, and partition the columns within each row (a one-sweep
// 3-way partial sort) so branch-heavy classification tests disappear from
// inner loops.
#pragma once

#include <functional>
#include <vector>

#include "matrix/csr.hpp"
#include "support/common.hpp"

namespace hpamg {

/// CF marker value per point: >0 coarse, <0 fine (HYPRE convention).
using CFMarker = std::vector<signed char>;

/// Permutation placing all coarse points (ascending) before all fine points.
struct CFPermutation {
  std::vector<Int> perm;  ///< perm[new_index] = old_index
  std::vector<Int> inv;   ///< inv[old_index] = new_index
  Int ncoarse = 0;        ///< coarse points occupy new indices [0, ncoarse)
};

CFPermutation cf_permutation(const CFMarker& cf);

/// B(i, j) = A(perm[i], perm[j]) — symmetric permutation of a square
/// matrix, with every row of B column-sorted.
CSRMatrix permute_symmetric(const CSRMatrix& A, const CFPermutation& p);

/// Per-row 3-way column partition boundaries produced by a single
/// counting sweep (O(row nnz), not a sort). After the call, the columns of
/// row i are grouped by class: [rowptr[i], ptr1[i]) class 0,
/// [ptr1[i], ptr2[i]) class 1, [ptr2[i], rowptr[i+1]) class 2.
struct RowPartition {
  std::vector<Int> ptr1;
  std::vector<Int> ptr2;
};

/// Reorders colidx/values of every row of A in place so that columns are
/// grouped by classify(i, col, val) in {0, 1, 2}; stable within a class.
RowPartition three_way_partition_rows(
    CSRMatrix& A, const std::function<int(Int, Int, double)>& classify);

}  // namespace hpamg

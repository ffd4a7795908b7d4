#include "matrix/permute.hpp"

#include "support/parallel.hpp"
#include "support/trace.hpp"

namespace hpamg {

CFPermutation cf_permutation(const CFMarker& cf) {
  const Int n = Int(cf.size());
  CFPermutation p;
  p.perm.resize(n);
  p.inv.resize(n);
  Int nc = 0;
  for (Int i = 0; i < n; ++i)
    if (cf[i] > 0) p.perm[nc++] = i;
  p.ncoarse = nc;
  Int nf = nc;
  for (Int i = 0; i < n; ++i)
    if (cf[i] <= 0) p.perm[nf++] = i;
  for (Int ni = 0; ni < n; ++ni) p.inv[p.perm[ni]] = ni;
  return p;
}

CSRMatrix permute_symmetric(const CSRMatrix& A, const CFPermutation& p) {
  require(A.nrows == A.ncols, "permute_symmetric: matrix must be square");
  const Int n = A.nrows;
  CSRMatrix B(n, n);
  for (Int ni = 0; ni < n; ++ni) B.rowptr[ni + 1] = A.row_nnz(p.perm[ni]);
  exclusive_scan(B.rowptr);
  B.colidx.resize(B.rowptr[n]);
  B.values.resize(B.rowptr[n]);
  TRACE_SPAN("matrix.permute_symmetric", "kernel", "rows", std::int64_t(n));
  // A CF permutation keeps the coarse points and the fine points each in
  // ascending order, so a sorted row renumbers into two ascending runs: a
  // stable coarse-first split of the row is its sorted order. Rows that
  // still come out of order (unsorted input) get a full sort below.
  bool sorted = true;
#pragma omp parallel for schedule(static) reduction(&& : sorted)
  for (Int ni = 0; ni < n; ++ni) {
    const Int lo = A.rowptr[p.perm[ni]], hi = A.rowptr[p.perm[ni] + 1];
    Int ncoarse = 0;
    for (Int k = lo; k < hi; ++k) ncoarse += p.inv[A.colidx[k]] < p.ncoarse;
    const Int begin = B.rowptr[ni];
    Int c = begin, f = begin + ncoarse;
    for (Int k = lo; k < hi; ++k) {
      const Int j = p.inv[A.colidx[k]];
      const Int pos = j < p.ncoarse ? c++ : f++;
      B.colidx[pos] = j;
      B.values[pos] = A.values[k];
    }
    for (Int k = begin + 1; k < B.rowptr[ni + 1]; ++k)
      sorted = sorted && B.colidx[k - 1] < B.colidx[k];
  }
  if (!sorted) B.sort_rows();
  return B;
}

RowPartition three_way_partition_rows(
    CSRMatrix& A, const std::function<int(Int, Int, double)>& classify) {
  RowPartition rp;
  rp.ptr1.resize(A.nrows);
  rp.ptr2.resize(A.nrows);
  parallel_for_dynamic(0, A.nrows, [&](Int i) {
    const Int lo = A.rowptr[i], hi = A.rowptr[i + 1];
    // One counting sweep then one placement sweep: O(nnz(row)), no sort.
    Int cnt[3] = {0, 0, 0};
    for (Int k = lo; k < hi; ++k)
      ++cnt[classify(i, A.colidx[k], A.values[k])];
    Int start[3] = {lo, lo + cnt[0], lo + cnt[0] + cnt[1]};
    rp.ptr1[i] = start[1];
    rp.ptr2[i] = start[2];
    std::vector<Int> c(hi - lo);
    std::vector<double> v(hi - lo);
    Int fill[3] = {start[0], start[1], start[2]};
    for (Int k = lo; k < hi; ++k) {
      const int cls = classify(i, A.colidx[k], A.values[k]);
      const Int pos = fill[cls]++ - lo;
      c[pos] = A.colidx[k];
      v[pos] = A.values[k];
    }
    std::copy(c.begin(), c.end(), A.colidx.begin() + lo);
    std::copy(v.begin(), v.end(), A.values.begin() + lo);
  });
  return rp;
}

}  // namespace hpamg

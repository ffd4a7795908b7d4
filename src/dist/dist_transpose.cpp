#include "dist/dist_transpose.hpp"

#include <algorithm>

#include "matrix/transpose.hpp"
#include "support/check.hpp"
#include "support/parallel.hpp"
#include "support/sort.hpp"
#include "support/trace.hpp"

namespace hpamg {

namespace {
constexpr int kTagT = 7201;

/// One shipped entry of offd^T: global row of A^T, global column, value.
struct ShippedEntry {
  Long row;
  Long col;
  double value;
};
}  // namespace

DistMatrix dist_transpose(simmpi::Comm& comm, const DistMatrix& A,
                          bool parallel, WorkCounters* wc) {
  TRACE_SPAN("dist.transpose", "kernel", "rows",
             std::int64_t(A.local_rows()));
  const int nranks = comm.size();
  const int me = comm.rank();
  const auto transpose = [&](const CSRMatrix& B) {
    return parallel ? transpose_parallel(B, wc) : transpose_serial(B, wc);
  };

  DistMatrix T;
  T.global_rows = A.global_cols;
  T.global_cols = A.global_rows;
  T.row_starts = A.col_starts;
  T.col_starts = A.row_starts;
  T.my_rank = me;
  T.diag = transpose(A.diag);

  // offd^T has one row per colmap slot; ship each to the owner of that
  // column (colmap is sorted, so each peer's rows stay in order). One
  // message per peer, empty or not.
  const CSRMatrix OT = transpose(A.offd);
  const Long r0 = A.first_row();
  std::vector<std::vector<ShippedEntry>> outbox(nranks);
  for (Int j = 0; j < OT.nrows; ++j) {
    std::vector<ShippedEntry>& box = outbox[A.col_owner(A.colmap[j])];
    for (Int k = OT.rowptr[j]; k < OT.rowptr[j + 1]; ++k)
      box.push_back({A.colmap[j], r0 + OT.colidx[k], OT.values[k]});
  }
  for (int r = 0; r < nranks; ++r)
    if (r != me) comm.send_vec(r, kTagT, outbox[r]);

  // Concatenate what arrives, in rank order, into T.offd: each peer's
  // columns lie in its own row range, so every row comes out sorted.
  const Int nloc = T.local_rows();
  const Long tr0 = T.first_row();
  std::vector<std::vector<ShippedEntry>> inbox(nranks);
  std::vector<Long> offd_cols;
  T.offd = CSRMatrix(nloc, 0);
  for (int r = 0; r < nranks; ++r) {
    if (r == me) continue;
    inbox[r] = comm.recv_vec<ShippedEntry>(r, kTagT);
    for (const ShippedEntry& e : inbox[r]) {
      ++T.offd.rowptr[Int(e.row - tr0) + 1];
      offd_cols.push_back(e.col);
    }
    if (wc) wc->bytes_read += inbox[r].size() * sizeof(ShippedEntry);
  }
  exclusive_scan(T.offd.rowptr);
  T.colmap = parallel_sort_unique(std::move(offd_cols));
  T.offd.ncols = Int(T.colmap.size());
  T.offd.colidx.resize(T.offd.rowptr[nloc]);
  T.offd.values.resize(T.offd.rowptr[nloc]);
  std::vector<Int> fill(T.offd.rowptr.begin(), T.offd.rowptr.end() - 1);
  for (const std::vector<ShippedEntry>& in : inbox)
    for (const ShippedEntry& e : in) {
      const Int p = fill[Int(e.row - tr0)]++;
      T.offd.colidx[p] = Int(
          std::lower_bound(T.colmap.begin(), T.colmap.end(), e.col) -
          T.colmap.begin());
      T.offd.values[p] = e.value;
    }
  if (wc) wc->bytes_written += T.offd.nnz() * (sizeof(Int) + sizeof(double));
  HPAMG_CHECK_INVARIANT(check::Depth::kCheap, T.check_partition(nranks));
  return T;
}

}  // namespace hpamg

#include "dist/dist_spgemm.hpp"

#include "dist/dist_transpose.hpp"
#include "dist/halo.hpp"
#include "dist/renumber.hpp"
#include "spgemm/rap.hpp"
#include "spgemm/spgemm.hpp"
#include "support/parallel.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace hpamg {

namespace {

/// The rank's diag|offd blocks as one CSR over [own columns | colmap]:
/// offd column j becomes local_cols() + j. Reserves `extra_nnz` more
/// entries for rows the caller appends.
CSRMatrix join_blocks(const DistMatrix& A, std::size_t extra_nnz = 0) {
  const Int n = A.local_rows(), nl = A.local_cols();
  CSRMatrix M(n, nl + Int(A.colmap.size()));
  for (Int i = 0; i < n; ++i)
    M.rowptr[i + 1] = A.diag.row_nnz(i) + A.offd.row_nnz(i);
  exclusive_scan(M.rowptr);
  M.colidx.reserve(M.rowptr[n] + extra_nnz);
  M.values.reserve(M.rowptr[n] + extra_nnz);
  M.colidx.resize(M.rowptr[n]);
  M.values.resize(M.rowptr[n]);
  parallel_for(0, n, [&](Int i) {
    Int pos = M.rowptr[i];
    for (Int k = A.diag.rowptr[i]; k < A.diag.rowptr[i + 1]; ++k, ++pos) {
      M.colidx[pos] = A.diag.colidx[k];
      M.values[pos] = A.diag.values[k];
    }
    for (Int k = A.offd.rowptr[i]; k < A.offd.rowptr[i + 1]; ++k, ++pos) {
      M.colidx[pos] = nl + A.offd.colidx[k];
      M.values[pos] = A.offd.values[k];
    }
  });
  return M;
}

/// B's own rows stacked over one row per `ext` slot: B's row with that
/// global id, gathered from its owner (§4.1 Fig 3c), or an empty row for
/// a negative id. Gathered columns are renumbered (§4.2) into B's local
/// column space [own | B.colmap | new]; local column local_cols() + j is
/// global ext_colmap[j].
struct Stacked {
  CSRMatrix M;
  std::vector<Long> ext_colmap;
};

Stacked gather_stack(simmpi::Comm& comm, const DistMatrix& B,
                     const std::vector<Long>& ext,
                     const DistSpgemmOptions& opt, WorkCounters* wc,
                     DistSpgemmInfo* info) {
  std::vector<Long> need;
  std::vector<Int> slot;
  for (std::size_t j = 0; j < ext.size(); ++j)
    if (ext[j] >= 0) {
      need.push_back(ext[j]);
      slot.push_back(Int(j));
    }
  const bool optimized = opt.variant == Variant::kOptimized;
  GatheredRows g = gather_rows(comm, B, need, nullptr, optimized);

  Timer t;
  const RenumberInput rin{&g.gcol, B.first_col(), B.last_col(), &B.colmap,
                          B.local_cols()};
  RenumberResult ren = opt.parallel_renumber
                           ? renumber_columns_parallel(rin, wc)
                           : renumber_columns_baseline(rin, wc);
  if (info) {
    info->gathered_rows += need.size();
    info->gathered_bytes += g.bytes_received;
    info->renumber_seconds += t.seconds();
  }

  Stacked s;
  s.ext_colmap = B.colmap;
  s.ext_colmap.insert(s.ext_colmap.end(), ren.new_entries.begin(),
                      ren.new_entries.end());
  CSRMatrix& M = s.M = join_blocks(B, g.gcol.size());
  const Int nb = M.nrows;
  M.nrows += Int(ext.size());
  M.ncols = B.local_cols() + Int(s.ext_colmap.size());
  M.rowptr.resize(M.nrows + 1, 0);
  for (std::size_t r = 0; r < slot.size(); ++r)
    M.rowptr[nb + slot[r] + 1] = g.rowptr[r + 1] - g.rowptr[r];
  for (Int i = nb; i < M.nrows; ++i) M.rowptr[i + 1] += M.rowptr[i];
  M.colidx.resize(M.rowptr[M.nrows]);
  M.values.resize(M.rowptr[M.nrows]);
  parallel_for(0, Int(slot.size()), [&](Int r) {
    const Int dst = M.rowptr[nb + slot[r]];
    for (Int k = g.rowptr[r]; k < g.rowptr[r + 1]; ++k) {
      M.colidx[dst + k - g.rowptr[r]] = ren.local[k];
      M.values[dst + k - g.rowptr[r]] = g.values[k];
    }
  });
  return s;
}

/// A local product whose columns span B's [own | ext_colmap] space, as a
/// DistMatrix over `row_starts` and B's column partition.
DistMatrix to_global(simmpi::Comm& comm, CSRMatrix C,
                     const std::vector<Long>& row_starts, const DistMatrix& B,
                     const std::vector<Long>& ext_colmap) {
  const Int nl = B.local_cols();
  const Long c0 = B.first_col();
  GlobalRows rows;
  rows.rowptr = std::move(C.rowptr);
  rows.vals = std::move(C.values);
  rows.cols.resize(C.colidx.size());
  parallel_for(0, Int(rows.cols.size()), [&](Int k) {
    const Int c = C.colidx[k];
    rows.cols[k] = c < nl ? c0 + c : ext_colmap[c - nl];
  });
  return dist_matrix_from_rows(comm, row_starts, B.col_starts, rows);
}

}  // namespace

DistMatrix dist_spgemm(simmpi::Comm& comm, const DistMatrix& A,
                       const DistMatrix& B, const DistSpgemmOptions& opt,
                       WorkCounters* wc, DistSpgemmInfo* info) {
  TRACE_SPAN("spgemm.dist", "kernel", "rows", std::int64_t(A.local_rows()));
  require(A.global_cols == B.global_rows, "dist_spgemm: shape mismatch");
  // A's off-diagonal columns name exactly the B rows we need but do not
  // own (A's column partition matches B's row partition).
  Stacked b = gather_stack(comm, B, A.colmap, opt, wc, info);
  const CSRMatrix Aloc = join_blocks(A);
  Timer t;
  CSRMatrix C = opt.variant == Variant::kOptimized
                    ? spgemm_onepass(Aloc, b.M, {}, wc)
                    : spgemm_twopass(Aloc, b.M, wc);
  if (info) info->local_seconds += t.seconds();
  return to_global(comm, std::move(C), A.row_starts, B, b.ext_colmap);
}

DistMatrix dist_rap(simmpi::Comm& comm, const DistMatrix& A,
                    const DistMatrix& P, const DistSpgemmOptions& opt,
                    WorkCounters* wc, DistSpgemmInfo* info,
                    DistMatrix* R_out) {
  TRACE_SPAN("spgemm.rap", "kernel", "rows", std::int64_t(A.local_rows()));
  DistMatrix R = dist_transpose(comm, P, opt.parallel_renumber, wc);
  const CSRMatrix Rloc = join_blocks(R);
  Stacked a = gather_stack(comm, A, R.colmap, opt, wc, info);
  // P rows only for the external columns R's rows reach through A (the
  // colmap R·A would have); the other slots stay empty.
  const Int na = A.local_cols();
  std::vector<char> used(a.M.nrows, 0);
  for (Int j : Rloc.colidx) used[j] = 1;
  std::vector<Long> reach(a.ext_colmap.size(), -1);
  for (Int j = 0; j < a.M.nrows; ++j)
    if (used[j])
      for (Int k = a.M.rowptr[j]; k < a.M.rowptr[j + 1]; ++k)
        if (const Int c = a.M.colidx[k]; c >= na)
          reach[c - na] = a.ext_colmap[c - na];
  Stacked p = gather_stack(comm, P, reach, opt, wc, info);
  Timer t;
  CSRMatrix C = opt.variant == Variant::kOptimized
                    ? rap_fused_rowwise(Rloc, a.M, p.M, {}, wc)
                    : rap_fused_hypre(Rloc, a.M, p.M, wc);
  if (info) info->local_seconds += t.seconds();
  DistMatrix out = to_global(comm, std::move(C), R.row_starts, P,
                             p.ext_colmap);
  if (R_out) *R_out = std::move(R);
  return out;
}

}  // namespace hpamg

#include "dist/dist_spgemm.hpp"

#include "dist/dist_transpose.hpp"
#include "dist/halo.hpp"
#include "dist/renumber.hpp"
#include "spgemm/spgemm.hpp"
#include "support/parallel.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace hpamg {

namespace {

/// Combined-operand representation: B's own rows first, gathered external
/// rows after, all over one local column space
///   [0, nBloc) own columns | [nBloc, nBloc+m) B.colmap | new entries after.
struct CombinedB {
  CSRMatrix M;                  ///< nBrows_local + ext rows
  std::vector<Long> ext_colmap; ///< B.colmap ++ new entries (global ids)
  Int nloc_cols = 0;
};

CombinedB assemble_combined_b(const DistMatrix& B, const GatheredRows& ext,
                              const DistSpgemmOptions& opt, WorkCounters* wc,
                              double* renumber_seconds) {
  CombinedB out;
  const Int nb = B.local_rows();
  const Int next_rows = Int(ext.rows.size());
  out.nloc_cols = B.local_cols();

  // Renumber the gathered global columns (§4.2) — the measured hot spot.
  Timer t;
  RenumberInput rin;
  rin.gcol = &ext.gcol;
  rin.own_first = B.first_col();
  rin.own_last = B.last_col();
  rin.existing = &B.colmap;
  rin.nloc = out.nloc_cols;
  RenumberResult ren = opt.parallel_renumber
                           ? renumber_columns_parallel(rin, wc)
                           : renumber_columns_baseline(rin, wc);
  if (renumber_seconds) *renumber_seconds += t.seconds();

  out.ext_colmap = B.colmap;
  out.ext_colmap.insert(out.ext_colmap.end(), ren.new_entries.begin(),
                        ren.new_entries.end());

  // Stack [B_local; B_ext] into one CSR over the combined column space.
  CSRMatrix& M = out.M;
  M = CSRMatrix(nb + next_rows,
                out.nloc_cols + Int(out.ext_colmap.size()));
  for (Int i = 0; i < nb; ++i)
    M.rowptr[i + 1] = B.diag.row_nnz(i) + B.offd.row_nnz(i);
  for (Int i = 0; i < next_rows; ++i)
    M.rowptr[nb + i + 1] = ext.rowptr[i + 1] - ext.rowptr[i];
  exclusive_scan(M.rowptr);
  M.colidx.resize(M.rowptr[M.nrows]);
  M.values.resize(M.rowptr[M.nrows]);
  parallel_for(0, nb, [&](Int i) {
    Int pos = M.rowptr[i];
    for (Int k = B.diag.rowptr[i]; k < B.diag.rowptr[i + 1]; ++k, ++pos) {
      M.colidx[pos] = B.diag.colidx[k];
      M.values[pos] = B.diag.values[k];
    }
    for (Int k = B.offd.rowptr[i]; k < B.offd.rowptr[i + 1]; ++k, ++pos) {
      M.colidx[pos] = out.nloc_cols + B.offd.colidx[k];
      M.values[pos] = B.offd.values[k];
    }
  });
  parallel_for(0, next_rows, [&](Int i) {
    Int pos = M.rowptr[nb + i];
    for (Int k = ext.rowptr[i]; k < ext.rowptr[i + 1]; ++k, ++pos) {
      M.colidx[pos] = ren.local[k];
      M.values[pos] = ext.values[k];
    }
  });
  return out;
}

/// A as one local CSR whose columns index the combined-B rows: diag columns
/// point at B's own rows, offd column j at combined row nb + j (gathered
/// rows are requested in A.colmap order).
CSRMatrix assemble_combined_a(const DistMatrix& A, Int nb) {
  CSRMatrix M(A.local_rows(), nb + Int(A.colmap.size()));
  for (Int i = 0; i < A.local_rows(); ++i)
    M.rowptr[i + 1] = A.diag.row_nnz(i) + A.offd.row_nnz(i);
  exclusive_scan(M.rowptr);
  M.colidx.resize(M.rowptr[M.nrows]);
  M.values.resize(M.rowptr[M.nrows]);
  parallel_for(0, A.local_rows(), [&](Int i) {
    Int pos = M.rowptr[i];
    for (Int k = A.diag.rowptr[i]; k < A.diag.rowptr[i + 1]; ++k, ++pos) {
      M.colidx[pos] = A.diag.colidx[k];
      M.values[pos] = A.diag.values[k];
    }
    for (Int k = A.offd.rowptr[i]; k < A.offd.rowptr[i + 1]; ++k, ++pos) {
      M.colidx[pos] = nb + A.offd.colidx[k];
      M.values[pos] = A.offd.values[k];
    }
  });
  return M;
}

}  // namespace

DistMatrix dist_spgemm(simmpi::Comm& comm, const DistMatrix& A,
                       const DistMatrix& B, const DistSpgemmOptions& opt,
                       WorkCounters* wc, DistSpgemmInfo* info) {
  TRACE_SPAN("spgemm.dist", "kernel", "rows", std::int64_t(A.local_rows()));
  require(A.global_cols == B.global_rows, "dist_spgemm: shape mismatch");
  // The row gather: A's off-diagonal columns name exactly the B rows we
  // need but do not own (they are global row ids because A's column
  // partition matches B's row partition).
  GatheredRows ext = gather_rows(comm, B, A.colmap, nullptr, opt.persistent);
  if (info) {
    info->gathered_rows += ext.rows.size();
    info->gathered_bytes += ext.bytes_received;
  }

  double renum_sec = 0.0;
  CombinedB cb = assemble_combined_b(B, ext, opt, wc, &renum_sec);
  if (info) info->renumber_seconds += renum_sec;

  CSRMatrix Aloc = assemble_combined_a(A, B.local_rows());

  Timer t_local;
  CSRMatrix Cloc = opt.onepass_local ? spgemm_onepass(Aloc, cb.M, {}, wc)
                                     : spgemm_twopass(Aloc, cb.M, wc);
  if (info) info->local_seconds += t_local.seconds();

  // Back to global columns: combined column c < nbcols is B's own column.
  const Int nbcols = cb.nloc_cols;
  const Long b0 = B.first_col();
  GlobalRows rows;
  rows.rowptr = std::move(Cloc.rowptr);
  rows.vals = std::move(Cloc.values);
  rows.cols.resize(Cloc.colidx.size());
  parallel_for(0, Int(rows.cols.size()), [&](Int k) {
    const Int c = Cloc.colidx[k];
    rows.cols[k] = c < nbcols ? b0 + c : cb.ext_colmap[c - nbcols];
  });
  return dist_matrix_from_rows(comm, A.row_starts, B.col_starts, rows);
}

DistMatrix dist_rap(simmpi::Comm& comm, const DistMatrix& A,
                    const DistMatrix& P, const DistSpgemmOptions& opt,
                    WorkCounters* wc, DistSpgemmInfo* info,
                    DistMatrix* R_out) {
  TRACE_SPAN("spgemm.rap", "kernel", "rows", std::int64_t(A.local_rows()));
  DistMatrix R = dist_transpose(comm, P, opt.parallel_renumber, wc);
  DistMatrix RA = dist_spgemm(comm, R, A, opt, wc, info);
  DistMatrix C = dist_spgemm(comm, RA, P, opt, wc, info);
  if (R_out) *R_out = std::move(R);
  return C;
}

}  // namespace hpamg

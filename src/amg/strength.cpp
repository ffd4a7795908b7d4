#include "amg/strength.hpp"

#include <cmath>

#include "support/parallel.hpp"
#include "support/trace.hpp"

namespace hpamg {

namespace {

/// Row-local strength test shared by every variant: fills `strong` with
/// the in-row offsets of strongly-influencing columns of row i of D, then
/// of O (if any), and returns how many of them are D's. The diagonal lives
/// in D at column i.
inline Int strong_columns(const CSRMatrix& D, const CSRMatrix* O, Int i,
                          const StrengthOptions& opt,
                          std::vector<Int>& strong) {
  strong.clear();
  const Int lo = D.rowptr[i], hi = D.rowptr[i + 1];
  const Int olo = O ? O->rowptr[i] : 0, ohi = O ? O->rowptr[i + 1] : 0;
  double diag = 0.0, row_sum = 0.0, max_off = 0.0;
  for (Int k = lo; k < hi; ++k) {
    row_sum += D.values[k];
    if (D.colidx[k] == i)
      diag = D.values[k];
  }
  for (Int k = olo; k < ohi; ++k) row_sum += O->values[k];
  const double sgn = diag >= 0 ? 1.0 : -1.0;
  for (Int k = lo; k < hi; ++k)
    if (D.colidx[k] != i) max_off = std::max(max_off, -sgn * D.values[k]);
  for (Int k = olo; k < ohi; ++k)
    max_off = std::max(max_off, -sgn * O->values[k]);
  if (max_off <= 0.0) return 0;  // no candidate strong connections
  if (opt.max_row_sum < 1.0 &&
      std::abs(row_sum) > opt.max_row_sum * std::abs(diag))
    return 0;  // weakly-varying row: treat all connections as weak
  const double cut = opt.threshold * max_off;
  for (Int k = lo; k < hi; ++k)
    if (D.colidx[k] != i && -sgn * D.values[k] >= cut) strong.push_back(k);
  const Int nd = Int(strong.size());
  for (Int k = olo; k < ohi; ++k)
    if (-sgn * O->values[k] >= cut) strong.push_back(k);
  return nd;
}

}  // namespace

// lint: counted-no-span(shared body; its three callers open the span)
void strength_blocks(const CSRMatrix& diag, const CSRMatrix* offd,
                     const StrengthOptions& opt, bool parallel_assembly,
                     CSRMatrix& S_diag, CSRMatrix* S_offd, WorkCounters* wc) {
  const Int n = diag.nrows;
  S_diag = CSRMatrix(n, diag.ncols);
  if (S_offd) *S_offd = CSRMatrix(n, offd->ncols);
  if (parallel_assembly) {
    // Pass 1: per-row strong counts in parallel.
    parallel_for_dynamic(0, n, [&](Int i) {
      thread_local std::vector<Int> strong;
      const Int nd = strong_columns(diag, offd, i, opt, strong);
      S_diag.rowptr[i + 1] = nd;
      if (S_offd) S_offd->rowptr[i + 1] = Int(strong.size()) - nd;
    });
    // Prefix sums turn counts into offsets (the §3.3 parallelization).
    for (CSRMatrix* S : {&S_diag, S_offd}) {
      if (!S) continue;
      exclusive_scan(S->rowptr);
      S->colidx.resize(S->rowptr[n]);
      S->values.assign(S->rowptr[n], 1.0);
    }
    // Pass 2: fill in parallel at the prefix-sum offsets.
    parallel_for_dynamic(0, n, [&](Int i) {
      thread_local std::vector<Int> strong;
      const Int nd = strong_columns(diag, offd, i, opt, strong);
      Int pos = S_diag.rowptr[i];
      for (Int t = 0; t < nd; ++t)
        S_diag.colidx[pos++] = diag.colidx[strong[t]];
      if (!S_offd) return;
      pos = S_offd->rowptr[i];
      for (Int t = nd; t < Int(strong.size()); ++t)
        S_offd->colidx[pos++] = offd->colidx[strong[t]];
    });
  } else {
    std::vector<Int> strong;
    for (Int i = 0; i < n; ++i) {
      const Int nd = strong_columns(diag, offd, i, opt, strong);
      for (Int t = 0; t < nd; ++t)
        S_diag.colidx.push_back(diag.colidx[strong[t]]);
      S_diag.rowptr[i + 1] = Int(S_diag.colidx.size());
      if (!S_offd) continue;
      for (Int t = nd; t < Int(strong.size()); ++t)
        S_offd->colidx.push_back(offd->colidx[strong[t]]);
      S_offd->rowptr[i + 1] = Int(S_offd->colidx.size());
    }
    S_diag.values.assign(S_diag.colidx.size(), 1.0);
    if (S_offd) S_offd->values.assign(S_offd->colidx.size(), 1.0);
  }
  if (wc) {
    const Long nnz = diag.nnz() + (offd ? offd->nnz() : 0);
    wc->bytes_read +=
        (parallel_assembly ? 2 : 1) * nnz * (sizeof(Int) + sizeof(double));
    wc->bytes_written +=
        (S_diag.nnz() + (S_offd ? S_offd->nnz() : 0)) * sizeof(Int);
  }
}

CSRMatrix strength_matrix(const CSRMatrix& A, const StrengthOptions& opt,
                          WorkCounters* wc) {
  TRACE_SPAN("strength", "kernel", "rows", std::int64_t(A.nrows));
  require(A.nrows == A.ncols, "strength_matrix: matrix must be square");
  CSRMatrix S;
  strength_blocks(A, nullptr, opt, true, S, nullptr, wc);
  return S;
}

CSRMatrix strength_matrix_serial(const CSRMatrix& A,
                                 const StrengthOptions& opt,
                                 WorkCounters* wc) {
  TRACE_SPAN("strength.serial", "kernel", "rows", std::int64_t(A.nrows));
  require(A.nrows == A.ncols, "strength_matrix: matrix must be square");
  CSRMatrix S;
  strength_blocks(A, nullptr, opt, false, S, nullptr, wc);
  return S;
}

}  // namespace hpamg

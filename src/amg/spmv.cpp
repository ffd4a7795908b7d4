#include "amg/spmv.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "support/parallel.hpp"
#include "support/trace.hpp"

namespace hpamg {

namespace {

/// Kernel accounting: the matrix structure streams once per column block
/// (the whole point of the batching); vector traffic and flops scale with
/// the full column count. For m = 1 this is one pass over A.
// lint: counted-no-span(accounting helper; kernel entry points own spans)
void count_spmv(WorkCounters* wc, const CSRMatrix& A, Int m = 1) {
  if (!wc) return;
  const std::uint64_t blocks = std::uint64_t((m + kMaxRhsBlock - 1) /
                                             kMaxRhsBlock);
  wc->flops += 2 * std::uint64_t(A.nnz()) * std::uint64_t(m);
  wc->bytes_read +=
      blocks * (std::uint64_t(A.nnz()) * (sizeof(Int) + sizeof(double)) +
                std::uint64_t(A.nrows) * sizeof(Int)) +
      std::uint64_t(A.nnz()) * std::uint64_t(m) * sizeof(double);
  wc->bytes_written +=
      std::uint64_t(A.nrows) * std::uint64_t(m) * sizeof(double);
}

}  // namespace

namespace block {

// Every body walks the columns in blocks of W; per column the k-loop order
// is the same in every instance, so the results are bitwise-equal to the
// single-column call. The accumulators live on the stack.

template <int M>
void spmv(const CSRMatrix& A, const double* x, double* y, Int m,
          WorkCounters* wc) {
  TRACE_SPAN("spmv", "kernel", "rows", std::int64_t(A.nrows), "cols",
             std::int64_t(m));
  HPAMG_CHECK_INVARIANT(check::Depth::kCheap,
                        check::distinct_buffers(y, x, "spmv"));
  constexpr Int W = M ? M : kMaxRhsBlock;
  const Int mm = M ? M : m;
  const Int* HPAMG_RESTRICT rowptr = A.rowptr.data();
  const Int* HPAMG_RESTRICT colidx = A.colidx.data();
  const double* HPAMG_RESTRICT values = A.values.data();
  const double* HPAMG_RESTRICT xp = x;
  double* HPAMG_RESTRICT yp = y;
  for (Int j0 = 0; j0 < mm; j0 += W) {
    const Int bw = M ? M : std::min(W, mm - j0);
#pragma omp parallel for schedule(static)
    for (Int i = 0; i < A.nrows; ++i) {
      double acc[W];
      for (Int j = 0; j < bw; ++j) acc[j] = 0.0;
      for (Int k = rowptr[i]; k < rowptr[i + 1]; ++k) {
        const double v = values[k];
        const double* HPAMG_RESTRICT xr =
            xp + std::size_t(colidx[k]) * mm + j0;
        for (Int j = 0; j < bw; ++j) acc[j] += v * xr[j];
      }
      double* HPAMG_RESTRICT yr = yp + std::size_t(i) * mm + j0;
      for (Int j = 0; j < bw; ++j) yr[j] = acc[j];
    }
  }
  count_spmv(wc, A, mm);
}

/// Shared body of the residual kernels: r = b - A x, and with `norms2sq`
/// also the per-column <r, r> in the same pass (§3.3 fusion: r is never
/// re-read from memory). r aliasing b is fine (b[i] is read before r[i] is
/// written); r aliasing x is not, because x is read at arbitrary columns.
template <int M>
void residual(const CSRMatrix& A, const double* x, const double* b, double* r,
              Int m, double* norms2sq) {
  constexpr Int W = M ? M : kMaxRhsBlock;
  const Int mm = M ? M : m;
  const Int* HPAMG_RESTRICT rowptr = A.rowptr.data();
  const Int* HPAMG_RESTRICT colidx = A.colidx.data();
  const double* HPAMG_RESTRICT values = A.values.data();
  const double* HPAMG_RESTRICT xp = x;
  const int nt = num_threads();
  // One partial per thread and column, allocated outside the region and
  // added in thread-index order below.
  std::vector<double> partial(norms2sq ? std::size_t(nt) * mm : 0, 0.0);
  for (Int j0 = 0; j0 < mm; j0 += W) {
    const Int bw = M ? M : std::min(W, mm - j0);
    // lint: no-span(shared body; both residual entry points open the span)
#pragma omp parallel num_threads(nt)
    {
      double local[W];
      for (Int j = 0; j < bw; ++j) local[j] = 0.0;
#pragma omp for schedule(static) nowait
      for (Int i = 0; i < A.nrows; ++i) {
        double acc[W];
        const double* br = b + std::size_t(i) * mm + j0;
        for (Int j = 0; j < bw; ++j) acc[j] = br[j];
        for (Int k = rowptr[i]; k < rowptr[i + 1]; ++k) {
          const double v = values[k];
          const double* HPAMG_RESTRICT xr =
              xp + std::size_t(colidx[k]) * mm + j0;
          for (Int j = 0; j < bw; ++j) acc[j] -= v * xr[j];
        }
        double* rr = r + std::size_t(i) * mm + j0;
        for (Int j = 0; j < bw; ++j) rr[j] = acc[j];
        if (norms2sq)
          for (Int j = 0; j < bw; ++j) local[j] += acc[j] * acc[j];
      }
      if (norms2sq) {
        double* mine = partial.data() +
                       std::size_t(omp_get_thread_num()) * mm + j0;
        for (Int j = 0; j < bw; ++j) mine[j] = local[j];
      }
    }
  }
  if (!norms2sq) return;
  for (Int j = 0; j < mm; ++j) norms2sq[j] = 0.0;
  for (int t = 0; t < nt; ++t)
    for (Int j = 0; j < mm; ++j)
      norms2sq[j] += partial[std::size_t(t) * mm + j];
}

template <int M>
void spmv_residual(const CSRMatrix& A, const double* x, const double* b,
                   double* r, Int m, WorkCounters* wc) {
  TRACE_SPAN("spmv.residual", "kernel", "rows", std::int64_t(A.nrows),
             "cols", std::int64_t(m));
  HPAMG_CHECK_INVARIANT(check::Depth::kCheap,
                        check::distinct_buffers(r, x, "spmv_residual"));
  residual<M>(A, x, b, r, m, nullptr);
  count_spmv(wc, A, M ? M : m);
}

template <int M>
void spmv_residual_norms(const CSRMatrix& A, const double* x, const double* b,
                         double* r, Int m, double* norms2sq,
                         WorkCounters* wc) {
  TRACE_SPAN("spmv.residual_fused", "kernel", "rows", std::int64_t(A.nrows),
             "cols", std::int64_t(m));
  HPAMG_CHECK_INVARIANT(
      check::Depth::kCheap,
      check::distinct_buffers(r, x, "spmv_residual_norm2sq"));
  residual<M>(A, x, b, r, m, norms2sq);
  const Int mm = M ? M : m;
  count_spmv(wc, A, mm);
  if (wc) wc->flops += 2 * std::uint64_t(A.nrows) * std::uint64_t(mm);
}

template <int M>
void interp_add_identity(const CSRMatrix& Pf, const double* e, double* x,
                         Int nc, Int m, WorkCounters* wc) {
  TRACE_SPAN("spmv.interp_identity", "kernel", "rows",
             std::int64_t(Pf.nrows), "cols", std::int64_t(m));
  require(Pf.ncols == nc, "interp_add_identity_block: shape mismatch");
  HPAMG_CHECK_INVARIANT(
      check::Depth::kCheap,
      check::distinct_buffers(x, e, "interp_add_identity"));
  constexpr Int W = M ? M : kMaxRhsBlock;
  const Int mm = M ? M : m;
  const double* HPAMG_RESTRICT ep = e;
  double* HPAMG_RESTRICT xp = x;
  const std::size_t ncm = std::size_t(nc) * mm;
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < ncm; ++i) xp[i] += ep[i];
  for (Int j0 = 0; j0 < mm; j0 += W) {
    const Int bw = M ? M : std::min(W, mm - j0);
#pragma omp parallel for schedule(static)
    for (Int i = 0; i < Pf.nrows; ++i) {
      double acc[W];
      for (Int j = 0; j < bw; ++j) acc[j] = 0.0;
      for (Int k = Pf.rowptr[i]; k < Pf.rowptr[i + 1]; ++k) {
        const double v = Pf.values[k];
        const double* HPAMG_RESTRICT er =
            ep + std::size_t(Pf.colidx[k]) * mm + j0;
        for (Int j = 0; j < bw; ++j) acc[j] += v * er[j];
      }
      double* HPAMG_RESTRICT xr = xp + std::size_t(nc + i) * mm + j0;
      for (Int j = 0; j < bw; ++j) xr[j] += acc[j];
    }
  }
  count_spmv(wc, Pf, mm);
  if (wc) wc->flops += std::uint64_t(nc) * std::uint64_t(mm);
}

template <int M>
void restrict_identity(const CSRMatrix& PfT, const double* r, double* rc,
                       Int nc, Int m, WorkCounters* wc) {
  TRACE_SPAN("spmv.restrict_identity", "kernel", "rows", std::int64_t(nc),
             "cols", std::int64_t(m));
  require(PfT.nrows == nc, "restrict_identity_block: shape mismatch");
  HPAMG_CHECK_INVARIANT(
      check::Depth::kCheap,
      check::distinct_buffers(rc, r, "restrict_identity"));
  constexpr Int W = M ? M : kMaxRhsBlock;
  const Int mm = M ? M : m;
  const double* HPAMG_RESTRICT rp = r;
  double* HPAMG_RESTRICT rcp = rc;
  for (Int j0 = 0; j0 < mm; j0 += W) {
    const Int bw = M ? M : std::min(W, mm - j0);
#pragma omp parallel for schedule(static)
    for (Int i = 0; i < nc; ++i) {
      double acc[W];
      const double* HPAMG_RESTRICT ri = rp + std::size_t(i) * mm + j0;
      for (Int j = 0; j < bw; ++j) acc[j] = ri[j];
      for (Int k = PfT.rowptr[i]; k < PfT.rowptr[i + 1]; ++k) {
        const double v = PfT.values[k];
        const double* HPAMG_RESTRICT rr =
            rp + std::size_t(nc + PfT.colidx[k]) * mm + j0;
        for (Int j = 0; j < bw; ++j) acc[j] += v * rr[j];
      }
      double* HPAMG_RESTRICT rcr = rcp + std::size_t(i) * mm + j0;
      for (Int j = 0; j < bw; ++j) rcr[j] = acc[j];
    }
  }
  count_spmv(wc, PfT, mm);
  if (wc) wc->flops += std::uint64_t(nc) * std::uint64_t(mm);
}

HPAMG_INSTANTIATE_WIDTHS(spmv, const CSRMatrix&, const double*, double*, Int,
                         WorkCounters*);
HPAMG_INSTANTIATE_WIDTHS(spmv_residual, const CSRMatrix&, const double*,
                         const double*, double*, Int, WorkCounters*);
HPAMG_INSTANTIATE_WIDTHS(spmv_residual_norms, const CSRMatrix&, const double*,
                         const double*, double*, Int, double*, WorkCounters*);
HPAMG_INSTANTIATE_WIDTHS(interp_add_identity, const CSRMatrix&, const double*,
                         double*, Int, Int, WorkCounters*);
HPAMG_INSTANTIATE_WIDTHS(restrict_identity, const CSRMatrix&, const double*,
                         double*, Int, Int, WorkCounters*);

}  // namespace block

void spmv(const CSRMatrix& A, const Vector& x, Vector& y, WorkCounters* wc) {
  require(Int(x.size()) >= A.ncols && Int(y.size()) >= A.nrows,
          "spmv: vector too small");
  block::spmv<1>(A, x.data(), y.data(), 1, wc);
}

void spmv_transpose(const CSRMatrix& A, const Vector& x, Vector& y,
                    WorkCounters* wc) {
  TRACE_SPAN("spmv.transpose", "kernel", "rows", std::int64_t(A.nrows));
  require(Int(x.size()) >= A.nrows && Int(y.size()) >= A.ncols,
          "spmv_transpose: vector too small");
  HPAMG_CHECK_INVARIANT(
      check::Depth::kCheap,
      check::distinct_buffers(y.data(), x.data(), "spmv_transpose"));
  std::fill(y.begin(), y.begin() + A.ncols, 0.0);
  // Scatter form: sequential (concurrent scatters would race), which is
  // exactly why the baseline's transpose-per-restriction is expensive.
  for (Int i = 0; i < A.nrows; ++i) {
    const double xi = x[i];
    for (Int k = A.rowptr[i]; k < A.rowptr[i + 1]; ++k)
      y[A.colidx[k]] += A.values[k] * xi;
  }
  count_spmv(wc, A);
  if (wc) wc->bytes_written += std::uint64_t(A.nnz()) * sizeof(double);
}

void spmv_residual(const CSRMatrix& A, const Vector& x, const Vector& b,
                   Vector& r, WorkCounters* wc) {
  require(Int(r.size()) >= A.nrows, "spmv_residual: r too small");
  block::spmv_residual<1>(A, x.data(), b.data(), r.data(), 1, wc);
}

double spmv_residual_norm2sq_fused(const CSRMatrix& A, const Vector& x,
                                   const Vector& b, Vector& r,
                                   WorkCounters* wc) {
  require(Int(r.size()) >= A.nrows, "spmv_residual fused: r too small");
  double nrm = 0.0;
  block::spmv_residual_norms<1>(A, x.data(), b.data(), r.data(), 1, &nrm, wc);
  return nrm;
}

void interp_add_identity_block(const CSRMatrix& Pf, const Vector& e,
                               Vector& x, Int nc, WorkCounters* wc) {
  block::interp_add_identity<1>(Pf, e.data(), x.data(), nc, 1, wc);
}

void restrict_identity_block(const CSRMatrix& PfT, const Vector& r,
                             Vector& rc, Int nc, WorkCounters* wc) {
  block::restrict_identity<1>(PfT, r.data(), rc.data(), nc, 1, wc);
}

}  // namespace hpamg

#include "amg/smoother.hpp"

#include <algorithm>

#include "support/parallel.hpp"
#include "support/trace.hpp"

namespace hpamg {

namespace block {

template <int M>
void jacobi_sweep(const CSRMatrix& A, const double* b, double* x, double* temp,
                  Int m, double weight, Int row_lo, Int row_hi,
                  WorkCounters* wc) {
  if (row_hi < 0) row_hi = A.nrows;
  TRACE_SPAN("smoother.jacobi", "kernel", "rows",
             std::int64_t(row_hi - row_lo), "cols", std::int64_t(m));
  constexpr Int W = M ? M : kMaxRhsBlock;
  const Int mm = M ? M : m;
  copy_n(x, temp, std::size_t(A.nrows) * mm);
  const double* HPAMG_RESTRICT bp = b;
  const double* HPAMG_RESTRICT tp = temp;
  double* HPAMG_RESTRICT xp = x;
  for (Int j0 = 0; j0 < mm; j0 += W) {
    const Int bw = M ? M : std::min(W, mm - j0);
    parallel_for(row_lo, row_hi, [&](Int i) {
      double acc[W];
      const double* HPAMG_RESTRICT br = bp + std::size_t(i) * mm + j0;
      for (Int j = 0; j < bw; ++j) acc[j] = br[j];
      double diag = 1.0;
      for (Int k = A.rowptr[i]; k < A.rowptr[i + 1]; ++k) {
        const Int col = A.colidx[k];
        if (col == i) {
          diag = A.values[k];
        } else {
          const double v = A.values[k];
          const double* HPAMG_RESTRICT tr = tp + std::size_t(col) * mm + j0;
          for (Int j = 0; j < bw; ++j) acc[j] -= v * tr[j];
        }
      }
      const double* HPAMG_RESTRICT ti = tp + std::size_t(i) * mm + j0;
      double* HPAMG_RESTRICT xr = xp + std::size_t(i) * mm + j0;
      for (Int j = 0; j < bw; ++j)
        xr[j] = ti[j] + weight * (acc[j] / diag - ti[j]);
    });
  }
  if (wc) {
    const std::uint64_t nnz_range =
        std::uint64_t(A.rowptr[row_hi] - A.rowptr[row_lo]);
    wc->flops += 2 * nnz_range * std::uint64_t(mm);
    wc->bytes_read += nnz_range * (sizeof(Int) + sizeof(double)) +
                      nnz_range * std::uint64_t(mm) * sizeof(double);
    wc->bytes_written +=
        std::uint64_t(row_hi - row_lo) * std::uint64_t(mm) * sizeof(double);
  }
}

HPAMG_INSTANTIATE_WIDTHS(jacobi_sweep, const CSRMatrix&, const double*,
                         double*, double*, Int, double, Int, Int,
                         WorkCounters*);

}  // namespace block

void jacobi_sweep(const CSRMatrix& A, const Vector& b, Vector& x,
                  Vector& temp, double weight, Int row_lo, Int row_hi,
                  WorkCounters* wc) {
  if (Int(temp.size()) < A.nrows) temp.resize(A.nrows);
  block::jacobi_sweep<1>(A, b.data(), x.data(), temp.data(), 1, weight,
                         row_lo, row_hi, wc);
}

// ---------------------------------------------------------------------------

HybridGSBaseline::HybridGSBaseline(const CSRMatrix& A, int parts)
    : bounds_(partition_by_weight(A.rowptr,
                                  parts > 0 ? parts : num_threads())) {}

void HybridGSBaseline::sweep(const CSRMatrix& A, const Vector& b, Vector& x,
                             Vector& temp, bool forward,
                             const signed char* cf, signed char want,
                             WorkCounters* wc) const {
  TRACE_SPAN("smoother.gs_baseline", "kernel", "rows",
             std::int64_t(A.nrows));
  copy(x, temp);
  // Partitions are independent within a sweep (in-partition columns read
  // x in Gauss-Seidel order, external columns read the pre-sweep copy), so
  // the partition count is a numerical knob, not a thread count: iterate
  // partitions on the ambient team instead of forcing a team of nt threads
  // (which oversubscribes badly for large gs_partitions).
  const int nt = int(bounds_.size()) - 1;
  std::vector<WorkCounters> counters(wc ? nt : 0);
#pragma omp parallel for schedule(static)
  for (int t = 0; t < nt; ++t) {
    const Int is = bounds_[t], ie = bounds_[t + 1];
    WorkCounters local;
    for (Int s = 0; s < ie - is; ++s) {
      const Int i = forward ? is + s : ie - 1 - s;
      // Baseline per-row C/F branch when doing C-F relaxation.
      ++local.branches;
      if (cf && cf[i] != want) continue;
      double acc = b[i];
      double diag = 1.0;
      for (Int k = A.rowptr[i]; k < A.rowptr[i + 1]; ++k) {
        const Int j = A.colidx[k];
        // Fig 2(a): one branch per column for the diagonal test and one for
        // thread ownership.
        local.branches += 2;
        if (j == i) {
          diag = A.values[k];
        } else if (j >= is && j < ie) {
          acc -= A.values[k] * x[j];
        } else {
          acc -= A.values[k] * temp[j];
        }
        local.flops += 2;
      }
      x[i] = acc / diag;
      local.bytes_read += std::uint64_t(A.rowptr[i + 1] - A.rowptr[i]) *
                          (sizeof(Int) + 2 * sizeof(double));
      local.bytes_written += sizeof(double);
    }
    if (wc) counters[t] = local;
  }
  if (wc)
    for (const WorkCounters& c : counters) *wc += c;
}

// ---------------------------------------------------------------------------

HybridGSOptimized::HybridGSOptimized(const CSRMatrix& A, int parts)
    : n_(A.nrows),
      rowptr_(A.rowptr.data()),
      colidx_(A.colidx.data()),
      values_(A.values.data()),
      local_begin_(std::size_t(A.nrows)),
      diag_(std::size_t(A.nrows)),
      local_end_(std::size_t(A.nrows)),
      inv_diag_(std::size_t(A.nrows), 1.0),
      bounds_(partition_by_weight(A.rowptr,
                                  parts > 0 ? parts : num_threads())) {
  require(A.nrows == A.ncols, "HybridGSOptimized: matrix must be square");
  TRACE_SPAN("smoother.gs_plan", "kernel", "rows", std::int64_t(n_));
  // A sorted row owned by partition [is, ie) reads external-below | lower |
  // diagonal | upper | external-above: one walk finds the three cuts.
  bool sorted = true;
#pragma omp parallel for schedule(static) reduction(&& : sorted)
  for (Int i = 0; i < n_; ++i) {
    const std::size_t t = std::size_t(
        std::upper_bound(bounds_.begin(), bounds_.end(), i) - bounds_.begin());
    const Int is = bounds_[t - 1], ie = bounds_[t];
    const Int end = A.rowptr[i + 1];
    for (Int k = A.rowptr[i] + 1; k < end; ++k)
      sorted = sorted && A.colidx[k - 1] < A.colidx[k];
    Int k = A.rowptr[i];
    while (k < end && A.colidx[k] < is) ++k;
    local_begin_[i] = k;
    while (k < end && A.colidx[k] < i) ++k;
    diag_[i] = k;
    if (k < end && A.colidx[k] == i && A.values[k] != 0.0)
      inv_diag_[i] = 1.0 / A.values[k];
    while (k < end && A.colidx[k] < ie) ++k;
    local_end_[i] = k;
  }
  require(sorted, "HybridGSOptimized: rows must be column-sorted");
}

template <int M>
void HybridGSOptimized::sweep_block(const double* b, double* x, double* temp,
                                    Int m, Int row_lo, Int row_hi,
                                    bool forward, bool zero_init,
                                    WorkCounters* wc) const {
  TRACE_SPAN("smoother.gs_optimized", "kernel", "rows", std::int64_t(n_),
             "cols", std::int64_t(m));
  if (row_hi < 0) row_hi = n_;
  constexpr Int W = M ? M : kMaxRhsBlock;
  const Int mm = M ? M : m;
  if (!zero_init) copy_n(x, temp, std::size_t(n_) * mm);
  // Partitions are independent within a sweep, so they are distributed
  // over the ambient team rather than forcing a num_threads(nt) team per
  // call.
  const int nt = int(bounds_.size()) - 1;
  std::vector<WorkCounters> counters(wc ? nt : 0);
  const double* HPAMG_RESTRICT bp = b;
  const double* HPAMG_RESTRICT tp = temp;
  double* HPAMG_RESTRICT xp = x;
#pragma omp parallel for schedule(static)
  for (int t = 0; t < nt; ++t) {
    const Int is = std::max(bounds_[t], row_lo);
    const Int ie = std::min(bounds_[t + 1], row_hi);
    WorkCounters local;
    const Int* HPAMG_RESTRICT colidx = colidx_;
    const double* HPAMG_RESTRICT values = values_;
    // acc -= A(i, k) * v(col k) over the stored entries [lo, hi).
    const auto subtract = [&](double* acc, const double* HPAMG_RESTRICT v,
                              Int lo, Int hi, Int j0, Int bw) {
      for (Int k = lo; k < hi; ++k) {
        const double a = values[k];
        const double* HPAMG_RESTRICT vr = v + std::size_t(colidx[k]) * mm + j0;
        for (Int j = 0; j < bw; ++j) acc[j] -= a * vr[j];
      }
    };
    for (Int j0 = 0; j0 < mm; j0 += W) {
      const Int bw = M ? M : std::min(W, mm - j0);
      for (Int s = 0; s < ie - is; ++s) {
        const Int i = forward ? is + s : ie - 1 - s;
        const Int lower = local_begin_[i], d = diag_[i], end = local_end_[i];
        const Int upper = d + Int(d < end && colidx[d] == i);
        const Int offdiag = rowptr_[i + 1] - rowptr_[i] - (upper - d);
        double acc[W];
        const double* HPAMG_RESTRICT br = bp + std::size_t(i) * mm + j0;
        for (Int j = 0; j < bw; ++j) acc[j] = br[j];
        // Local-lower: already updated this sweep — read x directly.
        subtract(acc, xp, lower, d, j0, bw);
        if (!zero_init) {
          // Local-upper: previous-sweep values, still in x (Gauss-Seidel).
          subtract(acc, xp, upper, end, j0, bw);
          // External: other partitions' rows — read the pre-sweep copy.
          subtract(acc, tp, rowptr_[i], lower, j0, bw);
          subtract(acc, tp, end, rowptr_[i + 1], j0, bw);
          local.flops += 2 * std::uint64_t(offdiag) * std::uint64_t(bw);
        } else {
          // Upper triangle and external entries multiply known zeros
          // (§3.2): skip them entirely. Only the forward sweep preserves
          // this invariant; callers assert forward when zero_init.
          local.flops += 2 * std::uint64_t(d - lower) * std::uint64_t(bw);
        }
        const double inv = inv_diag_[i];
        double* HPAMG_RESTRICT xr = xp + std::size_t(i) * mm + j0;
        for (Int j = 0; j < bw; ++j) xr[j] = acc[j] * inv;
        local.bytes_read += std::uint64_t(offdiag) *
                            (sizeof(Int) + sizeof(double) +
                             std::uint64_t(bw) * sizeof(double));
        local.bytes_written += std::uint64_t(bw) * sizeof(double);
      }
    }
    if (wc) counters[t] = local;
  }
  if (wc)
    for (const WorkCounters& c : counters) *wc += c;
}

template void HybridGSOptimized::sweep_block<0>(const double*, double*,
                                                double*, Int, Int, Int, bool,
                                                bool, WorkCounters*) const;
template void HybridGSOptimized::sweep_block<1>(const double*, double*,
                                                double*, Int, Int, Int, bool,
                                                bool, WorkCounters*) const;

void HybridGSOptimized::sweep(const Vector& b, Vector& x, Vector& temp,
                              Int row_lo, Int row_hi, bool forward,
                              bool zero_init, WorkCounters* wc) const {
  if (Int(temp.size()) < n_) temp.resize(n_);
  sweep_block<1>(b.data(), x.data(), temp.data(), 1, row_lo, row_hi, forward,
                 zero_init, wc);
}

// ---------------------------------------------------------------------------

namespace {

/// Gauss-Seidel over groups of mutually uncoupled rows (wavefront levels,
/// colors): groups in order (reversed when !forward), the rows of one
/// group in parallel, each reading every other row's current value.
// lint: counted-no-span(shared body; LexGS and MultiColorGS open the span)
void sweep_row_groups(const CSRMatrix& A, const std::vector<Int>& group_ptr,
                      const std::vector<Int>& group_rows,
                      const std::vector<double>& inv_diag, const Vector& b,
                      Vector& x, bool forward, WorkCounters* wc) {
  const Int ng = Int(group_ptr.size()) - 1;
  for (Int gw = 0; gw < ng; ++gw) {
    const Int g = forward ? gw : ng - 1 - gw;
    parallel_for(group_ptr[g], group_ptr[g + 1], [&](Int p) {
      const Int i = group_rows[p];
      double acc = b[i];
      for (Int k = A.rowptr[i]; k < A.rowptr[i + 1]; ++k) {
        const Int j = A.colidx[k];
        if (j != i) acc -= A.values[k] * x[j];
      }
      x[i] = acc * inv_diag[i];
    });
  }
  if (wc) {
    wc->flops += 2 * std::uint64_t(A.nnz());
    wc->bytes_read +=
        std::uint64_t(A.nnz()) * (sizeof(Int) + 2 * sizeof(double));
    wc->bytes_written += std::uint64_t(A.nrows) * sizeof(double);
  }
}

}  // namespace

LexGS::LexGS(const CSRMatrix& A) {
  const Int n = A.nrows;
  inv_diag_.assign(n, 1.0);
  std::vector<Int> level(n, 0);
  Int max_level = 0;
  for (Int i = 0; i < n; ++i) {
    Int lv = 0;
    for (Int k = A.rowptr[i]; k < A.rowptr[i + 1]; ++k) {
      const Int j = A.colidx[k];
      if (j < i) lv = std::max(lv, level[j] + 1);
      if (j == i && A.values[k] != 0.0) inv_diag_[i] = 1.0 / A.values[k];
    }
    level[i] = lv;
    max_level = std::max(max_level, lv);
  }
  level_ptr_.assign(max_level + 2, 0);
  for (Int i = 0; i < n; ++i) ++level_ptr_[level[i] + 1];
  for (Int l = 0; l <= max_level; ++l) level_ptr_[l + 1] += level_ptr_[l];
  level_rows_.resize(n);
  std::vector<Int> fill(level_ptr_.begin(), level_ptr_.end() - 1);
  for (Int i = 0; i < n; ++i) level_rows_[fill[level[i]]++] = i;
}

void LexGS::sweep_fused_residual(const CSRMatrix& A, Vector& x, Vector& r,
                                 WorkCounters* wc) const {
  TRACE_SPAN("smoother.lexgs_fused", "kernel", "rows",
             std::int64_t(A.nrows));
  // Residual-form Gauss-Seidel: with r = b - A x maintained exactly, the
  // GS update of row i is simply delta = r_i / a_ii. The scatter of
  // column i (== row i by symmetry) then restores the invariant. Rows
  // within one wavefront level touch disjoint dependencies, but their
  // scatters may collide on shared neighbors, so the scatter runs
  // sequentially within a level on conflicting columns; with one thread
  // per level partition the simple sequential-per-level form is exact.
  const Int nlv = num_levels();
  for (Int l = 0; l < nlv; ++l) {
    for (Int p = level_ptr_[l]; p < level_ptr_[l + 1]; ++p) {
      const Int i = level_rows_[p];
      const double delta = r[i] * inv_diag_[i];
      if (delta == 0.0) continue;
      x[i] += delta;
      for (Int k = A.rowptr[i]; k < A.rowptr[i + 1]; ++k)
        r[A.colidx[k]] -= A.values[k] * delta;
    }
  }
  if (wc) {
    wc->flops += 3 * std::uint64_t(A.nnz());
    wc->bytes_read +=
        std::uint64_t(A.nnz()) * (sizeof(Int) + 2 * sizeof(double));
    wc->bytes_written += std::uint64_t(A.nnz()) * sizeof(double);
  }
}

void LexGS::sweep(const CSRMatrix& A, const Vector& b, Vector& x,
                  bool forward, WorkCounters* wc) const {
  TRACE_SPAN("smoother.lexgs", "kernel", "rows", std::int64_t(A.nrows));
  sweep_row_groups(A, level_ptr_, level_rows_, inv_diag_, b, x, forward, wc);
}

// ---------------------------------------------------------------------------

MultiColorGS::MultiColorGS(const CSRMatrix& A) {
  const Int n = A.nrows;
  inv_diag_.assign(n, 1.0);
  // Greedy first-fit coloring in row order; symmetric patterns get a
  // proper coloring (no two neighbors share a color).
  std::vector<Int> color(n, -1);
  Int ncolors = 0;
  std::vector<char> used;
  for (Int i = 0; i < n; ++i) {
    used.assign(ncolors + 1, 0);
    for (Int k = A.rowptr[i]; k < A.rowptr[i + 1]; ++k) {
      const Int j = A.colidx[k];
      if (j == i) {
        if (A.values[k] != 0.0) inv_diag_[i] = 1.0 / A.values[k];
        continue;
      }
      if (color[j] >= 0) used[color[j]] = 1;
    }
    Int c = 0;
    while (c < ncolors && used[c]) ++c;
    color[i] = c;
    ncolors = std::max(ncolors, c + 1);
  }
  color_ptr_.assign(ncolors + 1, 0);
  for (Int i = 0; i < n; ++i) ++color_ptr_[color[i] + 1];
  for (Int c = 0; c < ncolors; ++c) color_ptr_[c + 1] += color_ptr_[c];
  color_rows_.resize(n);
  std::vector<Int> fill(color_ptr_.begin(), color_ptr_.end() - 1);
  for (Int i = 0; i < n; ++i) color_rows_[fill[color[i]]++] = i;
}

void MultiColorGS::sweep(const CSRMatrix& A, const Vector& b, Vector& x,
                         bool forward, WorkCounters* wc) const {
  TRACE_SPAN("smoother.multicolor_gs", "kernel", "rows",
             std::int64_t(A.nrows));
  // Rows of one color have no mutual coupling: safe to update in parallel
  // while reading every other color's current values. Each color pass
  // re-streams the index structure: the memory-traffic cost behind AmgX's
  // slower MULTICOLOR_GS iterations.
  sweep_row_groups(A, color_ptr_, color_rows_, inv_diag_, b, x, forward, wc);
}

}  // namespace hpamg

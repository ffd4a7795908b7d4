#include "spgemm/rap.hpp"

#include <algorithm>

#include "support/parallel.hpp"
#include "support/trace.hpp"

namespace hpamg {

namespace {

/// Shared chunked-output machinery: each thread appends rows for its row
/// range into private buffers; stitch() assembles the final CSR matrix.
struct ChunkedOutput {
  explicit ChunkedOutput(int nt)
      : cols(nt), vals(nt), rownnz(nt), counters(nt) {}

  std::vector<std::vector<Int>> cols;
  std::vector<std::vector<double>> vals;
  std::vector<std::vector<Int>> rownnz;
  std::vector<WorkCounters> counters;

  CSRMatrix stitch(Int nrows, Int ncols, const std::vector<Int>& bounds,
                   WorkCounters* wc) {
    CSRMatrix C(nrows, ncols);
    const int nt = int(cols.size());
    for (int t = 0; t < nt; ++t)
      for (std::size_t r = 0; r < rownnz[t].size(); ++r)
        C.rowptr[bounds[t] + Int(r) + 1] = rownnz[t][r];
    exclusive_scan(C.rowptr);
    C.colidx.resize(C.rowptr[nrows]);
    C.values.resize(C.rowptr[nrows]);
    // lint: no-span(chunk-assembly helper; the rap_* kernels that call it hold the span)
#pragma omp parallel num_threads(nt)
    {
      const int t = omp_get_thread_num();
      const Int dst = C.rowptr[bounds[t]];
      std::copy(cols[t].begin(), cols[t].end(), C.colidx.begin() + dst);
      std::copy(vals[t].begin(), vals[t].end(), C.values.begin() + dst);
    }
    if (wc)
      for (const WorkCounters& c : counters) *wc += c;
    return C;
  }
};

}  // namespace

CSRMatrix rap_unfused(const CSRMatrix& R, const CSRMatrix& A,
                      const CSRMatrix& P, bool onepass, WorkCounters* wc) {
  TRACE_SPAN("spgemm.rap_unfused", "kernel", "rows", std::int64_t(A.nrows));
  if (onepass) {
    CSRMatrix B = spgemm_onepass(R, A, {}, wc);
    return spgemm_onepass(B, P, {}, wc);
  }
  CSRMatrix B = spgemm_twopass(R, A, wc);
  return spgemm_twopass(B, P, wc);
}

CSRMatrix rap_fused_hypre(const CSRMatrix& R, const CSRMatrix& A,
                          const CSRMatrix& P, WorkCounters* wc) {
  TRACE_SPAN("spgemm.rap_fused", "kernel", "rows", std::int64_t(A.nrows));
  require(R.ncols == A.nrows && A.ncols == P.nrows, "rap: shape mismatch");
  const Int nc_out = P.ncols;
  const int nt = num_threads();
  ChunkedOutput out(nt);
  std::vector<Int> bounds = partition_by_weight(R.rowptr, nt);
#pragma omp parallel num_threads(nt)
  {
    const int t = omp_get_thread_num();
    WorkCounters& cnt = out.counters[t];
    auto& cols = out.cols[t];
    auto& vals = out.vals[t];
    auto& rownnz = out.rownnz[t];
    const Int row_lo = bounds[t], row_hi = bounds[t + 1];
    rownnz.resize(row_hi - row_lo);
    std::vector<Int> marker(nc_out, -1);
    Int fill = 0;
    for (Int i = row_lo; i < row_hi; ++i) {
      const Int row_start = fill;
      for (Int kr = R.rowptr[i]; kr < R.rowptr[i + 1]; ++kr) {
        const Int j = R.colidx[kr];
        const double r = R.values[kr];
        for (Int ka = A.rowptr[j]; ka < A.rowptr[j + 1]; ++ka) {
          const Int k = A.colidx[ka];
          const double temp = r * A.values[ka];
          cnt.flops += 1;
          // Fig 1(b): scatter temp through row k of P immediately. Each
          // (i,j,k) pair replays P's row — the redundant work the rowwise
          // fusion removes.
          for (Int kp = P.rowptr[k]; kp < P.rowptr[k + 1]; ++kp) {
            const Int c = P.colidx[kp];
            const double v = temp * P.values[kp];
            cnt.flops += 2;
            ++cnt.branches;
            if (marker[c] < row_start) {
              marker[c] = fill;
              cols.push_back(c);
              vals.push_back(v);
              ++fill;
            } else {
              vals[marker[c]] += v;
            }
          }
          cnt.bytes_read +=
              (P.rowptr[k + 1] - P.rowptr[k]) * (sizeof(Int) + sizeof(double));
        }
        cnt.bytes_read +=
            (A.rowptr[j + 1] - A.rowptr[j]) * (sizeof(Int) + sizeof(double));
      }
      rownnz[i - row_lo] = fill - row_start;
    }
  }
  return out.stitch(R.nrows, nc_out, bounds, wc);
}

namespace {

/// Core of the row-wise fused RAP: given the sparse row (bcols, bvals) of
/// B = R*A, scatter B_i * P into the output accumulator.
// lint: counted-no-span(per-row helper; spgemm.rap_rowwise owns the span)
inline void scatter_row_times_p(const Int* bcols, const double* bvals,
                                Int bn, const CSRMatrix& P, Int row_start,
                                std::vector<Int>& marker,
                                std::vector<Int>& cols,
                                std::vector<double>& vals, Int& fill,
                                WorkCounters& cnt, bool prefetch) {
  for (Int kb = 0; kb < bn; ++kb) {
    const Int j = bcols[kb];
    if (prefetch && kb + 1 < bn) {
      const Int jn = bcols[kb + 1];
      __builtin_prefetch(P.colidx.data() + P.rowptr[jn]);
      __builtin_prefetch(P.values.data() + P.rowptr[jn]);
    }
    const double b = bvals[kb];
    for (Int kp = P.rowptr[j]; kp < P.rowptr[j + 1]; ++kp) {
      const Int c = P.colidx[kp];
      const double v = b * P.values[kp];
      cnt.flops += 2;
      ++cnt.branches;
      if (marker[c] < row_start) {
        marker[c] = fill;
        cols.push_back(c);
        vals.push_back(v);
        ++fill;
      } else {
        vals[marker[c]] += v;
      }
    }
    cnt.bytes_read +=
        (P.rowptr[j + 1] - P.rowptr[j]) * (sizeof(Int) + sizeof(double));
  }
}

/// Accumulates alpha * M_row(j) into the scratch sparse row (B_i).
// lint: counted-no-span(per-row helper; the RAP kernel spans cover it)
inline void accumulate_scaled_row(const CSRMatrix& M, Int j, double alpha,
                                  Int brow_start, std::vector<Int>& bmarker,
                                  std::vector<Int>& bcols,
                                  std::vector<double>& bvals, Int& bfill,
                                  WorkCounters& cnt, bool prefetch,
                                  Int prefetch_row) {
  if (prefetch && prefetch_row >= 0) {
    __builtin_prefetch(M.colidx.data() + M.rowptr[prefetch_row]);
    __builtin_prefetch(M.values.data() + M.rowptr[prefetch_row]);
  }
  for (Int k = M.rowptr[j]; k < M.rowptr[j + 1]; ++k) {
    const Int c = M.colidx[k];
    const double v = alpha * M.values[k];
    cnt.flops += 2;
    ++cnt.branches;
    if (bmarker[c] < brow_start) {
      bmarker[c] = bfill;
      bcols.push_back(c);
      bvals.push_back(v);
      ++bfill;
    } else {
      bvals[bmarker[c]] += v;
    }
  }
  cnt.bytes_read +=
      (M.rowptr[j + 1] - M.rowptr[j]) * (sizeof(Int) + sizeof(double));
}

}  // namespace

CSRMatrix rap_fused_rowwise(const CSRMatrix& R, const CSRMatrix& A,
                            const CSRMatrix& P, const SpgemmOptions& opt,
                            WorkCounters* wc) {
  TRACE_SPAN("spgemm.rap_rowwise", "kernel", "rows", std::int64_t(A.nrows));
  require(R.ncols == A.nrows && A.ncols == P.nrows, "rap: shape mismatch");
  const Int nc_out = P.ncols;
  const int nt = num_threads();
  ChunkedOutput out(nt);
  std::vector<Int> bounds = partition_by_weight(R.rowptr, nt);
#pragma omp parallel num_threads(nt)
  {
    const int t = omp_get_thread_num();
    WorkCounters& cnt = out.counters[t];
    auto& cols = out.cols[t];
    auto& vals = out.vals[t];
    auto& rownnz = out.rownnz[t];
    const Int row_lo = bounds[t], row_hi = bounds[t + 1];
    rownnz.resize(row_hi - row_lo);
    std::vector<Int> marker(nc_out, -1);
    // Scratch for the current row of B = R*A. Reset per row via the marker
    // row_start trick; storage reused so it stays in cache (the point of
    // the fusion).
    std::vector<Int> bmarker(A.ncols, -1);
    std::vector<Int> bcols;
    std::vector<double> bvals;
    Int fill = 0;
    for (Int i = row_lo; i < row_hi; ++i) {
      // ---- B_i = R_i * A ----
      bcols.clear();
      bvals.clear();
      Int bfill = 0;
      for (Int kr = R.rowptr[i]; kr < R.rowptr[i + 1]; ++kr) {
        const Int nxt =
            (opt.prefetch && kr + 1 < R.rowptr[i + 1]) ? R.colidx[kr + 1] : -1;
        accumulate_scaled_row(A, R.colidx[kr], R.values[kr], 0, bmarker,
                              bcols, bvals, bfill, cnt, opt.prefetch, nxt);
      }
      // Invalidate bmarker for the next row cheaply: positions < 0 test
      // requires distinct row starts, so shift by marking used columns.
      // ---- C_i = B_i * P (B_i is cache-hot) ----
      const Int row_start = fill;
      scatter_row_times_p(bcols.data(), bvals.data(), bfill, P, row_start,
                          marker, cols, vals, fill, cnt, opt.prefetch);
      for (Int k = 0; k < bfill; ++k) bmarker[bcols[k]] = -1;
      rownnz[i - row_lo] = fill - row_start;
      cnt.bytes_read +=
          (R.rowptr[i + 1] - R.rowptr[i]) * (sizeof(Int) + sizeof(double));
    }
    cnt.bytes_written += std::uint64_t(fill) * (sizeof(Int) + sizeof(double));
  }
  return out.stitch(R.nrows, nc_out, bounds, wc);
}

CSRMatrix rap_cf_block(const CSRMatrix& Aperm, const CSRMatrix& Pf,
                       const CSRMatrix& PfT, Int nc, const SpgemmOptions& opt,
                       WorkCounters* wc) {
  TRACE_SPAN("spgemm.rap_cf", "kernel", "rows", std::int64_t(Aperm.nrows));
  require(Aperm.nrows == Aperm.ncols, "rap_cf_block: A must be square");
  const Int n = Aperm.nrows;
  const Int nf = n - nc;
  require(Pf.nrows == nf && Pf.ncols == nc, "rap_cf_block: Pf shape");
  require(PfT.nrows == nc && PfT.ncols == nf, "rap_cf_block: PfT shape");

  const int nt = num_threads();
  ChunkedOutput out(nt);
  std::vector<Int> bounds(nt + 1);
  for (int t = 0; t <= nt; ++t) bounds[t] = Int(Long(nc) * t / nt);

#pragma omp parallel num_threads(nt)
  {
    const int t = omp_get_thread_num();
    WorkCounters& cnt = out.counters[t];
    auto& cols = out.cols[t];
    auto& vals = out.vals[t];
    auto& rownnz = out.rownnz[t];
    const Int row_lo = bounds[t], row_hi = bounds[t + 1];
    rownnz.resize(row_hi - row_lo);
    std::vector<Int> marker(nc, -1);
    std::vector<Int> bmarker(nf, -1);
    std::vector<Int> bcols;  // fine-column scratch row (Acf + PfT*Aff)_i
    std::vector<double> bvals;
    Int fill = 0;
    for (Int i = row_lo; i < row_hi; ++i) {
      const Int row_start = fill;
      auto emit = [&](Int c, double v) {
        ++cnt.branches;
        if (marker[c] < row_start) {
          marker[c] = fill;
          cols.push_back(c);
          vals.push_back(v);
          ++fill;
        } else {
          vals[marker[c]] += v;
        }
      };
      bcols.clear();
      bvals.clear();
      Int bfill = 0;
      auto bemit = [&](Int c, double v) {
        ++cnt.branches;
        if (bmarker[c] < 0) {
          bmarker[c] = bfill;
          bcols.push_back(c);
          bvals.push_back(v);
          ++bfill;
        } else {
          bvals[bmarker[c]] += v;
        }
      };
      // Row i of Aperm: coarse columns feed Acc_i directly; fine columns
      // (shifted by nc) start the scratch row (the Acf_i term).
      for (Int k = Aperm.rowptr[i]; k < Aperm.rowptr[i + 1]; ++k) {
        const Int c = Aperm.colidx[k];
        if (c < nc)
          emit(c, Aperm.values[k]);
        else
          bemit(c - nc, Aperm.values[k]);
      }
      cnt.bytes_read += (Aperm.rowptr[i + 1] - Aperm.rowptr[i]) *
                        (sizeof(Int) + sizeof(double));
      // PfT_i * [Afc | Aff]: row k of the permuted A split on the fly.
      for (Int kp = PfT.rowptr[i]; kp < PfT.rowptr[i + 1]; ++kp) {
        const Int kf = PfT.colidx[kp];     // fine point index (0-based)
        const Int arow = nc + kf;          // its row in Aperm
        const double r = PfT.values[kp];
        if (opt.prefetch && kp + 1 < PfT.rowptr[i + 1]) {
          const Int nxt = nc + PfT.colidx[kp + 1];
          __builtin_prefetch(Aperm.colidx.data() + Aperm.rowptr[nxt]);
          __builtin_prefetch(Aperm.values.data() + Aperm.rowptr[nxt]);
        }
        for (Int k = Aperm.rowptr[arow]; k < Aperm.rowptr[arow + 1]; ++k) {
          const Int c = Aperm.colidx[k];
          const double v = r * Aperm.values[k];
          cnt.flops += 2;
          if (c < nc)
            emit(c, v);  // PfT * Afc term
          else
            bemit(c - nc, v);  // PfT * Aff term
        }
        cnt.bytes_read += (Aperm.rowptr[arow + 1] - Aperm.rowptr[arow]) *
                          (sizeof(Int) + sizeof(double));
      }
      // (Acf + PfT*Aff)_i * Pf — scratch row is cache-hot.
      scatter_row_times_p(bcols.data(), bvals.data(), bfill, Pf, row_start,
                          marker, cols, vals, fill, cnt, opt.prefetch);
      for (Int k = 0; k < bfill; ++k) bmarker[bcols[k]] = -1;
      rownnz[i - row_lo] = fill - row_start;
    }
    cnt.bytes_written += std::uint64_t(fill) * (sizeof(Int) + sizeof(double));
  }
  return out.stitch(nc, nc, bounds, wc);
}

}  // namespace hpamg

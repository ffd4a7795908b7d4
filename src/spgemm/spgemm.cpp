#include "spgemm/spgemm.hpp"

#include <algorithm>

#include "support/parallel.hpp"
#include "support/trace.hpp"

namespace hpamg {

namespace {

/// Per-thread accumulation of work counters merged into wc at the end.
struct ThreadCounters {
  std::vector<WorkCounters> per_thread;
  explicit ThreadCounters(int nt) : per_thread(nt) {}
  void merge_into(WorkCounters* wc) {
    if (!wc) return;
    for (const WorkCounters& c : per_thread) *wc += c;
  }
};

}  // namespace

CSRMatrix spgemm_twopass(const CSRMatrix& A, const CSRMatrix& B,
                         WorkCounters* wc) {
  TRACE_SPAN("spgemm.twopass", "kernel", "rows", std::int64_t(A.nrows));
  require(A.ncols == B.nrows, "spgemm: shape mismatch");
  CSRMatrix C(A.nrows, B.ncols);
  const int nt = num_threads();
  ThreadCounters tc(nt);

  // ---- Symbolic pass: count nnz of each output row (reads A and B). ----
  std::vector<Int> bounds = partition_by_weight(A.rowptr, nt);
#pragma omp parallel num_threads(nt)
  {
    const int t = omp_get_thread_num();
    WorkCounters& cnt = tc.per_thread[t];
    std::vector<Int> marker(B.ncols, -1);
    for (Int i = bounds[t]; i < bounds[t + 1]; ++i) {
      Int row_nnz = 0;
      for (Int ka = A.rowptr[i]; ka < A.rowptr[i + 1]; ++ka) {
        const Int j = A.colidx[ka];
        for (Int kb = B.rowptr[j]; kb < B.rowptr[j + 1]; ++kb) {
          const Int c = B.colidx[kb];
          ++cnt.branches;
          if (marker[c] != i) {
            marker[c] = i;
            ++row_nnz;
          }
        }
        cnt.bytes_read += (B.rowptr[j + 1] - B.rowptr[j]) * sizeof(Int);
      }
      C.rowptr[i + 1] = row_nnz;
      cnt.bytes_read += (A.rowptr[i + 1] - A.rowptr[i]) * sizeof(Int);
    }
  }
  exclusive_scan(C.rowptr);
  const Long nnz = C.rowptr[C.nrows];
  C.colidx.resize(nnz);
  C.values.resize(nnz);

  // ---- Numeric pass: reads A and B again, writes C in place. ----
#pragma omp parallel num_threads(nt)
  {
    const int t = omp_get_thread_num();
    WorkCounters& cnt = tc.per_thread[t];
    std::vector<Int> marker(B.ncols, -1);
    for (Int i = bounds[t]; i < bounds[t + 1]; ++i) {
      const Int row_start = C.rowptr[i];
      Int fill = row_start;
      for (Int ka = A.rowptr[i]; ka < A.rowptr[i + 1]; ++ka) {
        const Int j = A.colidx[ka];
        const double a = A.values[ka];
        for (Int kb = B.rowptr[j]; kb < B.rowptr[j + 1]; ++kb) {
          const Int c = B.colidx[kb];
          const double v = a * B.values[kb];
          ++cnt.branches;
          cnt.flops += 2;
          if (marker[c] < row_start) {
            marker[c] = fill;
            C.colidx[fill] = c;
            C.values[fill] = v;
            ++fill;
          } else {
            C.values[marker[c]] += v;
          }
        }
        cnt.bytes_read +=
            (B.rowptr[j + 1] - B.rowptr[j]) * (sizeof(Int) + sizeof(double));
      }
      cnt.bytes_read +=
          (A.rowptr[i + 1] - A.rowptr[i]) * (sizeof(Int) + sizeof(double));
      cnt.bytes_written += (fill - row_start) * (sizeof(Int) + sizeof(double));
    }
  }
  tc.merge_into(wc);
  return C;
}

CSRMatrix spgemm_onepass(const CSRMatrix& A, const CSRMatrix& B,
                         const SpgemmOptions& opt, WorkCounters* wc) {
  TRACE_SPAN("spgemm.onepass", "kernel", "rows", std::int64_t(A.nrows));
  require(A.ncols == B.nrows, "spgemm: shape mismatch");
  CSRMatrix C(A.nrows, B.ncols);
  const int nt = num_threads();
  ThreadCounters tc(nt);
  std::vector<Int> bounds = partition_by_weight(A.rowptr, nt);

  // Per-thread chunks, pre-allocated generously and grown on demand. The
  // virtual-memory argument from the paper: reserving a large chunk is
  // cheap because pages bind lazily on first touch.
  std::vector<std::vector<Int>> chunk_col(nt);
  std::vector<std::vector<double>> chunk_val(nt);
  std::vector<std::vector<Int>> chunk_rownnz(nt);

#pragma omp parallel num_threads(nt)
  {
    const int t = omp_get_thread_num();
    WorkCounters& cnt = tc.per_thread[t];
    const Int row_lo = bounds[t], row_hi = bounds[t + 1];
    auto& cols = chunk_col[t];
    auto& vals = chunk_val[t];
    auto& rownnz = chunk_rownnz[t];
    rownnz.resize(row_hi - row_lo);
    // Estimate: average B row density times this thread's A nnz.
    const Long a_nnz = A.rowptr[row_hi] - A.rowptr[row_lo];
    const double b_density =
        B.nrows > 0 ? double(B.nnz()) / double(B.nrows) : 1.0;
    cols.reserve(std::size_t(double(a_nnz) * b_density) + 64);
    vals.reserve(cols.capacity());

    std::vector<Int> marker(B.ncols, -1);
    Int fill = 0;
    for (Int i = row_lo; i < row_hi; ++i) {
      const Int row_start = fill;
      for (Int ka = A.rowptr[i]; ka < A.rowptr[i + 1]; ++ka) {
        const Int j = A.colidx[ka];
        if (opt.prefetch && ka + 1 < A.rowptr[i + 1]) {
          // Prefetch the next B row referenced by this A row; the hardware
          // prefetcher cannot see through the indirection (§3.1.1).
          const Int jn = A.colidx[ka + 1];
          __builtin_prefetch(B.colidx.data() + B.rowptr[jn]);
          __builtin_prefetch(B.values.data() + B.rowptr[jn]);
        }
        const double a = A.values[ka];
        const Int kb_end = B.rowptr[j + 1];
        for (Int kb = B.rowptr[j]; kb < kb_end; ++kb) {
          const Int c = B.colidx[kb];
          const double v = a * B.values[kb];
          ++cnt.branches;
          cnt.flops += 2;
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
            (kb_end - B.rowptr[j]) * (sizeof(Int) + sizeof(double));
      }
      rownnz[i - row_lo] = fill - row_start;
      cnt.bytes_read +=
          (A.rowptr[i + 1] - A.rowptr[i]) * (sizeof(Int) + sizeof(double));
    }
    cnt.bytes_written += std::uint64_t(fill) * (sizeof(Int) + sizeof(double));
  }

  // Stitch chunks: row sizes -> global rowptr, then contiguous copy-out.
  for (int t = 0; t < nt; ++t) {
    const Int row_lo = bounds[t];
    for (std::size_t r = 0; r < chunk_rownnz[t].size(); ++r)
      C.rowptr[row_lo + Int(r) + 1] = chunk_rownnz[t][r];
  }
  exclusive_scan(C.rowptr);
  const Long nnz = C.rowptr[C.nrows];
  C.colidx.resize(nnz);
  C.values.resize(nnz);
#pragma omp parallel num_threads(nt)
  {
    const int t = omp_get_thread_num();
    const Int dst = C.rowptr[bounds[t]];
    std::copy(chunk_col[t].begin(), chunk_col[t].end(), C.colidx.begin() + dst);
    std::copy(chunk_val[t].begin(), chunk_val[t].end(), C.values.begin() + dst);
    // The copy is contiguous — the cheap direction of the trade the paper
    // makes (it replaces a second strided read of B).
    tc.per_thread[t].bytes_read +=
        chunk_col[t].size() * (sizeof(Int) + sizeof(double));
    tc.per_thread[t].bytes_written +=
        chunk_col[t].size() * (sizeof(Int) + sizeof(double));
  }
  tc.merge_into(wc);
  return C;
}

void spgemm_numeric_only(const CSRMatrix& A, const CSRMatrix& B, CSRMatrix& C,
                         WorkCounters* wc) {
  TRACE_SPAN("spgemm.numeric_only", "kernel", "rows",
             std::int64_t(A.nrows));
  require(A.ncols == B.nrows && C.nrows == A.nrows && C.ncols == B.ncols,
          "spgemm_numeric_only: shape mismatch");
  const int nt = num_threads();
  ThreadCounters tc(nt);
  std::vector<Int> bounds = partition_by_weight(A.rowptr, nt);
#pragma omp parallel num_threads(nt)
  {
    const int t = omp_get_thread_num();
    WorkCounters& cnt = tc.per_thread[t];
    // Dense gather positions for the current row: since the pattern is
    // known, marker maps column -> output slot with no insertion branch.
    std::vector<Int> marker(B.ncols, -1);
    for (Int i = bounds[t]; i < bounds[t + 1]; ++i) {
      for (Int k = C.rowptr[i]; k < C.rowptr[i + 1]; ++k) {
        marker[C.colidx[k]] = k;
        C.values[k] = 0.0;
      }
      for (Int ka = A.rowptr[i]; ka < A.rowptr[i + 1]; ++ka) {
        const Int j = A.colidx[ka];
        const double a = A.values[ka];
        for (Int kb = B.rowptr[j]; kb < B.rowptr[j + 1]; ++kb) {
          C.values[marker[B.colidx[kb]]] += a * B.values[kb];
          cnt.flops += 2;
        }
        cnt.bytes_read +=
            (B.rowptr[j + 1] - B.rowptr[j]) * (sizeof(Int) + sizeof(double));
      }
    }
  }
  tc.merge_into(wc);
}

CSRMatrix csr_add(const CSRMatrix& A, const CSRMatrix& B, WorkCounters* wc) {
  TRACE_SPAN("spgemm.csr_add", "kernel", "rows", std::int64_t(A.nrows));
  require(A.nrows == B.nrows && A.ncols == B.ncols, "csr_add: shape mismatch");
  CSRMatrix C(A.nrows, A.ncols);
  const int nt = num_threads();
  ThreadCounters tc(nt);
  std::vector<Int> bounds(nt + 1);
  for (int t = 0; t <= nt; ++t) bounds[t] = Int(Long(A.nrows) * t / nt);

  std::vector<std::vector<Int>> chunk_col(nt);
  std::vector<std::vector<double>> chunk_val(nt);
  std::vector<std::vector<Int>> chunk_rownnz(nt);
#pragma omp parallel num_threads(nt)
  {
    const int t = omp_get_thread_num();
    WorkCounters& cnt = tc.per_thread[t];
    const Int row_lo = bounds[t], row_hi = bounds[t + 1];
    auto& cols = chunk_col[t];
    auto& vals = chunk_val[t];
    auto& rownnz = chunk_rownnz[t];
    rownnz.resize(row_hi - row_lo);
    std::vector<Int> marker(A.ncols, -1);
    Int fill = 0;
    for (Int i = row_lo; i < row_hi; ++i) {
      const Int row_start = fill;
      for (const CSRMatrix* M : {&A, &B}) {
        for (Int k = M->rowptr[i]; k < M->rowptr[i + 1]; ++k) {
          const Int c = M->colidx[k];
          if (marker[c] < row_start) {
            marker[c] = fill;
            cols.push_back(c);
            vals.push_back(M->values[k]);
            ++fill;
          } else {
            vals[marker[c]] += M->values[k];
            ++cnt.flops;
          }
        }
      }
      rownnz[i - row_lo] = fill - row_start;
    }
  }
  for (int t = 0; t < nt; ++t)
    for (std::size_t r = 0; r < chunk_rownnz[t].size(); ++r)
      C.rowptr[bounds[t] + Int(r) + 1] = chunk_rownnz[t][r];
  exclusive_scan(C.rowptr);
  C.colidx.resize(C.rowptr[C.nrows]);
  C.values.resize(C.rowptr[C.nrows]);
#pragma omp parallel num_threads(nt)
  {
    const int t = omp_get_thread_num();
    const Int dst = C.rowptr[bounds[t]];
    std::copy(chunk_col[t].begin(), chunk_col[t].end(), C.colidx.begin() + dst);
    std::copy(chunk_val[t].begin(), chunk_val[t].end(), C.values.begin() + dst);
  }
  C.sort_rows();
  tc.merge_into(wc);
  return C;
}

CSRMatrix csr_block(const CSRMatrix& A, Int r0, Int r1, Int c0, Int c1) {
  require(0 <= r0 && r0 <= r1 && r1 <= A.nrows, "csr_block: bad row range");
  require(0 <= c0 && c0 <= c1 && c1 <= A.ncols, "csr_block: bad col range");
  CSRMatrix B(r1 - r0, c1 - c0);
  parallel_for(0, r1 - r0, [&](Int bi) {
    const Int i = r0 + bi;
    Int cnt = 0;
    for (Int k = A.rowptr[i]; k < A.rowptr[i + 1]; ++k)
      if (A.colidx[k] >= c0 && A.colidx[k] < c1) ++cnt;
    B.rowptr[bi + 1] = cnt;
  });
  exclusive_scan(B.rowptr);
  B.colidx.resize(B.rowptr[B.nrows]);
  B.values.resize(B.rowptr[B.nrows]);
  parallel_for(0, r1 - r0, [&](Int bi) {
    const Int i = r0 + bi;
    Int pos = B.rowptr[bi];
    for (Int k = A.rowptr[i]; k < A.rowptr[i + 1]; ++k)
      if (A.colidx[k] >= c0 && A.colidx[k] < c1) {
        B.colidx[pos] = A.colidx[k] - c0;
        B.values[pos] = A.values[k];
        ++pos;
      }
  });
  return B;
}

}  // namespace hpamg

// Smoothers: weighted Jacobi, hybrid Gauss-Seidel (baseline and the
// reordered/partitioned optimized variant of SC'15 §3.2, Fig 2), and
// lexicographic Gauss-Seidel with level scheduling (the comparison smoother
// from §5.2 based on point-to-point synchronization [38]).
//
// Hybrid GS = Gauss-Seidel within a thread's row range, Jacobi across
// threads: the output vector is copied to a temp buffer and columns owned
// by other threads are read from the temp copy to honor write-after-read
// dependencies.
//
// The optimized plan is three offsets per row into the level operator:
// with column-sorted rows (the CF permutation emits them), a row owned by
// the partition [is, ie) splits into contiguous pieces
// external-below | local-lower | diagonal | local-upper | external-above.
// Sweeping the pieces removes the per-column ownership branch of the
// baseline (Fig 2a) and the per-column diagonal test, and enables skipping
// the upper triangle when the initial guess is zero (common for
// coarse-level pre-smoothing), without a second copy of the operator.
#pragma once

#include "amg/multivector.hpp"
#include "matrix/csr.hpp"
#include "matrix/vector_ops.hpp"
#include "support/counters.hpp"

namespace hpamg {

/// One weighted-Jacobi sweep on rows [row_lo, row_hi): x <- x + w D^-1 r.
void jacobi_sweep(const CSRMatrix& A, const Vector& b, Vector& x,
                  Vector& temp, double weight = 2.0 / 3.0, Int row_lo = 0,
                  Int row_hi = -1, WorkCounters* wc = nullptr);

namespace block {
/// The one weighted-Jacobi implementation, on n x m row-major blocks (M as
/// in with_width, matrix/vector_ops.hpp). temp holds n * m values.
template <int M>
void jacobi_sweep(const CSRMatrix& A, const double* b, double* x, double* temp,
                  Int m, double weight, Int row_lo, Int row_hi,
                  WorkCounters* wc);
}  // namespace block

// ---------------------------------------------------------------------------
// Baseline hybrid GS (Fig 2a): per-column ownership branch, per-column
// diagonal test, operates on the unmodified matrix.
// ---------------------------------------------------------------------------

class HybridGSBaseline {
 public:
  /// `parts` = number of hybrid partitions (Jacobi boundaries). 0 uses the
  /// OpenMP thread count; setting it explicitly emulates the paper's
  /// 14-thread sockets on hosts with fewer cores (convergence behaviour
  /// depends on the partitioning, not on real parallelism).
  explicit HybridGSBaseline(const CSRMatrix& A, int parts = 0);

  /// One sweep over rows [row_lo, row_hi). If `cf` is non-null only rows
  /// with marker == want are smoothed (the baseline's per-row C/F branch).
  /// `forward` selects sweep direction within each thread's range.
  void sweep(const CSRMatrix& A, const Vector& b, Vector& x, Vector& temp,
             bool forward = true, const signed char* cf = nullptr,
             signed char want = 0, WorkCounters* wc = nullptr) const;

  const std::vector<Int>& thread_bounds() const { return bounds_; }
  std::uint64_t footprint_bytes() const {
    return bounds_.size() * sizeof(Int);
  }

 private:
  std::vector<Int> bounds_;  ///< row ownership per thread (nnz-balanced)
};

// ---------------------------------------------------------------------------
// Optimized hybrid GS (Fig 2b): per-row offsets into the level operator,
// diagonal inverted once.
// ---------------------------------------------------------------------------

class HybridGSOptimized {
 public:
  /// Builds the plan over A, whose rows must be column-sorted: for each row,
  /// the offsets of its first local column, its diagonal position and the
  /// end of its local columns w.r.t. the owning partition's row range, and
  /// 1/a_ii. `parts` as in HybridGSBaseline. The plan reads A's arrays in
  /// place: A must outlive it, and reassigning A (or growing its arrays)
  /// needs a new plan. Moving A keeps its buffers, so the plan stays valid.
  explicit HybridGSOptimized(const CSRMatrix& A, int parts = 0);
  /// A plan cannot view a temporary.
  HybridGSOptimized(CSRMatrix&&, int = 0) = delete;

  /// One sweep over rows [row_lo, row_hi) (e.g. the coarse or fine block of
  /// a CF-permuted operator — no per-row branch needed).
  /// zero_init: x is known to be all zeros in [row_lo, row_hi); skips the
  /// upper-triangle and external reads of not-yet-written entries.
  void sweep(const Vector& b, Vector& x, Vector& temp, Int row_lo, Int row_hi,
             bool forward = true, bool zero_init = false,
             WorkCounters* wc = nullptr) const;

  /// The one sweep implementation, on n x m row-major blocks (M as in
  /// with_width). Columns are independent (row i of column j only reads
  /// column j), so each column sees the scalar update order exactly; only
  /// the matrix entries are reused across the columns of a block.
  template <int M>
  void sweep_block(const double* b, double* x, double* temp, Int m,
                   Int row_lo, Int row_hi, bool forward, bool zero_init,
                   WorkCounters* wc) const;

  /// True when the plan reads A's arrays (same buffers, same size).
  bool views(const CSRMatrix& A) const {
    return n_ == A.nrows && rowptr_ == A.rowptr.data() &&
           colidx_ == A.colidx.data() && values_ == A.values.data();
  }
  const std::vector<Int>& thread_bounds() const { return bounds_; }
  std::uint64_t footprint_bytes() const {
    return (local_begin_.size() + diag_.size() + local_end_.size() +
            bounds_.size()) * sizeof(Int) +
           inv_diag_.size() * sizeof(double);
  }

 private:
  Int n_ = 0;
  const Int* rowptr_ = nullptr;  ///< the viewed operator's arrays
  const Int* colidx_ = nullptr;
  const double* values_ = nullptr;
  std::vector<Int> local_begin_;  ///< first column >= the partition start
  std::vector<Int> diag_;         ///< first column >= the row itself
  std::vector<Int> local_end_;    ///< first column >= the partition end
  std::vector<double> inv_diag_;
  std::vector<Int> bounds_;
};

// ---------------------------------------------------------------------------
// Lexicographic GS with level scheduling.
// ---------------------------------------------------------------------------

class LexGS {
 public:
  /// Builds the wavefront schedule from the lower-triangular dependency
  /// graph (setup cost the paper charges against its faster convergence).
  explicit LexGS(const CSRMatrix& A);

  void sweep(const CSRMatrix& A, const Vector& b, Vector& x,
             bool forward = true, WorkCounters* wc = nullptr) const;

  /// Fused GS + SpMV (the [39]-style fusion the paper evaluates in §5.2):
  /// maintains the residual incrementally — per row, delta = r_i / a_ii
  /// updates x_i and the scatter r -= A(:, i) * delta keeps r = b - A x
  /// exact, so the post-sweep residual SpMV disappears. Requires symmetric
  /// A (column i == row i). r must hold b - A x on entry.
  void sweep_fused_residual(const CSRMatrix& A, Vector& x, Vector& r,
                            WorkCounters* wc = nullptr) const;

  Int num_levels() const { return Int(level_ptr_.size()) - 1; }
  std::uint64_t footprint_bytes() const {
    return (level_ptr_.size() + level_rows_.size()) * sizeof(Int) +
           inv_diag_.size() * sizeof(double);
  }

 private:
  std::vector<Int> level_ptr_;   ///< level boundaries into level_rows_
  std::vector<Int> level_rows_;  ///< rows grouped by wavefront level
  std::vector<double> inv_diag_;
};

// ---------------------------------------------------------------------------
// Multi-color GS: the smoother class AmgX exposes as MULTICOLOR_GS
// (§2, §5.2). Rows are greedily colored so no two adjacent rows share a
// color; all rows of one color update in parallel with full Gauss-Seidel
// coupling to the other colors. Converges like true GS (often better than
// hybrid GS at high partition counts — the paper measures 1.4x fewer
// iterations for AmgX's variant) but touches the matrix once per color,
// costing more memory passes per sweep (AmgX: 2.8x slower solve).
// ---------------------------------------------------------------------------

class MultiColorGS {
 public:
  explicit MultiColorGS(const CSRMatrix& A);

  /// One full sweep (all colors, ascending); backward = descending colors.
  void sweep(const CSRMatrix& A, const Vector& b, Vector& x,
             bool forward = true, WorkCounters* wc = nullptr) const;

  Int num_colors() const { return Int(color_ptr_.size()) - 1; }
  std::uint64_t footprint_bytes() const {
    return (color_ptr_.size() + color_rows_.size()) * sizeof(Int) +
           inv_diag_.size() * sizeof(double);
  }

 private:
  std::vector<Int> color_ptr_;   ///< color boundaries into color_rows_
  std::vector<Int> color_rows_;  ///< rows grouped by color
  std::vector<double> inv_diag_;
};

}  // namespace hpamg

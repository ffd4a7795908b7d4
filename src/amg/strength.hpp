// Strength-of-connection matrix (classical AMG).
//
// Point j strongly influences point i iff
//     -a_ij >= alpha * max_{k != i} (-a_ik)
// (signs flipped when the diagonal is negative). Rows whose row sum is
// large relative to the diagonal (|sum_j a_ij| > max_row_sum * |a_ii|) are
// treated as having no strong connections, matching HYPRE's max_row_sum
// parameter (Table 3 uses 0.8).
//
// The optimized variant assembles the final CSR arrays with a parallel
// prefix sum over per-row counts (SC'15 §3.3 reports 6.1x on this step);
// the baseline performs the classic sequential append.
#pragma once

#include "matrix/csr.hpp"
#include "support/counters.hpp"

namespace hpamg {

struct StrengthOptions {
  double threshold = 0.25;   ///< alpha (Table 3: 0.25 or 0.6)
  double max_row_sum = 0.8;  ///< rows above this get no strong connections
};

/// Pattern-only CSR (values all 1.0), diagonal excluded. S(i, j) present
/// iff j strongly influences i.
CSRMatrix strength_matrix(const CSRMatrix& A, const StrengthOptions& opt,
                          WorkCounters* wc = nullptr);

/// Sequential-assembly baseline of the same computation.
CSRMatrix strength_matrix_serial(const CSRMatrix& A,
                                 const StrengthOptions& opt,
                                 WorkCounters* wc = nullptr);

/// The one strength kernel, over a row block split into `diag` (square;
/// row i's diagonal at column i) and `offd` (further columns, or null):
/// each row's test visits row i of diag and then of offd in place. S_diag
/// and S_offd (null iff offd is) get the strong entries in the blocks'
/// column spaces. `parallel_assembly` selects the prefix-sum assembly
/// (§3.3) or the sequential append. The two functions above are the
/// instances with no offd; dist_strength passes a rank's diag/offd blocks.
void strength_blocks(const CSRMatrix& diag, const CSRMatrix* offd,
                     const StrengthOptions& opt, bool parallel_assembly,
                     CSRMatrix& S_diag, CSRMatrix* S_offd,
                     WorkCounters* wc = nullptr);

}  // namespace hpamg

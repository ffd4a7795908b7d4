// Sparse matrix-vector products and the interpolation/restriction kernels.
//
// The optimized solve phase (SC'15 §3.2, §3.3) changes three things about
// these kernels relative to baseline HYPRE:
//  1. restriction reuses R = P^T kept from setup instead of transposing P
//     on every call (3.7x average SpMV-phase speedup in Fig 5);
//  2. interpolation/restriction skip the identity block of the CF-permuted
//     P = [I; P_F], touching only the (n_l - n_{l+1}) x n_{l+1} block;
//  3. the residual SpMV is fused with the inner product used for the
//     residual norm, saving one write+read pass over the residual vector.
// Aliasing contract (enforced under HPAMG_CHECK via
// check::distinct_buffers): every kernel here writes its output row-by-row
// while reading the operand vector at arbitrary column indices, so the
// output must never alias the multiplied vector (y != x, r != x, x != e,
// rc != r). The residual kernels MAY take r aliasing b: row i reads b[i]
// before writing r[i] and rows are disjoint, so in-place b <- b - A x is
// well-defined and allowed.
#pragma once

#include "amg/multivector.hpp"
#include "matrix/csr.hpp"
#include "matrix/vector_ops.hpp"
#include "support/counters.hpp"

namespace hpamg {

/// y = A * x
void spmv(const CSRMatrix& A, const Vector& x, Vector& y,
          WorkCounters* wc = nullptr);

/// y = A^T * x computed from A directly (no transpose materialized) via a
/// serial scatter — deliberately mirrors the baseline cost of transposing
/// on the fly. Prefer keeping R = P^T (see hierarchy.hpp).
void spmv_transpose(const CSRMatrix& A, const Vector& x, Vector& y,
                    WorkCounters* wc = nullptr);

/// r = b - A * x
void spmv_residual(const CSRMatrix& A, const Vector& x, const Vector& b,
                   Vector& r, WorkCounters* wc = nullptr);

/// r = b - A * x, returning <r, r> computed in the same pass (§3.3 fusion).
double spmv_residual_norm2sq_fused(const CSRMatrix& A, const Vector& x,
                                   const Vector& b, Vector& r,
                                   WorkCounters* wc = nullptr);

/// x += P * e for the CF-permuted P = [I; P_F]: x[i] += e[i] for coarse
/// rows, x[nc + i] += (Pf * e)[i] for fine rows. Touches only Pf.
void interp_add_identity_block(const CSRMatrix& Pf, const Vector& e,
                               Vector& x, Int nc, WorkCounters* wc = nullptr);

/// rc = R * r for R = [I | PfT]: rc[j] = r[j] + (PfT * r[nc:])[j].
void restrict_identity_block(const CSRMatrix& PfT, const Vector& r,
                             Vector& rc, Int nc, WorkCounters* wc = nullptr);

// ------------------------------------------------------------------------
// The one implementation of each kernel above, on n x m row-major blocks
// (x[i * m + j]; a MultiVector's data, or a Vector as m = 1). M = 1 is the
// single-column instance the Vector entry points forward to; M = 0 takes
// any m, in column blocks of kMaxRhsBlock (see with_width in
// matrix/vector_ops.hpp). The V-cycle and the block Krylov loops call these
// directly.
// ------------------------------------------------------------------------

namespace block {

template <int M>
void spmv(const CSRMatrix& A, const double* x, double* y, Int m,
          WorkCounters* wc);

template <int M>
void spmv_residual(const CSRMatrix& A, const double* x, const double* b,
                   double* r, Int m, WorkCounters* wc);

/// Residual plus per-column <r_j, r_j> into norms2sq[0..m), with the
/// thread partials added in thread-index order (deterministic).
template <int M>
void spmv_residual_norms(const CSRMatrix& A, const double* x, const double* b,
                         double* r, Int m, double* norms2sq,
                         WorkCounters* wc);

template <int M>
void interp_add_identity(const CSRMatrix& Pf, const double* e, double* x,
                         Int nc, Int m, WorkCounters* wc);

template <int M>
void restrict_identity(const CSRMatrix& PfT, const double* r, double* rc,
                       Int nc, Int m, WorkCounters* wc);

}  // namespace block

}  // namespace hpamg

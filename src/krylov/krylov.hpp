// Krylov solvers: CG / PCG, GMRES(m), and Flexible GMRES (Saad 1993).
//
// The paper's multi-node configuration (Table 4) wraps AMG as the
// preconditioner of Flexible GMRES; FGMRES tolerates the slightly varying
// preconditioner that a parallel AMG V-cycle is. CG is provided for SPD
// systems and used by the examples.
#pragma once

#include <functional>

#include "amg/multivector.hpp"
#include "amg/solver.hpp"
#include "matrix/csr.hpp"
#include "matrix/vector_ops.hpp"
#include "support/counters.hpp"
#include "support/deadline.hpp"
#include "support/error.hpp"

namespace hpamg {

/// Preconditioner apply: z = M^{-1} r (must accept z == r storage aliasing
/// being distinct; z is overwritten).
using Preconditioner = std::function<void(const Vector& r, Vector& z)>;

/// A Krylov solve reports what the loop recorded: status is kOk,
/// kRecovered ((F)GMRES converged after discarding a poisoned basis or
/// restoring a restart iterate, with `recoveries` and `events`),
/// kMaxIterations, kDeadlineExceeded, kNonFinite (NaN/Inf residual or
/// basis vector, recovery exhausted) or kStagnated (exact breakdown).
/// (F)GMRES also fills solve_times (SpMV / BLAS1); history is empty when
/// x converged on entry.
using KrylovResult = SolveResult;

struct KrylovOptions {
  double rtol = 1e-7;
  Int max_iterations = 1000;
  Int restart = 50;  ///< GMRES/FGMRES restart length
  /// Time budget, checked once per iteration (per inner Arnoldi step for
  /// GMRES/FGMRES): an expired deadline stops the solve with
  /// Status::kDeadlineExceeded and the partial iterate/history. Defaults
  /// to never expiring.
  Deadline deadline;
};

/// (Preconditioned) conjugate gradient. Pass a null precond for plain CG.
[[nodiscard]] KrylovResult pcg(const CSRMatrix& A, const Vector& b, Vector& x,
                 const KrylovOptions& opt = {},
                 const Preconditioner& precond = nullptr);

/// Right-preconditioned restarted GMRES(m): the same loop as fgmres, with
/// x += M^{-1} (V y) instead of a stored preconditioned basis.
[[nodiscard]] KrylovResult gmres(const CSRMatrix& A, const Vector& b, Vector& x,
                   const KrylovOptions& opt = {},
                   const Preconditioner& precond = nullptr);

/// Flexible GMRES(m): the preconditioner may change between iterations
/// (stores the preconditioned basis Z).
[[nodiscard]] KrylovResult fgmres(const CSRMatrix& A, const Vector& b, Vector& x,
                    const KrylovOptions& opt = {},
                    const Preconditioner& precond = nullptr);

// ---------------------------------------------------------------------------
// Block (multi-RHS) Krylov: m simultaneous per-column recurrences sharing
// the batched SpMV and one batched preconditioner apply per iteration. The
// columns stay mathematically independent (no shared search space), so each
// converges like the scalar method on that column — the win is bandwidth
// amortization, matching the AMG multi-RHS path it composes with. pcg and
// fgmres above are the compiled m = 1 instances of these loops.
// ---------------------------------------------------------------------------

/// Batched preconditioner apply: Z = M^{-1} R column-wise (Z overwritten).
using MultiPreconditioner =
    std::function<void(const MultiVector& R, MultiVector& Z)>;

/// Iterations are shared across columns; status, recoveries and history
/// follow the worst column (a poisoned column discards the batch's basis
/// for that restart cycle; kStagnated means every unconverged column broke
/// down).
using BlockKrylovResult = MultiSolveResult;

/// Block PCG: per-column alpha/beta/rho recurrences; converged or
/// broken-down columns freeze (their iterate stops changing) while the
/// rest keep sharing the batched kernels.
[[nodiscard]] BlockKrylovResult block_pcg(
    const CSRMatrix& A, const MultiVector& B, MultiVector& X,
    const KrylovOptions& opt = {},
    const MultiPreconditioner& precond = nullptr);

/// Block flexible GMRES(m): per-column Hessenberg least-squares problems
/// over a shared batched Arnoldi sweep; each column's update uses its own
/// inner-iteration count, so early-converging columns are not dragged
/// through extra corrections.
[[nodiscard]] BlockKrylovResult block_fgmres(
    const CSRMatrix& A, const MultiVector& B, MultiVector& X,
    const KrylovOptions& opt = {},
    const MultiPreconditioner& precond = nullptr);

}  // namespace hpamg

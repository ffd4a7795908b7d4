// Distributed Flexible GMRES with an AMG V-cycle preconditioner — the
// paper's multi-node solver configuration (Table 4) — and distributed
// standalone AMG. Both are instances of the shared solve loops
// (krylov/gmres_common.hpp, amg/solve_loop.hpp): only the inner products,
// the operator apply and the preconditioner differ from the serial solvers.
#pragma once

#include "amg/solver.hpp"
#include "dist/dist_amg.hpp"
#include "krylov/krylov.hpp"

namespace hpamg {

/// A distributed solve reports what a serial one does. Identical on every
/// rank except `telemetry` and `solve_times` (this rank's CPU time): every
/// classification/recovery decision is taken from globally reduced
/// residuals, so the ranks never disagree. solve_work stays zero.
using DistSolveResult = SolveResult;

/// Collective FGMRES(m) on the distributed system, preconditioned by one
/// V-cycle of `h` per iteration. x holds the local solution slice.
/// Convergence is judged on the true residual. A non-finite Arnoldi
/// quantity discards the in-flight Krylov basis and restarts from the
/// current (still finite) iterate; a non-finite restart residual restores
/// the best snapshot — each counts against kMaxRecoveries, after which the
/// solve stops with kNonFinite.
[[nodiscard]] DistSolveResult dist_fgmres(simmpi::Comm& comm, const DistMatrix& A,
                            DistHierarchy& h, const Vector& b, Vector& x,
                            double rtol, Int max_iterations, Int restart = 50);

/// Collective standalone AMG iteration (V-cycles to tolerance), with the
/// same initial-residual check and scrub-and-restart recovery as
/// AMGSolver::solve (restore the last improving iterate on a non-finite or
/// diverging residual).
[[nodiscard]] DistSolveResult dist_amg_solve(simmpi::Comm& comm, const DistMatrix& A,
                               DistHierarchy& h, const Vector& b, Vector& x,
                               double rtol, Int max_iterations);

}  // namespace hpamg

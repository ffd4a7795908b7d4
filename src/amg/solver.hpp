// AMGSolver — the user-facing front end.
//
// Wraps setup (build_hierarchy) and solve: either standalone AMG iteration
// (V-cycles to tolerance, the paper's single-node configuration, Table 3)
// or as a preconditioner apply for the Krylov solvers in src/krylov
// (the multi-node configuration, Table 4, uses FGMRES + AMG).
#pragma once

#include <cmath>
#include <memory>

#include "amg/cycle.hpp"
#include "amg/hierarchy.hpp"
#include "support/deadline.hpp"
#include "support/error.hpp"
#include "support/report.hpp"

namespace hpamg {

struct SolveResult {
  Int iterations = 0;
  double final_relres = 0.0;
  bool converged = false;
  /// Why the solve stopped (support/error.hpp taxonomy). `converged` stays
  /// as the legacy boolean view: converged == status_ok(status).
  Status status = Status::kMaxIterations;
  /// First iteration with a NaN/Inf residual; -1 if none occurred.
  Int nonfinite_iteration = -1;
  /// Times the solver scrubbed the iterate and restarted from the last
  /// good snapshot (non-finite or diverging residual).
  Int recoveries = 0;
  /// Human-readable incident log ("recovered at iteration 12 ...") — also
  /// emitted in the report's `status` block and the trace stream.
  std::vector<std::string> events;
  std::vector<double> history;  ///< relative residual after each iteration
  /// Per-iteration telemetry (amg/telemetry.hpp) — recorded only when the
  /// metrics registry is enabled (--json bench runs); empty otherwise.
  std::vector<IterationReportEntry> telemetry;
  PhaseTimes solve_times;       ///< GS / SpMV / BLAS1 / Solve_etc
  WorkCounters solve_work;

  /// Geometric-mean residual contraction per cycle ("convergence factor",
  /// the paper's §2 quality metric); 0 when fewer than 2 samples.
  double convergence_factor() const {
    if (history.size() < 2 || history.front() <= 0.0) return 0.0;
    return std::pow(history.back() / history.front(),
                    1.0 / double(history.size() - 1));
  }
};

/// Result of a batched (multi-RHS) standalone AMG solve. All columns share
/// the V-cycles: a column that reaches the tolerance early keeps riding the
/// remaining cycles (its residual keeps shrinking), so after k cycles every
/// column's iterate is bitwise-equal to a scalar solve run for k cycles.
struct MultiSolveResult {
  Int iterations = 0;   ///< cycles run (shared across columns)
  bool converged = false;  ///< every column reached rtol
  Status status = Status::kMaxIterations;
  /// First iteration with a NaN/Inf residual in any column; -1 if none.
  Int nonfinite_iteration = -1;
  /// Scrub-and-restart recoveries (judged on the worst column).
  Int recoveries = 0;
  std::vector<double> final_relres;  ///< per column
  /// Per column: first cycle at which that column's relres crossed rtol
  /// (0 = already converged on entry; -1 = never converged).
  std::vector<Int> col_iterations;
  /// Incident log (recoveries, deadline expiry with partial-result note),
  /// mirroring SolveResult::events.
  std::vector<std::string> events;
  std::vector<double> history;  ///< worst column's relres per iteration
  PhaseTimes solve_times;
  WorkCounters solve_work;

  /// Takes a shared loop's worst-column outcome (all of `sr` but its
  /// final_relres and telemetry); the loop fills final_relres and
  /// col_iterations here directly.
  void take(SolveResult&& sr);
};

// The two halves of a SolveReport, shared by AMGSolver::report and
// DistHierarchy::report.

/// The setup side: hierarchy shape, per-level stats with their memory
/// (`mem`, indexed like `stats`), setup phases/work and incidents, and the
/// roofline attribution accumulated so far.
SolveReport setup_report(const char* solver, Variant variant,
                         double operator_complexity, double grid_complexity,
                         const std::vector<LevelStats>& stats,
                         const std::vector<LevelMemory>& mem,
                         const PhaseTimes& setup_times,
                         const WorkCounters& setup_work,
                         const std::vector<std::string>& events);

/// The solve side (phases, work, convergence, status, per-iteration
/// telemetry) from `sr`; setup incidents already in rep.status.events stay
/// first.
void fill_solve_report(SolveReport& rep, const SolveResult& sr);

class AMGSolver {
 public:
  /// Validates A (square, finite values, nonzero diagonals — throws
  /// SolverError(kInvalidInput) otherwise) and runs the setup phase.
  AMGSolver(const CSRMatrix& A, const AMGOptions& opts);

  /// Standalone AMG: repeat V-cycles until ||b - Ax|| / ||b|| < rtol.
  /// A non-finite or diverging residual triggers recovery — the iterate is
  /// restored from the last improving snapshot and iteration resumes, up
  /// to kMaxRecoveries times — so transient corruption (e.g. an injected
  /// SDC bit-flip) costs iterations instead of the solve. The terminal
  /// classification lands in SolveResult::status; persistent failure
  /// reports kNonFinite / kDiverged with the incident iteration.
  ///
  /// `deadline` (default: never expires) is checked once per V-cycle: an
  /// expired budget stops the solve with Status::kDeadlineExceeded and a
  /// partial result — x holds the latest iterate, history/iterations cover
  /// the cycles that ran (the service layer's latency contract).
  [[nodiscard]] SolveResult solve(const Vector& b, Vector& x, double rtol = 1e-7,
                    Int max_iterations = 500,
                    const Deadline& deadline = Deadline::never());

  /// Recovery budget per solve (support/error.hpp).
  static constexpr Int kMaxRecoveries = hpamg::kMaxRecoveries;

  /// Batched standalone AMG: V-cycles on all columns of B simultaneously
  /// until every column satisfies ||b_j - A x_j|| / ||b_j|| < rtol. One
  /// pass over the hierarchy per cycle serves all m columns (the multi-RHS
  /// amortization this solver exists for). The same loop as solve(), whose
  /// m = 1 instance that is: recovery, deadline, telemetry and status all
  /// follow the worst column.
  [[nodiscard]] MultiSolveResult solve_multi(
      const MultiVector& B, MultiVector& X, double rtol = 1e-7,
      Int max_iterations = 500, const Deadline& deadline = Deadline::never());

  /// One V-cycle as a preconditioner apply: x = B(b), zero initial guess.
  /// b and x are in the original matrix ordering.
  void precondition(const Vector& b, Vector& x, PhaseTimes* pt = nullptr,
                    WorkCounters* wc = nullptr);

  /// Batched preconditioner apply: X = B(B_rhs) per column, zero guess.
  void precondition_multi(const MultiVector& b, MultiVector& x,
                          PhaseTimes* pt = nullptr,
                          WorkCounters* wc = nullptr);

  /// Numeric setup refresh for time-dependent problems: A_new must have
  /// the SAME sparsity pattern as the setup matrix, only different values.
  /// The CF splittings and interpolation operators are frozen (lagged, the
  /// standard reuse strategy); the level operators are recomputed through
  /// the Galerkin products and the smoother plans rebuilt — skipping
  /// strength, coarsening and interpolation construction entirely (the
  /// paper's "setup will be called only occasionally" scenario, §5.2).
  /// Runs setup's own per-level and coarsest-level steps
  /// (refresh_hierarchy). Throws if the pattern differs.
  void refresh_values(const CSRMatrix& A_new);

  /// Machine-readable report of the setup phase and, when `sr` is given,
  /// the solve: per-level stats, phase breakdowns, work counters, and
  /// convergence history (see support/report.hpp for the JSON schema).
  SolveReport report(const SolveResult* sr = nullptr) const;

  Hierarchy& hierarchy() { return h_; }
  const Hierarchy& hierarchy() const { return h_; }
  const PhaseTimes& setup_times() const { return h_.setup_times; }
  double operator_complexity() const { return h_.operator_complexity(); }
  Int num_rows() const { return h_.levels.empty() ? 0 : h_.levels[0].n; }

 private:
  Hierarchy h_;
};

}  // namespace hpamg

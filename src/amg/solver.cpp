#include "amg/solver.hpp"

#include <cmath>

#include <string>

#include "amg/spmv.hpp"
#include "amg/telemetry.hpp"
#include "matrix/transpose.hpp"
#include "perfmodel/attrib.hpp"
#include "spgemm/rap.hpp"
#include "support/check.hpp"
#include "support/fault.hpp"
#include "support/live.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/trace.hpp"

namespace hpamg {

namespace {

/// Validation happens here (not in the member-init list) so the ctor
/// rejects bad input before any setup work runs.
const CSRMatrix& validated(const CSRMatrix& A) {
  A.validate_system_matrix("AMGSolver");
  return A;
}

/// The one standalone-AMG loop, on n x m row-major blocks (M as in
/// with_width): solve() is its m = 1 instance. Fills `res` with the worst
/// column's history/status, and the per-column relres and first converged
/// cycle.
template <int M>
void solve_loop(Hierarchy& h, const double* b, double* x, Int m, double rtol,
                Int max_iterations, const Deadline& deadline, SolveResult& res,
                std::vector<double>& relres, std::vector<Int>& col_iterations) {
  TRACE_SPAN(M == 1 ? "amg.solve" : "amg.solve_multi", "phase", "rhs",
             std::int64_t(m));
  live::ActivityScope live_scope;
  Level& L0 = h.levels[0];
  // Solver-entry invariants: the hierarchy may have been mutated since
  // setup (refresh_values, external tampering in tests); a check build
  // re-audits it before trusting the level operators.
  HPAMG_CHECK_INVARIANT(check::Depth::kCheap,
                        check::csr_well_formed(L0.A, "AMGSolver::solve A0"));
  HPAMG_CHECK_INVARIANT(check::Depth::kFull, check_hierarchy(h));
  const Int n = L0.n, mm = M ? M : m;
  const std::size_t len = std::size_t(n) * std::size_t(mm);
  const bool optimized = h.opts.variant == Variant::kOptimized;
  const bool permuted = optimized && !L0.perm.perm.empty();
  PhaseTimes& pt = res.solve_times;
  WorkCounters* wc = &res.solve_work;

  // Keep working vectors permuted across the whole solve; gather once.
  Vector bw(len), xw(len), r(len);
  {
    Timer t;
    if (permuted) {
      block::gather_rows<M>(L0.perm.perm, b, bw.data(), m);
      block::gather_rows<M>(L0.perm.perm, x, xw.data(), m);
    } else {
      copy_n(b, bw.data(), len);
      copy_n(x, xw.data(), len);
    }
    pt.add("Solve_etc", t.seconds());
  }

  std::vector<double> normb(std::size_t(mm), 0.0), norms(std::size_t(mm), 0.0);
  {
    Timer t;
    block::dot<M>(bw.data(), bw.data(), n, m, normb.data(), wc);
    pt.add("BLAS1", t.seconds());
  }
  for (double& nb : normb) nb = nb > 0.0 ? std::sqrt(nb) : 1.0;

  relres.assign(std::size_t(mm), 0.0);
  col_iterations.assign(std::size_t(mm), -1);
  // Residual of every column; returns the worst relative residual.
  auto residual = [&](Int it) {
    Timer t;
    if (optimized) {
      // Fused residual + norm (§3.3): one pass instead of SpMV then dot.
      block::spmv_residual_norms<M>(L0.A, xw.data(), bw.data(), r.data(), m,
                                    norms.data(), wc);
      pt.add("SpMV", t.seconds());
    } else {
      block::spmv_residual<M>(L0.A, xw.data(), bw.data(), r.data(), m, wc);
      pt.add("SpMV", t.seconds());
      Timer t2;
      block::dot<M>(r.data(), r.data(), n, m, norms.data(), wc);
      pt.add("BLAS1", t2.seconds());
    }
    for (Int j = 0; j < mm; ++j) {
      relres[std::size_t(j)] =
          std::sqrt(norms[std::size_t(j)]) / normb[std::size_t(j)];
      if (relres[std::size_t(j)] < rtol && col_iterations[std::size_t(j)] < 0)
        col_iterations[std::size_t(j)] = it;
    }
    return worst_column(relres);
  };

  // Initial residual (x may be a nonzero initial guess).
  double worst = residual(0);
  if (worst < rtol) {
    res.converged = true;
    res.status = Status::kOk;
    res.final_relres = worst;
    return;
  }

  // Last good iterate for scrub-and-restart recovery: refreshed on every
  // improving iteration (a plain copy — cheap next to a V-cycle and not
  // counted as solve work). `x_best_relres` mirrors the snapshot.
  ConvergenceMonitor monitor;
  Vector x_best(xw);
  double x_best_relres = worst;
  Int x_best_iteration = 0;

  // Per-iteration telemetry rides along only when the metrics registry is
  // on (--json bench runs); the hook is loaned to the hierarchy so the
  // cycle can deposit per-level times without a signature change. With
  // m > 1 the pre-smooth residual is the worst column over the smallest
  // ||b_j||, an upper bound.
  const bool telemetry_on = metrics::enabled();
  CycleTelemetryHook tel;
  tel.measure_smoother = telemetry_on;
  TelemetryLoan loan(h, telemetry_on ? &tel : nullptr);
  const double tel_normb = *std::min_element(normb.begin(), normb.end());
  double prev_relres = worst;
  Timer t_iter;

  for (Int it = 1; it <= max_iterations; ++it) {
    // Deadline check once per V-cycle, at the same cadence as the
    // heartbeat beat site below: an expired budget unwinds cleanly with
    // the partial history/iterate instead of running to max_iterations.
    if (deadline.expired()) {
      res.status = Status::kDeadlineExceeded;
      res.events.push_back(
          "deadline expired before iteration " + std::to_string(it) +
          " (partial result: relres " + std::to_string(worst) + " after " +
          std::to_string(res.iterations) + " iterations)");
      break;
    }
    if (fault::enabled())
      fault::maybe_poison("amg.solve.poison", xw.data(), xw.size());
    if (telemetry_on) {
      tel.begin_cycle(h.levels.size());
      t_iter.reset();
    }
    vcycle_block<M>(h, bw.data(), xw.data(), m, /*work_order=*/true, &pt, wc);
    worst = residual(it);
    res.history.push_back(worst);
    res.iterations = it;
    live::beat_iteration(it, worst);
    if (telemetry_on) {
      res.telemetry.push_back(make_iteration_entry(
          it, worst, prev_relres, t_iter.seconds(), tel_normb, &tel));
    }
    prev_relres = worst;
    HPAMG_LOG_DEBUG("amg it %d relres %.3e", int(it), worst);
    if (worst < rtol) {
      res.converged = true;
      res.status = res.recoveries > 0 ? Status::kRecovered : Status::kOk;
      break;
    }
    const Status verdict = monitor.observe(it, worst);
    if (verdict == Status::kOk) {
      if (worst < x_best_relres) {
        copy_n(xw.data(), x_best.data(), len);
        x_best_relres = worst;
        x_best_iteration = it;
      }
      continue;
    }
    // Non-finite or diverging residual: scrub the iterate (restore the
    // last good snapshot) and resume, up to the recovery budget. Transient
    // corruption is absorbed; a persistent failure exhausts the budget and
    // surfaces as the terminal status.
    if (verdict == Status::kNonFinite && res.nonfinite_iteration < 0)
      res.nonfinite_iteration = it;
    if (res.recoveries < AMGSolver::kMaxRecoveries) {
      ++res.recoveries;
      copy_n(x_best.data(), xw.data(), len);
      worst = x_best_relres;
      monitor.note_recovery();
      std::string ev = "recovered at iteration " + std::to_string(it) + " (" +
                       status_name(verdict) + "): restored iterate from " +
                       "iteration " + std::to_string(x_best_iteration);
      HPAMG_LOG_WARN("amg %s", ev.c_str());
      trace::instant("amg.recovery", "fault");
      res.events.push_back(std::move(ev));
      continue;
    }
    res.status = verdict;
    res.events.push_back(std::string("recovery budget exhausted; stopped (") +
                         status_name(verdict) + ") at iteration " +
                         std::to_string(it));
    break;
  }
  if (!res.converged && res.status == Status::kMaxIterations &&
      monitor.stagnated())
    res.status = Status::kStagnated;
  res.final_relres = worst;

  Timer t;
  if (permuted)
    block::scatter_rows<M>(L0.perm.perm, xw.data(), x, m);
  else
    copy_n(xw.data(), x, len);
  pt.add("Solve_etc", t.seconds());
}

}  // namespace

AMGSolver::AMGSolver(const CSRMatrix& A, const AMGOptions& opts)
    : h_(build_hierarchy(validated(A), opts)) {}

SolveResult AMGSolver::solve(const Vector& b, Vector& x, double rtol,
                             Int max_iterations, const Deadline& deadline) {
  require(Int(b.size()) == h_.levels[0].n && Int(x.size()) == h_.levels[0].n,
          "AMGSolver::solve: vector size mismatch");
  SolveResult res;
  std::vector<double> relres;
  std::vector<Int> col_iterations;
  solve_loop<1>(h_, b.data(), x.data(), 1, rtol, max_iterations, deadline, res,
                relres, col_iterations);
  return res;
}

MultiSolveResult AMGSolver::solve_multi(const MultiVector& B, MultiVector& X,
                                        double rtol, Int max_iterations,
                                        const Deadline& deadline) {
  const Int n = h_.levels[0].n;
  require(B.n == n && X.n == n && X.m == B.m,
          "AMGSolver::solve_multi: shape mismatch");
  require(B.m > 0, "AMGSolver::solve_multi: no right-hand sides");
  SolveResult sr;
  MultiSolveResult res;
  with_width(B.m, [&]<int M>() {
    solve_loop<M>(h_, B.data.data(), X.data.data(), B.m, rtol, max_iterations,
                  deadline, sr, res.final_relres, res.col_iterations);
  });
  res.iterations = sr.iterations;
  res.converged = sr.converged;
  res.status = sr.status;
  res.nonfinite_iteration = sr.nonfinite_iteration;
  res.recoveries = sr.recoveries;
  res.events = std::move(sr.events);
  res.solve_times = std::move(sr.solve_times);
  res.solve_work = sr.solve_work;
  return res;
}

SolveReport AMGSolver::report(const SolveResult* sr) const {
  SolveReport rep;
  rep.solver = "amg";
  rep.variant =
      h_.opts.variant == Variant::kOptimized ? "optimized" : "baseline";
  rep.num_levels = h_.num_levels();
  rep.operator_complexity = h_.operator_complexity();
  rep.grid_complexity = h_.grid_complexity();
  rep.levels.reserve(h_.stats.size());
  const std::vector<LevelMemory> mem = h_.memory_by_level();
  for (std::size_t l = 0; l < h_.stats.size(); ++l) {
    const LevelStats& s = h_.stats[l];
    LevelReportEntry e;
    e.level = Int(l);
    e.rows = Long(s.rows);
    e.nnz = s.nnz;
    e.nnz_per_row = s.rows > 0 ? double(s.nnz) / double(s.rows) : 0.0;
    e.coarse = Long(s.coarse);
    e.interp_nnz = s.interp_nnz;
    if (l < mem.size()) {
      e.operator_bytes = mem[l].operator_bytes;
      e.interp_bytes = mem[l].interp_bytes;
      e.smoother_bytes = mem[l].smoother_bytes;
      e.workspace_bytes = mem[l].workspace_bytes;
    }
    rep.levels.push_back(e);
  }
  rep.has_memory = true;
  for (const LevelMemory& m : mem) {
    rep.memory.setup_bytes +=
        m.operator_bytes + m.interp_bytes + m.smoother_bytes;
    rep.memory.solve_bytes += m.workspace_bytes;
  }
  rep.memory.solve_bytes += rep.memory.setup_bytes;
  rep.memory.peak_rss_bytes = metrics::peak_rss_bytes();
  rep.setup_phases = h_.setup_times;
  rep.setup_work = h_.setup_work;
  rep.setup_seconds = h_.setup_times.total();
  rep.status.events = h_.events;  // setup incidents first, then solve's
  // Roofline attribution accumulated by the cycle's attrib scopes; empty
  // (and omitted from the JSON) unless metrics were on during the solve.
  rep.roofline = attrib::snapshot();
  attrib::publish_metrics(rep.roofline);
  if (sr) {
    rep.iterations = sr->telemetry;
    rep.solve_phases = sr->solve_times;
    rep.solve_work = sr->solve_work;
    rep.solve_seconds = sr->solve_times.total();
    rep.convergence.iterations = sr->iterations;
    rep.convergence.converged = sr->converged;
    rep.convergence.final_relres = sr->final_relres;
    rep.convergence.convergence_factor = sr->convergence_factor();
    rep.convergence.residual_history = sr->history;
    rep.status.status = status_name(sr->status);
    rep.status.nonfinite_iteration = sr->nonfinite_iteration;
    rep.status.recoveries = sr->recoveries;
    rep.status.events.insert(rep.status.events.end(), sr->events.begin(),
                             sr->events.end());
  }
  return rep;
}

void AMGSolver::precondition(const Vector& b, Vector& x, PhaseTimes* pt,
                             WorkCounters* wc) {
  set_zero(x);
  vcycle(h_, b, x, pt, wc);
}

void AMGSolver::precondition_multi(const MultiVector& b, MultiVector& x,
                                   PhaseTimes* pt, WorkCounters* wc) {
  set_zero(x);
  vcycle_multi(h_, b, x, pt, wc);
}

void AMGSolver::refresh_values(const CSRMatrix& A_new) {
  require(!h_.levels.empty(), "refresh_values: empty hierarchy");
  require(A_new.nrows == h_.levels[0].n && A_new.nrows == A_new.ncols,
          "refresh_values: size mismatch");
  const bool optimized = h_.opts.variant == Variant::kOptimized;
  ScopedPhase sp(h_.setup_times, "Setup_refresh");

  CSRMatrix A_work = A_new;
  if (!A_work.rows_sorted()) A_work.sort_rows();
  for (std::size_t l = 0; l + 1 < h_.levels.size(); ++l) {
    Level& L = h_.levels[l];
    CSRMatrix A_level;
    if (optimized && !L.perm.perm.empty()) {
      A_level = permute_symmetric(A_work, L.perm);
      A_level.sort_rows();
    } else {
      A_level = std::move(A_work);
    }
    if (l == 0) {
      require(A_level.rowptr == L.A.rowptr && A_level.colidx == L.A.colidx,
              "refresh_values: sparsity pattern differs from setup");
    }
    L.A = std::move(A_level);
    // Frozen transfers, fresh Galerkin product.
    CSRMatrix A_next =
        optimized ? rap_cf_block(L.A, L.Pf, L.PfT, L.nc)
                  : rap_fused_hypre(transpose_serial(L.P), L.A, L.P);
    A_next.sort_rows();
    // Smoother plans depend on the values (inverse diagonals).
    build_smoother_plans(L, h_.opts);
    A_work = std::move(A_next);
  }
  Level& C = h_.levels.back();
  C.A = std::move(A_work);
  if (h_.coarse_lu.size() == C.n && C.n > 0) {
    h_.coarse_lu = LUSolver(C.A);
  } else if (C.gs_opt || C.gs_base || C.lexgs || C.mcgs) {
    build_smoother_plans(C, h_.opts);
  }
}

}  // namespace hpamg

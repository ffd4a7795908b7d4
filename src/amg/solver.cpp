#include "amg/solver.hpp"

#include "amg/solve_loop.hpp"
#include "amg/spmv.hpp"
#include "amg/telemetry.hpp"
#include "perfmodel/attrib.hpp"
#include "support/check.hpp"
#include "support/live.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace hpamg {

namespace {

/// Validation happens here (not in the member-init list) so the ctor
/// rejects bad input before any setup work runs.
const CSRMatrix& validated(const CSRMatrix& A) {
  A.validate_system_matrix("AMGSolver");
  return A;
}

/// The shared-memory instance of detail::amg_loop's ops: the hierarchy's
/// block V-cycle, with the fused residual + norm (§3.3) on the optimized
/// variant.
template <int M>
struct SerialAmgOps {
  static constexpr Clock kClock = Clock::kWall;
  static constexpr const char* kPoisonSite = "amg.solve.poison";

  SerialAmgOps(Hierarchy& hh, Int cols, WorkCounters* w)
      : h(hh), n(hh.levels[0].n), m(cols), wc(w),
        loan(hh, metrics::enabled() ? &tel : nullptr) {
    tel.measure_smoother = true;
  }

  Hierarchy& h;
  const Int n, m;
  WorkCounters* wc;
  CycleTelemetryHook tel;
  TelemetryLoan<Hierarchy> loan;

  bool logs() const { return true; }
  CycleTelemetryHook* telemetry() { return h.telemetry; }
  std::size_t num_levels() const { return h.levels.size(); }
  void dot(const double* a, const double* b, double* out) {
    block::dot<M>(a, b, n, m, out, wc);
  }
  void residual_norms(const Vector& x, const Vector& b, Vector& r,
                      double* norms2, PhaseTimes& pt) {
    const CSRMatrix& A = h.levels[0].A;
    if (h.opts.variant == Variant::kOptimized) {
      // Fused residual + norm (§3.3): one pass instead of SpMV then dot.
      attrib::Probe probe("amg.residual", -1, "SpMV", &pt, nullptr, wc);
      block::spmv_residual_norms<M>(A, x.data(), b.data(), r.data(), m,
                                    norms2, wc);
      return;
    }
    {
      attrib::Probe probe("amg.residual", -1, "SpMV", &pt, nullptr, wc);
      block::spmv_residual<M>(A, x.data(), b.data(), r.data(), m, wc);
    }
    attrib::Probe probe("amg.residual_norm", -1, "BLAS1", &pt, nullptr, wc);
    dot(r.data(), r.data(), norms2);
  }
  void cycle(const Vector& b, Vector& x, PhaseTimes& pt) {
    vcycle_block<M>(h, b.data(), x.data(), m, /*work_order=*/true, &pt, wc);
  }
};

/// Standalone AMG on n x m row-major blocks (M as in with_width): solve()
/// is its m = 1 instance. Runs detail::amg_loop on working vectors kept in
/// the hierarchy's permuted order for the whole solve.
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
  const std::size_t len = std::size_t(L0.n) * std::size_t(M ? M : m);
  const bool permuted =
      h.opts.variant == Variant::kOptimized && !L0.perm.perm.empty();
  PhaseTimes& pt = res.solve_times;

  // Keep working vectors permuted across the whole solve; gather once.
  Vector bw(len), xw(len);
  {
    attrib::Probe probe("amg.gather", "Solve_etc", pt);
    if (permuted) {
      block::gather_rows<M>(L0.perm.perm, b, bw.data(), m);
      block::gather_rows<M>(L0.perm.perm, x, xw.data(), m);
    } else {
      copy_n(b, bw.data(), len);
      copy_n(x, xw.data(), len);
    }
  }

  SerialAmgOps<M> ops(h, m, &res.solve_work);
  detail::amg_loop<M>(ops, bw, xw, rtol, max_iterations, deadline, res,
                      relres, col_iterations);

  attrib::Probe probe("amg.scatter", "Solve_etc", pt);
  if (permuted)
    block::scatter_rows<M>(L0.perm.perm, xw.data(), x, m);
  else
    copy_n(xw.data(), x, len);
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
  res.take(std::move(sr));
  return res;
}

void MultiSolveResult::take(SolveResult&& sr) {
  iterations = sr.iterations;
  converged = sr.converged;
  status = sr.status;
  nonfinite_iteration = sr.nonfinite_iteration;
  recoveries = sr.recoveries;
  events = std::move(sr.events);
  history = std::move(sr.history);
  solve_times = std::move(sr.solve_times);
  solve_work = sr.solve_work;
}

SolveReport AMGSolver::report(const SolveResult* sr) const {
  SolveReport rep = setup_report(
      "amg", h_.opts.variant, h_.operator_complexity(), h_.grid_complexity(),
      h_.stats, h_.memory_by_level(), h_.setup_times, h_.setup_work,
      h_.events);
  if (sr) fill_solve_report(rep, *sr);
  return rep;
}

SolveReport setup_report(const char* solver, Variant variant,
                         double operator_complexity, double grid_complexity,
                         const std::vector<LevelStats>& stats,
                         const std::vector<LevelMemory>& mem,
                         const PhaseTimes& setup_times,
                         const WorkCounters& setup_work,
                         const std::vector<std::string>& events) {
  SolveReport rep;
  rep.solver = solver;
  rep.variant = variant == Variant::kOptimized ? "optimized" : "baseline";
  rep.num_levels = Int(mem.size());
  rep.operator_complexity = operator_complexity;
  rep.grid_complexity = grid_complexity;
  rep.levels.reserve(stats.size());
  for (std::size_t l = 0; l < stats.size(); ++l) {
    const LevelStats& s = stats[l];
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
  rep.setup_phases = setup_times;
  rep.setup_work = setup_work;
  rep.setup_seconds = setup_times.total();
  rep.status.events = events;  // setup incidents first, then solve's
  // Roofline attribution accumulated by the setup and solve probes; empty
  // (and omitted from the JSON) unless metrics were on while they ran.
  rep.roofline = attrib::snapshot();
  attrib::publish_metrics(rep.roofline);
  return rep;
}

void fill_solve_report(SolveReport& rep, const SolveResult& sr) {
  rep.iterations = sr.telemetry;
  rep.solve_phases = sr.solve_times;
  rep.solve_work = sr.solve_work;
  rep.solve_seconds = sr.solve_times.total();
  rep.convergence.iterations = sr.iterations;
  rep.convergence.converged = sr.converged;
  rep.convergence.final_relres = sr.final_relres;
  rep.convergence.convergence_factor = sr.convergence_factor();
  rep.convergence.residual_history = sr.history;
  rep.status.status = status_name(sr.status);
  rep.status.nonfinite_iteration = sr.nonfinite_iteration;
  rep.status.recoveries = sr.recoveries;
  rep.status.events.insert(rep.status.events.end(), sr.events.begin(),
                           sr.events.end());
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
  attrib::Probe probe("setup.refresh", "Setup_refresh", h_.setup_times);
  refresh_hierarchy(h_, A_new);
}

}  // namespace hpamg

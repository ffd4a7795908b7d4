#include "dist/dist_krylov.hpp"

#include <cmath>
#include <string>

#include "amg/telemetry.hpp"
#include "krylov/gmres_common.hpp"
#include "matrix/vector_ops.hpp"
#include "support/check.hpp"
#include "support/fault.hpp"
#include "support/live.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace hpamg {

DistSolveResult dist_fgmres(simmpi::Comm& comm, const DistMatrix& A,
                            DistHierarchy& h, const Vector& b, Vector& x,
                            double rtol, Int max_iterations, Int restart) {
  TRACE_SPAN("krylov.fgmres", "phase");
  DistSolveResult res;
  const Int n = A.local_rows();
  // Solver-entry invariants: ownership partition and vector shapes.
  HPAMG_CHECK_INVARIANT(check::Depth::kCheap,
                        A.check_partition(comm.size()));
  HPAMG_CHECK_INVARIANT(
      check::Depth::kCheap,
      check::vectors_match(std::size_t(n), b.size(), x.size(),
                           "dist_fgmres"));
  PhaseTimes& pt = res.solve_times;
  HaloExchange halo(comm, A.colmap, A.row_starts, true);
  Vector x_ext;

  CpuTimer t_blas;
  double normb = dist_norm2(comm, b);
  pt.add("BLAS1", t_blas.seconds());
  if (normb == 0.0) normb = 1.0;

  std::vector<Vector> V(restart + 1, Vector(n, 0.0));
  std::vector<Vector> Z(restart, Vector(n, 0.0));
  Vector r(n), w(n);
  // Best finite iterate seen at a restart boundary — the fallback when x
  // itself turns non-finite. Every classification below uses globally
  // reduced quantities, so all ranks take the same branch.
  Vector x_best(x);
  double x_best_relres = -1.0;
  Int total_it = 0;
  double relres = 0.0;

  // Per-iteration telemetry rides along only when the metrics registry is
  // on; dist smoother effectiveness is not measured (it would add
  // collectives and perturb the comm-stat baselines).
  const bool telemetry_on = metrics::enabled();
  CycleTelemetryHook tel;
  TelemetryLoan loan(h, telemetry_on ? &tel : nullptr);
  double prev_relres = -1.0;
  CpuTimer t_iter;

  while (total_it < max_iterations) {
    {
      CpuTimer t;
      dist_residual(comm, A, halo, x, x_ext, b, r);
      pt.add("SpMV", t.seconds());
    }
    CpuTimer t2;
    const double beta = dist_norm2(comm, r);
    pt.add("BLAS1", t2.seconds());
    relres = beta / normb;
    if (relres < rtol) {
      res.converged = true;
      res.status = res.recoveries > 0 ? Status::kRecovered : Status::kOk;
      break;
    }
    if (!std::isfinite(relres)) {
      if (res.nonfinite_iteration < 0) res.nonfinite_iteration = total_it;
      if (res.recoveries < kDistMaxRecoveries && x_best_relres >= 0.0) {
        ++res.recoveries;
        copy(x_best, x);
        std::string ev = "recovered at iteration " +
                         std::to_string(total_it) +
                         " (non_finite): restored best restart iterate";
        if (comm.rank() == 0) HPAMG_LOG_WARN("fgmres %s", ev.c_str());
        trace::instant("fgmres.recovery", "fault");
        res.events.push_back(std::move(ev));
        continue;
      }
      res.status = Status::kNonFinite;
      break;
    }
    if (x_best_relres < 0.0 || relres < x_best_relres) {
      copy(x, x_best);
      x_best_relres = relres;
    }
    copy(r, V[0]);
    scale(1.0 / beta, V[0]);
    detail::HessenbergLS ls(restart);
    ls.set_rhs(beta);
    if (prev_relres < 0.0) prev_relres = relres;  // restart-entry residual

    bool basis_poisoned = false;
    Int j = 0;
    for (; j < restart && total_it < max_iterations; ++j, ++total_it) {
      TRACE_SPAN("fgmres.iter", std::int64_t(total_it));
      if (telemetry_on) {
        tel.begin_cycle(h.levels.size());
        t_iter.reset();
      }
      // Preconditioner: one distributed AMG V-cycle.
      std::fill(Z[j].begin(), Z[j].end(), 0.0);
      dist_vcycle(comm, h, V[j], Z[j], &pt);
      {
        CpuTimer t;
        dist_spmv(comm, A, halo, Z[j], x_ext, w);
        pt.add("SpMV", t.seconds());
      }
      if (fault::enabled())
        fault::maybe_poison("dist.solve.poison", w.data(), w.size());
      CpuTimer t3;
      for (Int i = 0; i <= j; ++i) {
        const double hij = dist_dot(comm, w, V[i]);
        ls.h(i, j) = hij;
        axpy(-hij, V[i], w);
      }
      const double hn = dist_norm2(comm, w);
      ls.h(j + 1, j) = hn;
      if (hn != 0.0 && std::isfinite(hn)) {
        copy(w, V[j + 1]);
        scale(1.0 / hn, V[j + 1]);
      }
      relres = ls.apply_rotations(j) / normb;
      pt.add("BLAS1", t3.seconds());
      res.iterations = total_it + 1;
      res.history.push_back(relres);
      live::beat_iteration(total_it + 1, relres);
      if (telemetry_on) {
        res.telemetry.push_back(make_iteration_entry(
            total_it + 1, relres, prev_relres, t_iter.seconds(), normb,
            &tel));
      }
      prev_relres = relres;
      if (comm.rank() == 0)
        HPAMG_LOG_DEBUG("fgmres it %d relres %.3e", int(total_it + 1),
                        relres);
      if (!std::isfinite(relres) || !std::isfinite(hn)) {
        // The in-flight Krylov basis is poisoned; x is still the finite
        // iterate from the last restart boundary. Discard the basis and
        // restart instead of spreading the NaN through the update.
        if (res.nonfinite_iteration < 0)
          res.nonfinite_iteration = total_it + 1;
        basis_poisoned = true;
        ++j;
        ++total_it;
        break;
      }
      if (relres < rtol || hn == 0.0) {
        ++j;
        ++total_it;
        break;
      }
    }
    if (basis_poisoned) {
      if (res.recoveries < kDistMaxRecoveries) {
        ++res.recoveries;
        std::string ev = "recovered at iteration " + std::to_string(total_it) +
                         " (non_finite): discarded Krylov basis, restarted "
                         "from last restart iterate";
        if (comm.rank() == 0) HPAMG_LOG_WARN("fgmres %s", ev.c_str());
        trace::instant("fgmres.recovery", "fault");
        res.events.push_back(std::move(ev));
        continue;
      }
      res.status = Status::kNonFinite;
      break;
    }
    CpuTimer t4;
    std::vector<double> y = ls.solve(j);
    for (Int i = 0; i < j; ++i) axpy(y[i], Z[i], x);
    pt.add("BLAS1", t4.seconds());
    if (relres < rtol) {
      res.converged = true;
      res.status = res.recoveries > 0 ? Status::kRecovered : Status::kOk;
      break;
    }
  }
  res.final_relres = relres;
  return res;
}

DistSolveResult dist_amg_solve(simmpi::Comm& comm, const DistMatrix& A,
                               DistHierarchy& h, const Vector& b, Vector& x,
                               double rtol, Int max_iterations) {
  TRACE_SPAN("krylov.amg_richardson", "phase");
  DistSolveResult res;
  HPAMG_CHECK_INVARIANT(check::Depth::kCheap,
                        A.check_partition(comm.size()));
  HPAMG_CHECK_INVARIANT(
      check::Depth::kCheap,
      check::vectors_match(std::size_t(A.local_rows()), b.size(), x.size(),
                           "dist_amg_solve"));
  PhaseTimes& pt = res.solve_times;
  HaloExchange halo(comm, A.colmap, A.row_starts, true);
  Vector x_ext, r(A.local_rows());

  double normb = dist_norm2(comm, b);
  if (normb == 0.0) normb = 1.0;
  double relres = 0.0;
  // Scrub-and-restart recovery, mirroring AMGSolver::solve: the monitor
  // classifies the globally reduced residual (identical on every rank), a
  // non-finite/diverging iteration restores the last improving snapshot.
  ConvergenceMonitor monitor;
  Vector x_best(x);
  double x_best_relres = -1.0;
  Int x_best_iteration = 0;
  const bool telemetry_on = metrics::enabled();
  CycleTelemetryHook tel;
  TelemetryLoan loan(h, telemetry_on ? &tel : nullptr);
  double prev_relres = -1.0;
  CpuTimer t_iter;
  for (Int it = 1; it <= max_iterations; ++it) {
    if (fault::enabled())
      fault::maybe_poison("dist.solve.poison", x.data(), x.size());
    if (telemetry_on) {
      tel.begin_cycle(h.levels.size());
      t_iter.reset();
    }
    dist_vcycle(comm, h, b, x, &pt);
    CpuTimer t;
    dist_residual(comm, A, halo, x, x_ext, b, r);
    pt.add("SpMV", t.seconds());
    CpuTimer t2;
    relres = dist_norm2(comm, r) / normb;
    pt.add("BLAS1", t2.seconds());
    res.iterations = it;
    res.history.push_back(relres);
    live::beat_iteration(it, relres);
    if (telemetry_on) {
      res.telemetry.push_back(make_iteration_entry(it, relres, prev_relres,
                                                   t_iter.seconds(), normb,
                                                   &tel));
    }
    prev_relres = relres;
    if (comm.rank() == 0)
      HPAMG_LOG_DEBUG("amg it %d relres %.3e", int(it), relres);
    if (relres < rtol) {
      res.converged = true;
      res.status = res.recoveries > 0 ? Status::kRecovered : Status::kOk;
      break;
    }
    const Status verdict = monitor.observe(it, relres);
    if (verdict == Status::kOk) {
      if (x_best_relres < 0.0 || relres < x_best_relres) {
        copy(x, x_best);
        x_best_relres = relres;
        x_best_iteration = it;
      }
      continue;
    }
    if (verdict == Status::kNonFinite && res.nonfinite_iteration < 0)
      res.nonfinite_iteration = it;
    if (res.recoveries < kDistMaxRecoveries) {
      ++res.recoveries;
      copy(x_best, x);
      monitor.note_recovery();
      std::string ev = "recovered at iteration " + std::to_string(it) + " (" +
                       status_name(verdict) + "): restored iterate from " +
                       "iteration " + std::to_string(x_best_iteration);
      if (comm.rank() == 0) HPAMG_LOG_WARN("amg %s", ev.c_str());
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
  res.final_relres = relres;
  return res;
}

}  // namespace hpamg

// The one standalone-AMG iteration loop (V-cycles to tolerance with
// scrub-and-restart recovery): AMGSolver::solve, solve_multi and
// dist_amg_solve are its instances.
#pragma once

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "amg/solver.hpp"
#include "amg/telemetry.hpp"
#include "perfmodel/attrib.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/live.hpp"
#include "support/log.hpp"
#include "support/trace.hpp"

namespace hpamg {
namespace detail {

/// V-cycles on n x m row-major blocks (M as in with_width) until every
/// column satisfies ||b_j - A x_j|| / ||b_j|| < rtol, judged first on the
/// initial residual (x may be a nonzero guess). A non-finite or diverging
/// residual restores the last improving iterate and resumes, up to
/// kMaxRecoveries times; `deadline` is checked once per cycle. History,
/// recovery and status follow the worst column.
///
/// `ops` is as for detail::gmres_loop (krylov/gmres_common.hpp), with
/// cycle(b, x, pt) — x += B(b - A x), one V-cycle — in place of apply and
/// precondition, and kPoisonSite poked into x before each cycle.
///
/// Fills `res` and the per-column relres and first converged cycle.
template <int M, class Ops>
void amg_loop(Ops& ops, const Vector& b, Vector& x, double rtol,
              Int max_iterations, const Deadline& deadline, SolveResult& res,
              std::vector<double>& relres, std::vector<Int>& col_iterations) {
  const Int n = ops.n, mm = M ? M : ops.m;
  const std::size_t len = std::size_t(n) * std::size_t(mm);
  PhaseTimes& pt = res.solve_times;

  std::vector<double> normb(std::size_t(mm), 0.0), norms(std::size_t(mm), 0.0);
  {
    attrib::Probe probe("amg.norm_b", "BLAS1", pt, Ops::kClock);
    ops.dot(b.data(), b.data(), normb.data());
  }
  for (double& nb : normb) nb = nb > 0.0 ? std::sqrt(nb) : 1.0;

  relres.assign(std::size_t(mm), 0.0);
  col_iterations.assign(std::size_t(mm), -1);
  Vector r(len);
  // Residual of every column; returns the worst relative residual.
  auto residual = [&](Int it) {
    ops.residual_norms(x, b, r, norms.data(), pt);
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
  Vector x_best(x);
  double x_best_relres = worst;
  Int x_best_iteration = 0;

  // Per-iteration telemetry rides along when `ops` loaned a hook to the
  // hierarchy (metrics registry on). With m > 1 the pre-smooth residual is
  // the worst column over the smallest ||b_j||, an upper bound.
  CycleTelemetryHook* tel = ops.telemetry();
  const double tel_normb = *std::min_element(normb.begin(), normb.end());
  double prev_relres = worst;
  Timer t_iter(Ops::kClock);

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
      fault::maybe_poison(Ops::kPoisonSite, x.data(), x.size());
    if (tel) {
      tel->begin_cycle(ops.num_levels());
      t_iter.reset();
    }
    ops.cycle(b, x, pt);
    worst = residual(it);
    res.history.push_back(worst);
    res.iterations = it;
    live::beat_iteration(it, worst);
    if (tel) {
      res.telemetry.push_back(make_iteration_entry(
          it, worst, prev_relres, t_iter.seconds(), tel_normb, tel));
    }
    prev_relres = worst;
    if (ops.logs()) HPAMG_LOG_DEBUG("amg it %d relres %.3e", int(it), worst);
    if (worst < rtol) {
      res.converged = true;
      res.status = res.recoveries > 0 ? Status::kRecovered : Status::kOk;
      break;
    }
    const Status verdict = monitor.observe(worst);
    if (verdict == Status::kOk) {
      if (worst < x_best_relres) {
        copy_n(x.data(), x_best.data(), len);
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
    if (res.recoveries < kMaxRecoveries) {
      ++res.recoveries;
      copy_n(x_best.data(), x.data(), len);
      worst = x_best_relres;
      monitor.note_recovery();
      std::string ev = "recovered at iteration " + std::to_string(it) + " (" +
                       status_name(verdict) + "): restored iterate from " +
                       "iteration " + std::to_string(x_best_iteration);
      if (ops.logs()) HPAMG_LOG_WARN("amg %s", ev.c_str());
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
}

}  // namespace detail
}  // namespace hpamg

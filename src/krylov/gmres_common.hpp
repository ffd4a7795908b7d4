// The one restarted (F)GMRES loop — serial fgmres/gmres, block_fgmres and
// dist_fgmres are its instances — with its Arnoldi/Givens machinery and the
// adapters that run a single Vector through the block loops' m = 1 instance.
#pragma once

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "amg/solver.hpp"
#include "amg/telemetry.hpp"
#include "krylov/krylov.hpp"
#include "matrix/vector_ops.hpp"
#include "perfmodel/attrib.hpp"
#include "support/common.hpp"
#include "support/fault.hpp"
#include "support/live.hpp"
#include "support/log.hpp"
#include "support/parallel.hpp"
#include "support/trace.hpp"

namespace hpamg {
namespace detail {

/// Dense upper-Hessenberg least-squares state for one restart cycle of
/// GMRES: Givens rotations applied on the fly.
class HessenbergLS {
 public:
  /// m = restart length; beta = the restart residual norm (g = beta e_1).
  HessenbergLS(Int m, double beta)
      : m_(m), h_((m + 1) * m, 0.0), cs_(m, 0.0), sn_(m, 0.0), g_(m + 1, 0.0) {
    g_[0] = beta;
  }

  double& h(Int i, Int j) { return h_[std::size_t(i) * m_ + j]; }

  /// Applies previous rotations to column j, forms a new rotation to zero
  /// h(j+1, j), and returns |g_{j+1}| = current residual norm.
  double apply_rotations(Int j) {
    for (Int i = 0; i < j; ++i) {
      const double t = cs_[i] * h(i, j) + sn_[i] * h(i + 1, j);
      h(i + 1, j) = -sn_[i] * h(i, j) + cs_[i] * h(i + 1, j);
      h(i, j) = t;
    }
    const double a = h(j, j), b = h(j + 1, j);
    const double r = std::hypot(a, b);
    if (r == 0.0) {
      cs_[j] = 1.0;
      sn_[j] = 0.0;
    } else {
      cs_[j] = a / r;
      sn_[j] = b / r;
    }
    h(j, j) = r;
    h(j + 1, j) = 0.0;
    g_[j + 1] = -sn_[j] * g_[j];
    g_[j] = cs_[j] * g_[j];
    return std::abs(g_[j + 1]);
  }

  /// Back-substitutes for the k-dimensional coefficient vector y.
  std::vector<double> solve(Int k) const {
    std::vector<double> y(k, 0.0);
    for (Int i = k - 1; i >= 0; --i) {
      double s = g_[i];
      for (Int j = i + 1; j < k; ++j)
        s -= h_[std::size_t(i) * m_ + j] * y[j];
      y[i] = h_[std::size_t(i) * m_ + i] != 0.0
                 ? s / h_[std::size_t(i) * m_ + i]
                 : 0.0;
    }
    return y;
  }

 private:
  Int m_;
  std::vector<double> h_;
  std::vector<double> cs_, sn_, g_;
};

/// Column-wise v = w / scale for live columns with scale != 0.
template <int M>
void set_scaled_columns(const double* w, const std::vector<double>& scale,
                        const std::vector<char>& live, double* v, Int n,
                        Int m) {
  const Int mm = M ? M : m;
  parallel_for(0, n, [&](Int i) {
    const std::size_t off = std::size_t(i) * mm;
    for (Int j = 0; j < mm; ++j)
      if (live[j] && scale[j] != 0.0) v[off + j] = w[off + j] / scale[j];
  });
}

/// The one restarted GMRES loop, on n x m row-major blocks (M as in
/// with_width): per-column Hessenberg least-squares problems over a shared
/// batched Arnoldi sweep, right-preconditioned (A M^{-1} u = b). Flexible
/// (Saad 1993) stores the preconditioned vectors Z_j so M may vary per
/// iteration — the configuration the paper uses with an AMG V-cycle
/// preconditioner (Table 4) — and updates x += Z y; plain GMRES keeps one
/// scratch block and updates x += M^{-1} (V y). Each column's update uses
/// its own inner iteration count, so early-converging columns are not
/// dragged through extra corrections; convergence is judged on the true
/// residual.
///
/// Recovery: a non-finite Arnoldi quantity discards the in-flight basis
/// (x is still the last restart iterate) and restarts; a non-finite
/// restart residual restores the best restart iterate. Each counts against
/// kMaxRecoveries, after which the solve stops with kNonFinite.
///
/// `ops` supplies what differs between instances:
///   kClock, kPoisonSite  the clock phases are probed on; fault site poked
///                        into A z (or nullptr for none)
///   n, m, logs()         block shape; whether this instance logs
///   dot(a, b, out)       global per-column dots
///   residual_norms(x, b, r, norms2, pt)   r = b - A x and <r_j, r_j>
///   apply(z, w)          w = A z
///   precondition(V, Z, pt)                Z = M^{-1} V
///   telemetry(), num_levels()             loaned cycle hook (null: off)
/// Every branch below is a function of values `ops` reduced globally, so
/// all ranks of a distributed instance take it together.
///
/// Fills `res` with the worst column's history/status, and the per-column
/// relres and first converged iteration.
template <int M, class Ops>
void gmres_loop(Ops& ops, const Vector& b, Vector& x,
                const KrylovOptions& opt, bool flexible, SolveResult& res,
                std::vector<double>& relres, std::vector<Int>& col_iterations) {
  const Int n = ops.n, m = M ? M : ops.m;
  const std::size_t mm = std::size_t(m);
  TRACE_SPAN(M != 1 ? "krylov.block_fgmres"
             : flexible ? "krylov.fgmres"
                        : "krylov.gmres",
             "phase", "rhs", std::int64_t(m));
  live::ActivityScope live_scope;
  const Int restart = opt.restart;
  PhaseTimes& pt = res.solve_times;
  relres.assign(mm, 0.0);
  col_iterations.assign(mm, -1);

  std::vector<double> normb(mm), beta(mm), h(mm), hn(mm);
  {
    attrib::Probe probe("krylov.norm_b", "BLAS1", pt, Ops::kClock);
    ops.dot(b.data(), b.data(), normb.data());
  }
  for (double& nb : normb) nb = nb > 0.0 ? std::sqrt(nb) : 1.0;
  const double tel_normb = *std::min_element(normb.begin(), normb.end());

  std::vector<MultiVector> V(std::size_t(restart) + 1, MultiVector(n, m));
  std::vector<MultiVector> Z(flexible ? std::size_t(restart) : 1,
                             MultiVector(n, m));
  MultiVector R(n, m), W(n, m);
  double* w = W.data.data();
  // Best finite iterate seen at a restart boundary (judged on the worst
  // column) — the fallback when the restart residual turns non-finite.
  Vector x_best(x);
  double x_best_relres = -1.0;
  Int total_it = 0;
  bool deadline_hit = false;
  bool failed = false;  // non-finite with the recovery budget spent
  double worst = 0.0;

  CycleTelemetryHook* tel = ops.telemetry();
  double prev_relres = -1.0;
  Timer t_iter(Ops::kClock);

  // Counts one recovery; false once the budget is spent.
  auto recover = [&](const char* what) {
    if (res.recoveries >= kMaxRecoveries) return false;
    ++res.recoveries;
    std::string ev = "recovered at iteration " + std::to_string(total_it) +
                     " (non_finite): " + what;
    if (ops.logs()) HPAMG_LOG_WARN("fgmres %s", ev.c_str());
    trace::instant("fgmres.recovery", "fault");
    res.events.push_back(std::move(ev));
    return true;
  };

  // Every exit leaves from the top of a restart, so the true residual of
  // the returned x is computed exactly once per exit.
  for (;;) {
    ops.residual_norms(x, b, R.data, beta.data(), pt);
    // live = participating in this cycle's Arnoldi sweep (a column leaves
    // on convergence or lucky breakdown and re-enters, if unconverged, at
    // the next restart).
    std::vector<char> live(mm, 0);
    Int num_live = 0;
    bool nonfinite = false;
    for (std::size_t j = 0; j < mm; ++j) {
      beta[j] = std::sqrt(beta[j]);
      const double rr = beta[j] / normb[j];
      relres[j] = rr;
      if (!std::isfinite(rr)) {
        nonfinite = true;
      } else if (rr < opt.rtol) {
        if (col_iterations[j] < 0) col_iterations[j] = total_it;
      } else if (beta[j] != 0.0) {
        live[j] = 1;
        ++num_live;
      }
    }
    worst = worst_column(relres);
    if (nonfinite) {
      if (res.nonfinite_iteration < 0) res.nonfinite_iteration = total_it;
      if (x_best_relres >= 0.0 && recover("restored best restart iterate")) {
        attrib::Probe probe("krylov.restore", "BLAS1", pt, Ops::kClock);
        copy(x_best, x);
        continue;
      }
      failed = true;
      break;
    }
    if (prev_relres < 0.0) prev_relres = worst;  // entry residual
    if (num_live == 0 || total_it >= opt.max_iterations || deadline_hit)
      break;

    attrib::Probe restart_probe("krylov.restart", "BLAS1", pt, Ops::kClock);
    if (x_best_relres < 0.0 || worst < x_best_relres) {
      copy(x, x_best);
      x_best_relres = worst;
    }
    set_scaled_columns<M>(R.data.data(), beta, live, V[0].data.data(), n, m);
    std::vector<HessenbergLS> ls;
    ls.reserve(mm);
    for (std::size_t j = 0; j < mm; ++j) ls.emplace_back(restart, beta[j]);
    restart_probe.finish();
    std::vector<Int> jdone(mm, 0);  // per-column Arnoldi depth

    bool poisoned = false;
    for (Int j_in = 0; j_in < restart && total_it < opt.max_iterations &&
                       num_live > 0 && !poisoned;
         ++j_in, ++total_it) {
      if (opt.deadline.expired()) {
        // Fall through to the per-column update below — each column's
        // completed depth jdone[j] still yields a valid partial iterate.
        deadline_hit = true;
        break;
      }
      TRACE_SPAN("fgmres.iter", std::int64_t(total_it));
      if (tel) {
        tel->begin_cycle(ops.num_levels());
        t_iter.reset();
      }
      const MultiVector& Vj = V[std::size_t(j_in)];
      MultiVector& Zj = Z[flexible ? std::size_t(j_in) : 0];
      ops.precondition(Vj, Zj, pt);
      {
        attrib::Probe probe("krylov.apply", "SpMV", pt, Ops::kClock);
        ops.apply(Zj.data, W.data);
      }
      if constexpr (Ops::kPoisonSite != nullptr) {
        if (fault::enabled())
          fault::maybe_poison(Ops::kPoisonSite, w, W.data.size());
      }
      attrib::Probe arnoldi("krylov.arnoldi", "BLAS1", pt, Ops::kClock);
      for (Int i = 0; i <= j_in; ++i) {
        const double* vi = V[std::size_t(i)].data.data();
        ops.dot(w, vi, h.data());
        for (std::size_t j = 0; j < mm; ++j) {
          if (live[j]) ls[j].h(i, j_in) = h[j];
          h[j] = -h[j];
        }
        block::axpy<M>(h.data(), vi, w, n, m, live.data(), nullptr);
      }
      ops.dot(w, w, hn.data());
      for (double& v : hn) v = std::sqrt(v);
      set_scaled_columns<M>(w, hn, live, V[std::size_t(j_in) + 1].data.data(),
                            n, m);
      res.iterations = total_it + 1;
      for (std::size_t j = 0; j < mm; ++j) {
        if (!live[j]) continue;
        ls[j].h(j_in + 1, j_in) = hn[j];
        const double rr = ls[j].apply_rotations(j_in) / normb[j];
        relres[j] = rr;
        jdone[j] = j_in + 1;
        if (!std::isfinite(rr) || !std::isfinite(hn[j])) {
          // Poisoned basis: applying x += Z y would spread the NaN.
          poisoned = true;
        } else if (rr < opt.rtol || hn[j] == 0.0) {
          // Converged (or lucky breakdown) mid-cycle: stop extending this
          // column's least-squares problem; the update below uses its own
          // depth jdone[j].
          live[j] = 0;
          --num_live;
        }
      }
      arnoldi.finish();
      // The worst column decides when the block solve finishes.
      const double it_relres = worst_column(relres);
      res.history.push_back(it_relres);
      live::beat_iteration(total_it + 1, it_relres);
      if (tel) {
        res.telemetry.push_back(make_iteration_entry(
            total_it + 1, it_relres, prev_relres, t_iter.seconds(), tel_normb,
            tel));
      }
      prev_relres = it_relres;
      if (ops.logs())
        HPAMG_LOG_DEBUG("fgmres it %d relres %.3e", int(total_it + 1),
                        it_relres);
      if (poisoned && res.nonfinite_iteration < 0)
        res.nonfinite_iteration = total_it + 1;
    }
    if (poisoned) {
      // x is still the last restart iterate: discard the basis, restart.
      if (recover("discarded Krylov basis, restarted from last restart "
                  "iterate"))
        continue;
      failed = true;
      break;
    }

    // x_j += sum_i y_i Z_i(:, j) (flexible), or w_j = sum_i y_i V_i(:, j)
    // then x += M^{-1} w; each column at its own depth.
    attrib::Probe update("krylov.update", "BLAS1", pt, Ops::kClock);
    double* acc = flexible ? x.data() : w;
    if (!flexible) zero_n(w, W.data.size());
    for (std::size_t j = 0; j < mm; ++j) {
      const Int k = jdone[j];
      if (k == 0) continue;
      const std::vector<double> y = ls[j].solve(k);
      for (Int i = 0; i < k; ++i) {
        const double yi = y[std::size_t(i)];
        if (yi == 0.0) continue;
        const double* zp =
            (flexible ? Z : V)[std::size_t(i)].data.data();
        parallel_for(0, n, [&](Int row) {
          acc[std::size_t(row) * mm + j] += yi * zp[std::size_t(row) * mm + j];
        });
      }
    }
    update.finish();
    if (!flexible) {
      ops.precondition(W, Z[0], pt);
      attrib::Probe probe("krylov.update", "BLAS1", pt, Ops::kClock);
      const std::vector<double> ones(mm, 1.0);
      block::axpy<M>(ones.data(), Z[0].data.data(), x.data(), n, m, nullptr,
                     nullptr);
    }
  }

  res.converged = !failed && worst < opt.rtol;
  res.status = res.converged ? (res.recoveries > 0 ? Status::kRecovered
                                                   : Status::kOk)
               : failed       ? Status::kNonFinite
               : deadline_hit ? Status::kDeadlineExceeded
                              : Status::kMaxIterations;
  res.final_relres = worst;
}

/// The block loops' view of a Vector preconditioner (null stays null).
inline MultiPreconditioner as_block(const Preconditioner& p) {
  if (!p) return nullptr;
  return [&p](const MultiVector& R, MultiVector& Z) { p(R.data, Z.data); };
}

}  // namespace detail
}  // namespace hpamg

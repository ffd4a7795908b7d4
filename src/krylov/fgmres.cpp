#include <cmath>

#include "amg/spmv.hpp"
#include "krylov/gmres_common.hpp"
#include "krylov/krylov.hpp"
#include "support/live.hpp"
#include "support/parallel.hpp"
#include "support/trace.hpp"

namespace hpamg {

namespace {

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
template <int M>
BlockKrylovResult gmres_loop(const CSRMatrix& A, const double* b, double* x,
                             Int m, const KrylovOptions& opt,
                             const MultiPreconditioner& precond,
                             bool flexible) {
  const char* span = M != 1 ? "krylov.block_fgmres"
                     : flexible ? "krylov.fgmres"
                                : "krylov.gmres";
  TRACE_SPAN(span, "phase", "rhs", std::int64_t(m));
  live::ActivityScope live_scope;
  const Int n = A.nrows;
  if (M) m = M;
  const std::size_t mm = std::size_t(m);
  const Int restart = opt.restart;
  BlockKrylovResult res;
  res.final_relres.assign(mm, 0.0);
  res.col_iterations.assign(mm, -1);

  std::vector<double> normb(mm), beta(mm), h(mm), hn(mm);
  block::dot<M>(b, b, n, m, normb.data(), nullptr);
  for (double& nb : normb) nb = nb > 0.0 ? std::sqrt(nb) : 1.0;

  std::vector<MultiVector> V(std::size_t(restart) + 1, MultiVector(n, m));
  std::vector<MultiVector> Z(flexible ? std::size_t(restart) : 1,
                             MultiVector(n, m));
  MultiVector R(n, m), W(n, m);
  double* r = R.data.data();
  double* w = W.data.data();
  // done = globally converged; live = participating in the current cycle's
  // Arnoldi sweep (a column leaves on convergence or lucky breakdown and
  // re-enters, if unconverged, at the next restart).
  std::vector<char> done(mm, 0);
  Int total_it = 0;
  bool deadline_hit = false;

  while (total_it < opt.max_iterations && !deadline_hit) {
    block::spmv_residual<M>(A, x, b, r, m, nullptr);
    block::dot<M>(r, r, n, m, beta.data(), nullptr);
    std::vector<char> live(mm, 0);
    Int num_live = 0;
    for (std::size_t j = 0; j < mm; ++j) {
      beta[j] = std::sqrt(beta[j]);
      const double rr = beta[j] / normb[j];
      res.final_relres[j] = rr;
      if (!std::isfinite(rr)) {
        res.status = Status::kNonFinite;
        res.nonfinite_iteration = total_it;
        return res;
      }
      if (rr < opt.rtol) {
        if (!done[j]) {
          done[j] = 1;
          if (res.col_iterations[j] < 0) res.col_iterations[j] = total_it;
        }
      } else if (beta[j] != 0.0) {
        live[j] = 1;
        ++num_live;
      }
    }
    if (total_it == 0) res.history.push_back(worst_column(res.final_relres));
    if (num_live == 0) break;

    set_scaled_columns<M>(r, beta, live, V[0].data.data(), n, m);
    std::vector<detail::HessenbergLS> ls;
    ls.reserve(mm);
    for (std::size_t j = 0; j < mm; ++j) {
      ls.emplace_back(restart);
      ls.back().set_rhs(beta[j]);
    }
    std::vector<Int> jdone(mm, 0);  // per-column Arnoldi depth

    Int j_in = 0;
    for (; j_in < restart && total_it < opt.max_iterations && num_live > 0;
         ++j_in, ++total_it) {
      if (opt.deadline.expired()) {
        // Fall through to the per-column update below — each column's
        // completed depth jdone[j] still yields a valid partial iterate.
        deadline_hit = true;
        break;
      }
      const MultiVector& Vj = V[std::size_t(j_in)];
      MultiVector& Zj = Z[flexible ? std::size_t(j_in) : 0];
      if (precond)
        precond(Vj, Zj);
      else
        copy_n(Vj.data.data(), Zj.data.data(), Vj.data.size());
      block::spmv<M>(A, Zj.data.data(), w, m, nullptr);
      for (Int i = 0; i <= j_in; ++i) {
        const double* vi = V[std::size_t(i)].data.data();
        block::dot<M>(w, vi, n, m, h.data(), nullptr);
        for (std::size_t j = 0; j < mm; ++j) {
          if (live[j]) ls[j].h(i, j_in) = h[j];
          h[j] = -h[j];
        }
        block::axpy<M>(h.data(), vi, w, n, m, live.data(), nullptr);
      }
      block::dot<M>(w, w, n, m, hn.data(), nullptr);
      for (double& v : hn) v = std::sqrt(v);
      set_scaled_columns<M>(w, hn, live, V[std::size_t(j_in) + 1].data.data(),
                            n, m);
      res.iterations = total_it + 1;
      for (std::size_t j = 0; j < mm; ++j) {
        if (!live[j]) continue;
        ls[j].h(j_in + 1, j_in) = hn[j];
        const double rr = ls[j].apply_rotations(j_in) / normb[j];
        res.final_relres[j] = rr;
        jdone[j] = j_in + 1;
        if (!std::isfinite(rr) || !std::isfinite(hn[j])) {
          // Poisoned basis: applying x += Z y would spread the NaN.
          res.status = Status::kNonFinite;
          res.nonfinite_iteration = total_it + 1;
          return res;
        }
        if (rr < opt.rtol || hn[j] == 0.0) {
          // Converged (or lucky breakdown) mid-cycle: stop extending this
          // column's least-squares problem; the update below uses its own
          // depth jdone[j].
          live[j] = 0;
          --num_live;
        }
      }
      // The worst column decides when the block solve finishes.
      res.history.push_back(worst_column(res.final_relres));
      live::beat_iteration(total_it + 1, res.history.back());
    }

    // x_j += sum_i y_i Z_i(:, j) (flexible), or w_j = sum_i y_i V_i(:, j)
    // then x += M^{-1} w; each column at its own depth.
    double* acc = flexible ? x : w;
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
    if (!flexible) {
      if (precond)
        precond(W, Z[0]);
      else
        copy_n(w, Z[0].data.data(), W.data.size());
      const std::vector<double> ones(mm, 1.0);
      block::axpy<M>(ones.data(), Z[0].data.data(), x, n, m, nullptr,
                     nullptr);
    }
  }

  // Final true residual per column.
  block::spmv_residual<M>(A, x, b, r, m, nullptr);
  block::dot<M>(r, r, n, m, beta.data(), nullptr);
  bool all_converged = true;
  bool nonfinite = false;
  for (std::size_t j = 0; j < mm; ++j) {
    const double rr = std::sqrt(beta[j]) / normb[j];
    res.final_relres[j] = rr;
    if (!std::isfinite(rr)) nonfinite = true;
    if (rr < opt.rtol) {
      if (res.col_iterations[j] < 0) res.col_iterations[j] = total_it;
    } else {
      all_converged = false;
    }
  }
  res.converged = all_converged;
  res.status = all_converged  ? Status::kOk
               : nonfinite    ? Status::kNonFinite
               : deadline_hit ? Status::kDeadlineExceeded
                              : Status::kMaxIterations;
  return res;
}

}  // namespace

KrylovResult fgmres(const CSRMatrix& A, const Vector& b, Vector& x,
                    const KrylovOptions& opt, const Preconditioner& precond) {
  require(Int(b.size()) == A.nrows && Int(x.size()) == A.nrows,
          "fgmres: size mismatch");
  return detail::single_column(gmres_loop<1>(
      A, b.data(), x.data(), 1, opt, detail::as_block(precond),
      /*flexible=*/true));
}

KrylovResult gmres(const CSRMatrix& A, const Vector& b, Vector& x,
                   const KrylovOptions& opt, const Preconditioner& precond) {
  require(Int(b.size()) == A.nrows && Int(x.size()) == A.nrows,
          "gmres: size mismatch");
  return detail::single_column(gmres_loop<1>(
      A, b.data(), x.data(), 1, opt, detail::as_block(precond),
      /*flexible=*/false));
}

BlockKrylovResult block_fgmres(const CSRMatrix& A, const MultiVector& B,
                               MultiVector& X, const KrylovOptions& opt,
                               const MultiPreconditioner& precond) {
  require(B.n == A.nrows && X.n == A.nrows && X.m == B.m,
          "block_fgmres: shape mismatch");
  require(B.m > 0, "block_fgmres: no right-hand sides");
  return with_width(B.m, [&]<int M>() {
    return gmres_loop<M>(A, B.data.data(), X.data.data(), B.m, opt, precond,
                         /*flexible=*/true);
  });
}

}  // namespace hpamg

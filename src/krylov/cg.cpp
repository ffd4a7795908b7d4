#include <cmath>

#include "amg/spmv.hpp"
#include "krylov/gmres_common.hpp"
#include "krylov/krylov.hpp"
#include "support/live.hpp"
#include "support/trace.hpp"

namespace hpamg {

namespace {

/// The one (preconditioned) CG loop, on n x m row-major blocks (M as in
/// with_width): per-column alpha/beta/rho recurrences. Converged or
/// broken-down columns freeze (their iterate and direction stop changing)
/// while the rest keep sharing the batched kernels. Fills `res` with the
/// worst column's history/status, and the per-column relres and first
/// converged iteration.
template <int M>
void pcg_loop(const CSRMatrix& A, const double* b, double* x, Int m,
              const KrylovOptions& opt, const MultiPreconditioner& precond,
              SolveResult& res, std::vector<double>& relres,
              std::vector<Int>& col_iterations) {
  TRACE_SPAN(M == 1 ? "krylov.pcg" : "krylov.block_pcg", "phase", "rhs",
             std::int64_t(m));
  live::ActivityScope live_scope;
  const Int n = A.nrows;
  if (M) m = M;
  const std::size_t mm = std::size_t(m);
  relres.assign(mm, 0.0);
  col_iterations.assign(mm, -1);
  // Every exit records the worst column's relres.
  auto stop = [&](Status s) {
    res.status = s;
    res.final_relres = worst_column(relres);
  };

  MultiVector R(n, m), Z(n, m), P(n, m), AP(n, m);
  double* r = R.data.data();
  double* z = Z.data.data();
  double* p = P.data.data();
  double* ap = AP.data.data();
  block::spmv_residual<M>(A, x, b, r, m, nullptr);
  std::vector<double> normb(mm), rnorm(mm);
  block::dot<M>(b, b, n, m, normb.data(), nullptr);
  for (double& nb : normb) nb = nb > 0.0 ? std::sqrt(nb) : 1.0;

  // live = still iterating; a column leaves the live set by converging or
  // by exact breakdown (kStagnated if it never converged).
  std::vector<char> live(mm, 1);
  std::vector<double> rz(mm), rz_new(mm), pAp(mm), alpha(mm), beta(mm);

  block::dot<M>(r, r, n, m, rnorm.data(), nullptr);
  Int num_live = m;
  for (std::size_t j = 0; j < mm; ++j) {
    const double rr = std::sqrt(rnorm[j]) / normb[j];
    relres[j] = rr;
    if (!std::isfinite(rr)) {
      res.nonfinite_iteration = 0;
      return stop(Status::kNonFinite);
    }
    if (rr < opt.rtol) {
      live[j] = 0;
      col_iterations[j] = 0;
      --num_live;
    }
  }
  if (num_live == 0) {
    res.converged = true;
    return stop(Status::kOk);
  }

  auto apply_precond = [&] {
    if (precond)
      precond(R, Z);
    else
      copy_n(r, z, R.data.size());
  };
  apply_precond();
  copy_n(z, p, Z.data.size());
  block::dot<M>(r, z, n, m, rz.data(), nullptr);

  bool deadline_hit = false;
  for (Int it = 1; it <= opt.max_iterations && num_live > 0; ++it) {
    if (opt.deadline.expired()) {
      deadline_hit = true;
      break;
    }
    block::spmv<M>(A, p, ap, m, nullptr);
    block::dot<M>(p, ap, n, m, pAp.data(), nullptr);
    for (std::size_t j = 0; j < mm; ++j) {
      alpha[j] = 0.0;  // frozen: x_j, r_j must not move
      if (!live[j]) continue;
      if (!std::isfinite(pAp[j])) {
        res.nonfinite_iteration = it;
        return stop(Status::kNonFinite);
      }
      if (pAp[j] == 0.0) {  // exact breakdown: p_j is A-null
        live[j] = 0;
        --num_live;
        continue;
      }
      alpha[j] = rz[j] / pAp[j];
    }
    block::axpy<M>(alpha.data(), p, x, n, m, nullptr, nullptr);
    for (double& a : alpha) a = -a;
    block::axpy<M>(alpha.data(), ap, r, n, m, nullptr, nullptr);

    block::dot<M>(r, r, n, m, rnorm.data(), nullptr);
    res.iterations = it;
    for (std::size_t j = 0; j < mm; ++j) {
      if (!live[j]) continue;
      const double rr = std::sqrt(rnorm[j]) / normb[j];
      relres[j] = rr;
      if (!std::isfinite(rr)) {
        res.nonfinite_iteration = it;
        return stop(Status::kNonFinite);
      }
      if (rr < opt.rtol) {
        live[j] = 0;
        col_iterations[j] = it;
        --num_live;
      }
    }
    // The worst column decides when the block solve finishes.
    res.history.push_back(worst_column(relres));
    live::beat_iteration(it, res.history.back());
    if (num_live == 0) break;

    apply_precond();
    block::dot<M>(r, z, n, m, rz_new.data(), nullptr);
    for (std::size_t j = 0; j < mm; ++j) {
      beta[j] = live[j] ? rz_new[j] / rz[j] : 0.0;
      rz[j] = rz_new[j];
    }
    // p = z + beta p on live columns only: a frozen column's direction
    // must not change.
    block::xpby<M>(z, beta.data(), p, n, m, M == 1 ? nullptr : live.data(),
                   nullptr);
  }

  bool all_converged = true;
  for (std::size_t j = 0; j < mm; ++j)
    if (col_iterations[j] < 0) all_converged = false;
  res.converged = all_converged;
  if (all_converged)
    stop(Status::kOk);
  else if (deadline_hit)
    stop(Status::kDeadlineExceeded);  // partial: frozen iterates kept
  else if (num_live == 0)
    stop(Status::kStagnated);  // every straggler broke down
  else
    stop(Status::kMaxIterations);
}

}  // namespace

KrylovResult pcg(const CSRMatrix& A, const Vector& b, Vector& x,
                 const KrylovOptions& opt, const Preconditioner& precond) {
  require(Int(b.size()) == A.nrows && Int(x.size()) == A.nrows,
          "pcg: size mismatch");
  KrylovResult res;
  std::vector<double> relres;
  std::vector<Int> col_iterations;
  pcg_loop<1>(A, b.data(), x.data(), 1, opt, detail::as_block(precond), res,
              relres, col_iterations);
  return res;
}

BlockKrylovResult block_pcg(const CSRMatrix& A, const MultiVector& B,
                            MultiVector& X, const KrylovOptions& opt,
                            const MultiPreconditioner& precond) {
  require(B.n == A.nrows && X.n == A.nrows && X.m == B.m,
          "block_pcg: shape mismatch");
  require(B.m > 0, "block_pcg: no right-hand sides");
  SolveResult sr;
  BlockKrylovResult res;
  with_width(B.m, [&]<int M>() {
    pcg_loop<M>(A, B.data.data(), X.data.data(), B.m, opt, precond, sr,
                res.final_relres, res.col_iterations);
  });
  res.take(std::move(sr));
  return res;
}

}  // namespace hpamg

// Shared Arnoldi/Givens machinery for GMRES and FGMRES, and the adapters
// that run a single Vector through the block Krylov loops' m = 1 instance.
#pragma once

#include <cmath>
#include <utility>
#include <vector>

#include "krylov/krylov.hpp"
#include "matrix/vector_ops.hpp"
#include "support/common.hpp"

namespace hpamg {
namespace detail {

/// Dense upper-Hessenberg least-squares state for one restart cycle of
/// GMRES: Givens rotations applied on the fly.
class HessenbergLS {
 public:
  explicit HessenbergLS(Int m)
      : m_(m), h_((m + 1) * m, 0.0), cs_(m, 0.0), sn_(m, 0.0), g_(m + 1, 0.0) {}

  double& h(Int i, Int j) { return h_[std::size_t(i) * m_ + j]; }

  void set_rhs(double beta) {
    std::fill(g_.begin(), g_.end(), 0.0);
    g_[0] = beta;
  }

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

/// The block loops' view of a Vector preconditioner (null stays null).
inline MultiPreconditioner as_block(const Preconditioner& p) {
  if (!p) return nullptr;
  return [&p](const MultiVector& R, MultiVector& Z) { p(R.data, Z.data); };
}

/// The single-column result of an m = 1 block solve.
inline KrylovResult single_column(BlockKrylovResult&& br) {
  KrylovResult r;
  r.iterations = br.iterations;
  r.final_relres = worst_column(br.final_relres);
  r.converged = br.converged;
  r.status = br.status;
  r.nonfinite_iteration = br.nonfinite_iteration;
  r.history = std::move(br.history);
  return r;
}

}  // namespace detail
}  // namespace hpamg

// Row-major multivector X[n][m]: m right-hand sides stored interleaved so
// the solve-layer kernels (amg/spmv, amg/smoother, amg/cycle, dist/halo)
// read each matrix row once and apply it to all m columns — the XAMG-style
// multi-RHS generalization. Row-major layout is the one that amortizes
// matrix traffic: the m values of one vector row share the cache lines the
// row's nonzeros touch.
//
// Every solve-layer algorithm has exactly one implementation, written for
// an n x m row-major block and compiled twice (see with_width,
// matrix/vector_ops.hpp): M = 1, the
// single-column instance behind every Vector entry point, and M = 0, any m.
// A Vector is the m = 1 block. Per column the arithmetic order is the same
// in both instances, so column j of a batched result is bitwise-equal to
// the single-column call on column j (tests/test_multirhs.cpp pins this).
#pragma once

#include <cmath>
#include <vector>

#include "matrix/vector_ops.hpp"
#include "support/common.hpp"

namespace hpamg {

struct MultiVector {
  Int n = 0;  ///< rows (vector length)
  Int m = 0;  ///< columns (number of right-hand sides)
  std::vector<double> data;  ///< row-major: data[i * m + j]

  MultiVector() = default;
  MultiVector(Int rows, Int cols) { resize(rows, cols); }

  /// Reshapes to rows x cols and zero-fills.
  void resize(Int rows, Int cols) {
    n = rows;
    m = cols;
    data.assign(std::size_t(rows) * std::size_t(cols), 0.0);
  }

  double& at(Int i, Int j) { return data[std::size_t(i) * m + j]; }
  double at(Int i, Int j) const { return data[std::size_t(i) * m + j]; }
  double* row(Int i) { return data.data() + std::size_t(i) * m; }
  const double* row(Int i) const { return data.data() + std::size_t(i) * m; }
};

/// Largest of the per-column relative residuals — the column that decides
/// when a batched solve finishes; a non-finite column wins outright.
inline double worst_column(const std::vector<double>& relres) {
  double worst = 0.0;
  for (const double r : relres) {
    if (!std::isfinite(r)) return r;
    if (r > worst) worst = r;
  }
  return worst;
}

namespace block {

/// dst row i = src row perm[i] (into a CF-permuted working order).
template <int M>
void gather_rows(const std::vector<Int>& perm, const double* src, double* dst,
                 Int m);
/// dst row perm[i] = src row i (back out of a working order).
template <int M>
void scatter_rows(const std::vector<Int>& perm, const double* src,
                  double* dst, Int m);

}  // namespace block

/// X = 0
void set_zero(MultiVector& X);

}  // namespace hpamg

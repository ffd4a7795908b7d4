// BLAS1-style dense vector kernels (parallel). These are the "BLAS1" bar in
// the paper's Fig 5 breakdown: scaling, axpy, inner products, norms. The
// Vector forms are the m = 1 instances of the column-wise block kernels at
// the end of this header (n x m row-major blocks, amg/multivector.hpp).
#pragma once

#include <vector>

#include "support/common.hpp"
#include "support/counters.hpp"

namespace hpamg {

using Vector = std::vector<double>;

/// y += alpha * x
void axpy(double alpha, const Vector& x, Vector& y, WorkCounters* wc = nullptr);

/// y = x + beta * y
void xpby(const Vector& x, double beta, Vector& y, WorkCounters* wc = nullptr);

/// x *= alpha
void scale(double alpha, Vector& x, WorkCounters* wc = nullptr);

/// <x, y>
double dot(const Vector& x, const Vector& y, WorkCounters* wc = nullptr);

/// ||x||_2
double norm2(const Vector& x, WorkCounters* wc = nullptr);

/// x = 0
void set_zero(Vector& x);

/// dst = src (parallel copy)
void copy(const Vector& src, Vector& dst);

/// max_i |x_i|
double norm_inf(const Vector& x);

/// dst[0..count) = src[0..count), in parallel (block copies of n * m).
void copy_n(const double* src, double* dst, std::size_t count);

/// x[0..count) = 0, in parallel.
void zero_n(double* x, std::size_t count);

/// Largest column count the batched kernels process per pass over the
/// matrix; wider multivectors are handled in blocks of this many columns
/// (keeps the per-row accumulators in registers/stack).
inline constexpr Int kMaxRhsBlock = 32;

/// Runs f.template operator()<M>() with M = 1 when m == 1 and M = 0 (any
/// width) otherwise. The m = 1 instance must be compiled for one column: a
/// runtime m = 1 through the general body costs a third or more of
/// single-RHS throughput (per-row accumulator arrays, column-block loops
/// and stride arithmetic the compiler cannot fold away; README.md).
template <typename F>
decltype(auto) with_width(Int m, F&& f) {
  return m == 1 ? f.template operator()<1>() : f.template operator()<0>();
}

/// Explicit instances of a block template for both widths.
#define HPAMG_INSTANTIATE_WIDTHS(fn, ...) \
  template void fn<0>(__VA_ARGS__);      \
  template void fn<1>(__VA_ARGS__)

namespace block {

// Column-wise BLAS1 on n x m row-major blocks (M as in with_width).

/// out[j] = <x_j, y_j>. One partial per thread, added in thread-index order
/// (never arrival order), so the sums do not depend on scheduling.
template <int M>
void dot(const double* x, const double* y, Int n, Int m, double* out,
         WorkCounters* wc);
/// y_j += alpha[j] * x_j for columns with live[j] (null: every column).
template <int M>
void axpy(const double* alpha, const double* x, double* y, Int n, Int m,
          const char* live, WorkCounters* wc);
/// y_j = x_j + beta[j] * y_j for columns with live[j] (null: every column).
template <int M>
void xpby(const double* x, const double* beta, double* y, Int n, Int m,
          const char* live, WorkCounters* wc);

}  // namespace block

}  // namespace hpamg

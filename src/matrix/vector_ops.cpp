#include "matrix/vector_ops.hpp"

#include <cmath>

#include "support/parallel.hpp"

namespace hpamg {

namespace {
// lint: counted-no-span(BLAS1 accounting; a span per axpy would dominate)
void count_stream(WorkCounters* wc, std::uint64_t n, int reads, int writes,
                  std::uint64_t flops_per_elem) {
  if (!wc) return;
  wc->bytes_read += n * reads * sizeof(double);
  wc->bytes_written += n * writes * sizeof(double);
  wc->flops += n * flops_per_elem;
}
}  // namespace

namespace block {

template <int M>
void dot(const double* x, const double* y, Int n, Int m, double* out,
         WorkCounters* wc) {
  constexpr Int W = M ? M : kMaxRhsBlock;
  const Int mm = M ? M : m;
  const int nt = num_threads();
  std::vector<double> partial(std::size_t(nt) * std::size_t(mm), 0.0);
  const double* HPAMG_RESTRICT xp = x;
  const double* HPAMG_RESTRICT yp = y;
  // lint: no-span(BLAS1 body; the calling solver phase holds the span)
#pragma omp parallel num_threads(nt)
  {
    double* HPAMG_RESTRICT mine =
        partial.data() + std::size_t(omp_get_thread_num()) * std::size_t(mm);
    for (Int j0 = 0; j0 < mm; j0 += W) {
      const Int bw = M ? M : std::min(W, mm - j0);
      double acc[W];
      for (Int j = 0; j < bw; ++j) acc[j] = 0.0;
#pragma omp for schedule(static) nowait
      for (Int i = 0; i < n; ++i) {
        const std::size_t off = std::size_t(i) * mm + j0;
        for (Int j = 0; j < bw; ++j) acc[j] += xp[off + j] * yp[off + j];
      }
      for (Int j = 0; j < bw; ++j) mine[j0 + j] = acc[j];
    }
  }
  for (Int j = 0; j < mm; ++j) out[j] = 0.0;
  for (int t = 0; t < nt; ++t)
    for (Int j = 0; j < mm; ++j) out[j] += partial[std::size_t(t) * mm + j];
  count_stream(wc, std::uint64_t(n) * mm, 2, 0, 2);
}

template <int M>
void axpy(const double* alpha, const double* x, double* y, Int n, Int m,
          const char* live, WorkCounters* wc) {
  const Int mm = M ? M : m;
  const double* HPAMG_RESTRICT xp = x;
  double* HPAMG_RESTRICT yp = y;
  parallel_for(0, n, [&](Int i) {
    const std::size_t off = std::size_t(i) * mm;
    for (Int j = 0; j < mm; ++j)
      if (!live || live[j]) yp[off + j] += alpha[j] * xp[off + j];
  });
  count_stream(wc, std::uint64_t(n) * mm, 2, 1, 2);
}

template <int M>
void xpby(const double* x, const double* beta, double* y, Int n, Int m,
          const char* live, WorkCounters* wc) {
  const Int mm = M ? M : m;
  const double* HPAMG_RESTRICT xp = x;
  double* HPAMG_RESTRICT yp = y;
  parallel_for(0, n, [&](Int i) {
    const std::size_t off = std::size_t(i) * mm;
    for (Int j = 0; j < mm; ++j)
      if (!live || live[j]) yp[off + j] = xp[off + j] + beta[j] * yp[off + j];
  });
  count_stream(wc, std::uint64_t(n) * mm, 2, 1, 2);
}

HPAMG_INSTANTIATE_WIDTHS(dot, const double*, const double*, Int, Int, double*,
                         WorkCounters*);
HPAMG_INSTANTIATE_WIDTHS(axpy, const double*, const double*, double*, Int,
                         Int, const char*, WorkCounters*);
HPAMG_INSTANTIATE_WIDTHS(xpby, const double*, const double*, double*, Int,
                         Int, const char*, WorkCounters*);

}  // namespace block

void axpy(double alpha, const Vector& x, Vector& y, WorkCounters* wc) {
  require(x.size() == y.size(), "axpy: size mismatch");
  block::axpy<1>(&alpha, x.data(), y.data(), Int(x.size()), 1, nullptr, wc);
}

void xpby(const Vector& x, double beta, Vector& y, WorkCounters* wc) {
  require(x.size() == y.size(), "xpby: size mismatch");
  block::xpby<1>(x.data(), &beta, y.data(), Int(x.size()), 1, nullptr, wc);
}

void scale(double alpha, Vector& x, WorkCounters* wc) {
  const Int n = Int(x.size());
  double* HPAMG_RESTRICT xp = x.data();
  // lint: no-span(BLAS1 body; the calling solver phase holds the span)
#pragma omp parallel for schedule(static)
  for (Int i = 0; i < n; ++i) xp[i] *= alpha;
  count_stream(wc, n, 1, 1, 1);
}

double dot(const Vector& x, const Vector& y, WorkCounters* wc) {
  require(x.size() == y.size(), "dot: size mismatch");
  double acc = 0.0;
  block::dot<1>(x.data(), y.data(), Int(x.size()), 1, &acc, wc);
  return acc;
}

double norm2(const Vector& x, WorkCounters* wc) {
  return std::sqrt(dot(x, x, wc));
}

void set_zero(Vector& x) { zero_n(x.data(), x.size()); }

void copy(const Vector& src, Vector& dst) {
  dst.resize(src.size());
  copy_n(src.data(), dst.data(), src.size());
}

void copy_n(const double* src, double* dst, std::size_t count) {
  const double* HPAMG_RESTRICT s = src;
  double* HPAMG_RESTRICT d = dst;
  const Long n = Long(count);
  // lint: no-span(BLAS1 body; the calling kernel or phase holds the span)
#pragma omp parallel for schedule(static)
  for (Long i = 0; i < n; ++i) d[i] = s[i];
}

void zero_n(double* x, std::size_t count) {
  double* HPAMG_RESTRICT xp = x;
  const Long n = Long(count);
  // lint: no-span(BLAS1 body; the calling kernel or phase holds the span)
#pragma omp parallel for schedule(static)
  for (Long i = 0; i < n; ++i) xp[i] = 0.0;
}

double norm_inf(const Vector& x) {
  return parallel_reduce_max(0, Int(x.size()),
                             [&](Int i) { return std::abs(x[i]); });
}

}  // namespace hpamg

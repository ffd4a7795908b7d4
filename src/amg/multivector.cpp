#include "amg/multivector.hpp"

#include "support/parallel.hpp"

namespace hpamg {

namespace block {

template <int M>
void gather_rows(const std::vector<Int>& perm, const double* src, double* dst,
                 Int m) {
  const Int mm = M ? M : m;
  parallel_for(0, Int(perm.size()), [&](Int i) {
    const double* HPAMG_RESTRICT s = src + std::size_t(perm[i]) * mm;
    double* HPAMG_RESTRICT d = dst + std::size_t(i) * mm;
    for (Int j = 0; j < mm; ++j) d[j] = s[j];
  });
}

template <int M>
void scatter_rows(const std::vector<Int>& perm, const double* src,
                  double* dst, Int m) {
  const Int mm = M ? M : m;
  parallel_for(0, Int(perm.size()), [&](Int i) {
    const double* HPAMG_RESTRICT s = src + std::size_t(i) * mm;
    double* HPAMG_RESTRICT d = dst + std::size_t(perm[i]) * mm;
    for (Int j = 0; j < mm; ++j) d[j] = s[j];
  });
}

HPAMG_INSTANTIATE_WIDTHS(gather_rows, const std::vector<Int>&, const double*,
                         double*, Int);
HPAMG_INSTANTIATE_WIDTHS(scatter_rows, const std::vector<Int>&, const double*,
                         double*, Int);

}  // namespace block

void set_zero(MultiVector& X) { zero_n(X.data.data(), X.data.size()); }

}  // namespace hpamg

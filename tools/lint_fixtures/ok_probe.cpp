// lint-fixture-path: src/amg/ok_probe.cpp
// Clean fixture: an attrib::Probe opens the span that the omp-trace-span,
// counters-trace-span and beat-trace-span rules ask for — nothing may fire.
// expect: clean
#include "matrix/csr.hpp"
#include "perfmodel/attrib.hpp"
#include "support/counters.hpp"
#include "support/live.hpp"

namespace hpamg {

void probed_parallel_kernel(Vector& y, PhaseTimes* pt) {
  attrib::Probe probe("probed.scale", -1, "BLAS1", pt, nullptr, nullptr);
#pragma omp parallel for
  for (Int i = 0; i < Int(y.size()); ++i) y[i] *= 2.0;
}

void probed_counted_kernel(const Vector& x, Vector& y, WorkCounters* wc) {
  attrib::Probe probe("probed.copy", 0, "SpMV", nullptr, nullptr, wc);
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = x[i];
  if (wc != nullptr) wc->bytes_read += y.size() * 8;
}

void probed_driver(int iterations, PhaseTimes& pt) {
  for (int it = 1; it <= iterations; ++it) {
    attrib::Probe probe("probed.step", "Solve_etc", pt);
    live::beat_iteration(it, 1.0 / it);
  }
}

}  // namespace hpamg

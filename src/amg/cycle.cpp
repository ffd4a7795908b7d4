#include "amg/cycle.hpp"

#include <algorithm>

#include "amg/spmv.hpp"
#include "amg/telemetry.hpp"
#include "matrix/transpose.hpp"
#include "perfmodel/attrib.hpp"
#include "support/live.hpp"
#include "support/parallel.hpp"
#include "support/trace.hpp"

namespace hpamg {

namespace {

/// One sweep of a smoother that has no block form (lexicographic GS,
/// multi-color GS, the baseline hybrid GS) on one column.
void sweep_column(const Hierarchy& h, Level& L, const Vector& b, Vector& x,
                  Vector& temp, bool pre, WorkCounters* wc) {
  switch (h.opts.smoother) {
    case SmootherKind::kLexGS:
      L.lexgs->sweep(L.A, b, x, true, wc);
      return;
    case SmootherKind::kMultiColorGS:
      // Forward colors pre-smoothing, backward colors post (symmetric
      // multi-color sweep, as AmgX's smoother does).
      L.mcgs->sweep(L.A, b, x, pre, wc);
      return;
    default:
      break;
  }
  if (!L.gs_base) return;
  const bool cf = L.nc > 0 && !L.cf.empty();
  const signed char* cfm = cf ? L.cf.data() : nullptr;
  if (!cfm) {
    L.gs_base->sweep(L.A, b, x, temp, true, nullptr, 0, wc);
  } else if (pre) {
    L.gs_base->sweep(L.A, b, x, temp, true, cfm, 1, wc);
    L.gs_base->sweep(L.A, b, x, temp, true, cfm, -1, wc);
  } else {
    L.gs_base->sweep(L.A, b, x, temp, true, cfm, -1, wc);
    L.gs_base->sweep(L.A, b, x, temp, true, cfm, 1, wc);
  }
}

/// Applies the configured smoother to L.x (right-hand side L.b), m
/// columns. `pre` selects the C-then-F (pre) or F-then-C (post) order;
/// zero_init marks a known-zero initial guess (coarse pre-smoothing), which
/// the optimized hybrid GS exploits by skipping the upper-triangle/external
/// terms of the first sub-sweep. Smoothers without a block form run column
/// by column: bitwise-equal by construction, but the matrix streams once
/// per column.
template <int M>
void smooth(const Hierarchy& h, Level& L, Int m, bool pre, bool zero_init,
            WorkCounters* wc) {
  const AMGOptions& o = h.opts;
  const Int mm = M ? M : m;
  const bool jacobi = o.smoother == SmootherKind::kJacobi;
  if (!jacobi && !(o.smoother == SmootherKind::kHybridGS && L.gs_opt)) {
    if (M == 1) {
      for (Int sweep = 0; sweep < o.num_sweeps; ++sweep)
        sweep_column(h, L, L.b, L.x, L.temp, pre, wc);
      return;
    }
    Vector b(L.n), x(L.n), temp(L.n);
    for (Int j = 0; j < mm; ++j) {
      parallel_for(0, L.n, [&](Int i) {
        b[i] = L.b[std::size_t(i) * mm + j];
        x[i] = L.x[std::size_t(i) * mm + j];
      });
      for (Int sweep = 0; sweep < o.num_sweeps; ++sweep)
        sweep_column(h, L, b, x, temp, pre, wc);
      parallel_for(0, L.n, [&](Int i) { L.x[std::size_t(i) * mm + j] = x[i]; });
    }
    return;
  }
  const double* b = L.b.data();
  double* x = L.x.data();
  double* temp = L.temp.data();
  const bool cf = L.nc > 0;
  for (Int sweep = 0; sweep < o.num_sweeps; ++sweep) {
    const bool zi = zero_init && sweep == 0;
    if (jacobi) {
      block::jacobi_sweep<M>(L.A, b, x, temp, m, 2.0 / 3.0, 0, L.n, wc);
    } else if (!cf) {
      L.gs_opt->sweep_block<M>(b, x, temp, m, 0, L.n, true, zi, wc);
    } else if (pre) {
      // Coarse block first; with a zero guess the first sub-sweep reads
      // nothing stale so zero_init applies.
      L.gs_opt->sweep_block<M>(b, x, temp, m, 0, L.nc, true, zi, wc);
      L.gs_opt->sweep_block<M>(b, x, temp, m, L.nc, L.n, true, false, wc);
    } else {
      L.gs_opt->sweep_block<M>(b, x, temp, m, L.nc, L.n, true, false, wc);
      L.gs_opt->sweep_block<M>(b, x, temp, m, 0, L.nc, true, false, wc);
    }
  }
}

/// The coarsest level's solve, probed into Solve_etc and the level's slot.
template <int M>
void coarse_solve(Hierarchy& h, Int l, Int m, PhaseTimes* pt,
                  double* level_seconds, WorkCounters* wc) {
  attrib::Probe probe("coarse_solve", int(l), "Solve_etc", pt, level_seconds,
                      wc);
  Level& L = h.levels[l];
  const Int mm = M ? M : m;
  if (h.coarse_lu.size() == L.n && L.n > 0) {
    if (M == 1) {
      h.coarse_lu.solve(L.b.data(), L.x.data());
    } else {
      // Column by column through scratch rows of temp (rhs) and r (solution).
      for (Int j = 0; j < mm; ++j) {
        for (Int i = 0; i < L.n; ++i) L.temp[i] = L.b[std::size_t(i) * mm + j];
        h.coarse_lu.solve(L.temp.data(), L.r.data());
        for (Int i = 0; i < L.n; ++i) L.x[std::size_t(i) * mm + j] = L.r[i];
      }
    }
    if (wc) wc->flops += std::uint64_t(L.n) * L.n * mm;  // triangular solves
    return;
  }
  // Approximate coarse solve by smoothing (paper §2: "...or approximated
  // with a few smoothing steps").
  zero_n(L.x.data(), std::size_t(L.n) * mm);
  for (int s = 0; s < 8; ++s) smooth<M>(h, L, m, s % 2 == 0, s == 0, wc);
}

template <int M>
void vcycle_level(Hierarchy& h, Int l, Int m, PhaseTimes* pt,
                  WorkCounters* wc, bool zero_entry = true) {
  TRACE_SPAN("cycle.level", std::int64_t(l));
  live::beat_phase("cycle.level", std::int64_t(l));
  Level& L = h.levels[l];
  const Int mm = M ? M : m;
  const bool optimized = h.opts.variant == Variant::kOptimized;
  double* slot =
      h.telemetry ? h.telemetry->level_slot(std::size_t(l)) : nullptr;
  if (l == h.num_levels() - 1) {
    coarse_solve<M>(h, l, m, pt, slot, wc);
    return;
  }
  Level& N = h.levels[l + 1];

  // Pre-smoothing. zero_entry: levels below the finest enter with x = 0 on
  // their FIRST visit of a cycle; W-cycle revisits carry the accumulated
  // iterate.
  {
    attrib::Probe probe("smoother", int(l), "GS", pt, slot, wc);
    smooth<M>(h, L, m, /*pre=*/true, /*zero_init=*/l > 0 && zero_entry, wc);
  }
  if (l == 0 && h.telemetry && h.telemetry->measure_smoother) {
    // Diagnostic-only residual after the fine pre-smooth (worst column):
    // null counters and no phase attribution, so the deterministic
    // work/phase sums that baselines compare against are unchanged by
    // telemetry.
    std::vector<double> norms(std::size_t(mm), 0.0);
    block::spmv_residual_norms<M>(L.A, L.x.data(), L.b.data(), L.r.data(), m,
                                  norms.data(), nullptr);
    h.telemetry->presmooth_norm2 =
        *std::max_element(norms.begin(), norms.end());
  }

  // Residual + restriction.
  {
    attrib::Probe probe("residual_restrict", int(l), "SpMV", pt, slot, wc);
    block::spmv_residual<M>(L.A, L.x.data(), L.b.data(), L.r.data(), m, wc);
    if (optimized) {
      block::restrict_identity<M>(L.PfT, L.r.data(), L.rc_pre.data(), L.nc, m,
                                  wc);
      // Gather into the child's CF-permuted working order.
      if (!N.perm.perm.empty())
        block::gather_rows<M>(N.perm.perm, L.rc_pre.data(), N.b.data(), m);
      else
        copy_n(L.rc_pre.data(), N.b.data(), std::size_t(N.n) * mm);
    } else {
      // Baseline: transpose P anew for every restriction (§3.2 calls this
      // out as the dominant SpMV cost in HYPRE_base).
      CSRMatrix R = transpose_serial(L.P, wc);
      block::spmv<M>(R, L.r.data(), N.b.data(), m, wc);
    }
  }

  zero_n(N.x.data(), std::size_t(N.n) * mm);
  // gamma = 1 is the V-cycle; gamma = 2 revisits the coarse problem (with
  // the accumulated coarse iterate) for a W-cycle.
  for (Int g = 0; g < std::max<Int>(1, h.opts.cycle_gamma); ++g)
    vcycle_level<M>(h, l + 1, m, pt, wc, /*zero_entry=*/g == 0);

  // Prolongation: x += P e.
  {
    attrib::Probe probe("prolong", int(l), "SpMV", pt, slot, wc);
    if (optimized) {
      const double* e = N.x.data();
      if (!N.perm.perm.empty()) {
        // Scatter the child's correction back to this level's coarse
        // numbering, then apply the identity-block interpolation.
        block::scatter_rows<M>(N.perm.perm, N.x.data(), L.rc_pre.data(), m);
        e = L.rc_pre.data();
      }
      block::interp_add_identity<M>(L.Pf, e, L.x.data(), L.nc, m, wc);
    } else {
      block::spmv<M>(L.P, N.x.data(), L.temp.data(), m, wc);
      const std::vector<double> ones(std::size_t(mm), 1.0);
      block::axpy<M>(ones.data(), L.temp.data(), L.x.data(), L.n, m, nullptr,
                     wc);
    }
  }

  // Post-smoothing.
  {
    attrib::Probe probe("smoother", int(l), "GS", pt, slot, wc);
    smooth<M>(h, L, m, /*pre=*/false, /*zero_init=*/false, wc);
  }
}

}  // namespace

void ensure_multi_workspace(Hierarchy& h, Int m) {
  require(m > 0, "ensure_multi_workspace: m must be positive");
  for (Level& L : h.levels) {
    const std::size_t len = std::size_t(L.n) * std::size_t(m);
    if (L.b.size() >= len) continue;  // already as wide as m
    L.b.assign(len, 0.0);
    L.x.assign(len, 0.0);
    L.temp.assign(len, 0.0);
    L.r.assign(len, 0.0);
    L.rc_pre.assign(std::size_t(std::max<Int>(L.nc, 1)) * m, 0.0);
  }
}

template <int M>
void vcycle_block(Hierarchy& h, const double* b, double* x, Int m,
                  bool work_order, PhaseTimes* pt, WorkCounters* wc) {
  TRACE_SPAN("cycle.v", "phase");
  require(!h.levels.empty(), "vcycle: empty hierarchy");
  ensure_multi_workspace(h, m);
  Level& L0 = h.levels[0];
  const std::size_t len = std::size_t(L0.n) * (M ? M : m);
  // Into level 0's working order (a gather on the permuted optimized
  // path, a copy otherwise) and back out; neither is level work.
  const std::vector<Int>& perm = L0.perm.perm;
  const bool gather = !work_order &&
                      h.opts.variant == Variant::kOptimized && !perm.empty();
  {
    attrib::Probe probe("cycle.copy_in", -1, "Solve_etc", pt, nullptr,
                        nullptr);
    if (gather) {
      block::gather_rows<M>(perm, b, L0.b.data(), m);
      block::gather_rows<M>(perm, x, L0.x.data(), m);
    } else {
      copy_n(b, L0.b.data(), len);
      copy_n(x, L0.x.data(), len);
    }
  }
  vcycle_level<M>(h, 0, m, pt, wc);
  attrib::Probe probe("cycle.copy_out", -1, "Solve_etc", pt, nullptr, nullptr);
  if (gather)
    block::scatter_rows<M>(perm, L0.x.data(), x, m);
  else
    copy_n(L0.x.data(), x, len);
}

template void vcycle_block<0>(Hierarchy&, const double*, double*, Int, bool,
                              PhaseTimes*, WorkCounters*);
template void vcycle_block<1>(Hierarchy&, const double*, double*, Int, bool,
                              PhaseTimes*, WorkCounters*);

void vcycle(Hierarchy& h, const Vector& b, Vector& x, PhaseTimes* pt,
            WorkCounters* wc) {
  require(!h.levels.empty() && Int(b.size()) >= h.levels[0].n &&
              Int(x.size()) >= h.levels[0].n,
          "vcycle: vector size mismatch");
  vcycle_block<1>(h, b.data(), x.data(), 1, false, pt, wc);
}

void vcycle_multi(Hierarchy& h, const MultiVector& B, MultiVector& X,
                  PhaseTimes* pt, WorkCounters* wc) {
  require(!h.levels.empty(), "vcycle_multi: empty hierarchy");
  require(B.m == X.m && B.n == h.levels[0].n && X.n == h.levels[0].n,
          "vcycle_multi: shape mismatch");
  with_width(B.m, [&]<int M>() {
    vcycle_block<M>(h, B.data.data(), X.data.data(), B.m, false, pt, wc);
  });
}

}  // namespace hpamg

#include "amg/hierarchy.hpp"

#include <sstream>

#include <cmath>

#include "amg/cycle.hpp"
#include "amg/interp_classical.hpp"
#include "matrix/transpose.hpp"
#include "perfmodel/attrib.hpp"
#include "spgemm/rap.hpp"
#include "spgemm/spgemm.hpp"
#include "support/check.hpp"
#include "support/fault.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/trace.hpp"

namespace hpamg {

/// Rows whose diagonal entry is missing, zero, or non-finite — a coarse
/// operator with such rows breaks the smoothers (divide by diag) and the
/// dense LU, so setup caps the hierarchy and regularizes instead.
Int count_degenerate_diag(const CSRMatrix& A, double* max_abs_diag) {
  Int bad = 0;
  double dmax = 0.0;
  for (Int i = 0; i < A.nrows; ++i) {
    double d = 0.0;
    for (Int k = A.rowptr[i]; k < A.rowptr[i + 1]; ++k)
      if (A.colidx[k] == i) d = A.values[k];
    if (d == 0.0 || !std::isfinite(d))
      ++bad;
    else
      dmax = std::max(dmax, std::abs(d));
  }
  if (max_abs_diag) *max_abs_diag = dmax;
  return bad;
}

/// Returns A with every missing/zero/non-finite diagonal entry replaced by
/// `shift` (structurally inserting it when absent). Off-diagonal
/// non-finite entries are zeroed — the regularized operator must be usable
/// by a dense LU. Only called on (small) coarse operators after a
/// degeneracy was detected; correctness over speed.
CSRMatrix regularize_diagonal(const CSRMatrix& A, double shift) {
  std::vector<Triplet> trip;
  trip.reserve(std::size_t(A.nnz()) + std::size_t(A.nrows));
  std::vector<char> has_good_diag(std::size_t(A.nrows), 0);
  for (Int i = 0; i < A.nrows; ++i)
    for (Int k = A.rowptr[i]; k < A.rowptr[i + 1]; ++k) {
      double v = A.values[k];
      if (!std::isfinite(v)) v = 0.0;
      if (A.colidx[k] == i) {
        if (v == 0.0) continue;  // re-inserted below as the shift
        has_good_diag[std::size_t(i)] = 1;
      }
      trip.push_back({i, A.colidx[k], v});
    }
  for (Int i = 0; i < A.nrows; ++i)
    if (!has_good_diag[std::size_t(i)]) trip.push_back({i, i, shift});
  return CSRMatrix::from_triplets(A.nrows, A.ncols, std::move(trip));
}

namespace {

/// Interpolation dispatch for a single (non-2-stage) level.
CSRMatrix build_interp(const CSRMatrix& A, const CSRMatrix& S,
                       const CFMarker& cf, const AMGOptions& o,
                       InterpKind kind, WorkCounters* wc) {
  const bool optimized = o.variant == Variant::kOptimized;
  switch (kind) {
    case InterpKind::kDirect: {
      CSRMatrix P = direct_interp(A, S, cf, wc);
      return truncate_interpolation(P, o.truncation, wc);
    }
    case InterpKind::kMultipass: {
      MultipassOptions mo;
      mo.truncation = o.truncation;
      return multipass_interp(A, S, cf, mo, wc);
    }
    case InterpKind::kExtPI:
    case InterpKind::kExtPI2Stage:
    default: {
      ExtPIOptions eo;
      eo.truncation = o.truncation;
      eo.fused_truncation = optimized;  // baseline truncates in a 2nd pass
      // The optimized hierarchy feeds CF-permuted operators (coarse-first
      // markers), enabling the §3.1.2 partitioned-row builder.
      bool coarse_first = true;
      Int nc2 = 0;
      while (nc2 < Int(cf.size()) && cf[nc2] > 0) ++nc2;
      for (Int i = nc2; i < Int(cf.size()) && coarse_first; ++i)
        if (cf[i] > 0) coarse_first = false;
      if (optimized && o.partitioned_interp && coarse_first)
        return extpi_interp_partitioned(A, S, cf, eo, wc);
      return extpi_interp(A, S, cf, eo, wc);
    }
  }
}

/// 2-stage extended+i for aggressive coarsening (Table 4's 2s-ei):
/// stage 1 interpolates to the first-pass C points, stage 2 interpolates
/// those to the aggressively-selected C points on the intermediate
/// operator; the composite P1*P2 is truncated at every stage.
CSRMatrix build_interp_2stage(const CSRMatrix& A, const CSRMatrix& S,
                              const CFMarker& cf_final,
                              const CFMarker& cf_first, const AMGOptions& o,
                              WorkCounters* wc) {
  const bool optimized = o.variant == Variant::kOptimized;
  ExtPIOptions eo;
  eo.truncation = o.truncation;
  eo.fused_truncation = optimized;

  CSRMatrix P1 = build_interp(A, S, cf_first, o, InterpKind::kExtPI, wc);
  CSRMatrix P1T = optimized ? transpose_parallel(P1, wc)
                            : transpose_serial(P1, wc);
  CSRMatrix A1 = optimized ? rap_fused_rowwise(P1T, A, P1, {}, wc)
                           : rap_fused_hypre(P1T, A, P1, wc);
  A1.sort_rows();
  CSRMatrix S1 = strength_matrix(A1, o.strength, wc);

  // Markers on the C1-compact index space: coarse iff aggressively coarse.
  CFMarker cf2;
  cf2.reserve(A1.nrows);
  for (std::size_t i = 0; i < cf_first.size(); ++i)
    if (cf_first[i] > 0) cf2.push_back(cf_final[i] > 0 ? 1 : -1);
  require(Int(cf2.size()) == A1.nrows, "2-stage: C1 index space mismatch");

  CSRMatrix P2 = extpi_interp(A1, S1, cf2, eo, wc);
  CSRMatrix P = optimized ? spgemm_onepass(P1, P2, {}, wc)
                          : spgemm_twopass(P1, P2, wc);
  return truncate_interpolation(P, o.truncation, wc);
}

/// (Re)builds level L's smoother plan for o.smoother / o.variant from L.A.
/// The optimized hybrid GS plan reads L.A in place, so every assignment of
/// L.A is followed by this.
void build_smoother_plans(Level& L, const AMGOptions& o) {
  L.gs_base.reset();
  L.gs_opt.reset();
  L.lexgs.reset();
  L.mcgs.reset();
  switch (o.smoother) {
    case SmootherKind::kHybridGS:
      if (o.variant == Variant::kOptimized)
        L.gs_opt = std::make_unique<HybridGSOptimized>(L.A, o.gs_partitions);
      else
        L.gs_base = std::make_unique<HybridGSBaseline>(L.A, o.gs_partitions);
      break;
    case SmootherKind::kLexGS:
      L.lexgs = std::make_unique<LexGS>(L.A);
      break;
    case SmootherKind::kMultiColorGS:
      L.mcgs = std::make_unique<MultiColorGS>(L.A);
      break;
    case SmootherKind::kJacobi:
      break;
  }
}

/// The per-level step of setup and refresh, once L.A is in place: the
/// Galerkin product for the variant (returned sorted, the next level's
/// operator) and L's smoother plans. Setup hands over the new interpolation
/// P to keep (optimized: Pf = P[nc:, :] and Pf^T, the solve's R; baseline:
/// P); refresh passes none and reuses the frozen transfers.
CSRMatrix level_step(const AMGOptions& o, Level& L, int l, CSRMatrix* P,
                     PhaseTimes* pt, WorkCounters* wc) {
  CSRMatrix A_next;
  {
    attrib::Probe rap("setup.rap", l, "RAP", pt, nullptr, wc);
    if (o.variant == Variant::kOptimized) {
      if (P) {
        L.Pf = csr_block(*P, L.nc, L.n, 0, L.nc);
        L.PfT = transpose_parallel(L.Pf, wc);
      }
      A_next = rap_cf_block(L.A, L.Pf, L.PfT, L.nc, {}, wc);
    } else {
      if (P) L.P = std::move(*P);
      CSRMatrix R = transpose_serial(L.P, wc);  // baseline: not kept
      A_next = rap_fused_hypre(R, L.A, L.P, wc);
    }
    A_next.sort_rows();
  }
  HPAMG_CHECK_INVARIANT(
      check::Depth::kCheap,
      check::csr_well_formed(A_next, "Galerkin coarse operator"));
  HPAMG_CHECK_INVARIANT(check::Depth::kFull,
                        check::csr_finite(A_next, "Galerkin coarse operator"));
  attrib::Probe plan("setup.smoother_plan", l, "Setup_etc", pt, nullptr, wc);
  build_smoother_plans(L, o);
  return A_next;
}

/// The coarsest-level step of setup and refresh: installs A as the last
/// level's operator, its degenerate diagonals regularized (with an event),
/// and factors it, or builds smoother plans when it is too large for a
/// dense LU.
void coarsest_step(Hierarchy& h, CSRMatrix A, PhaseTimes* pt,
                   WorkCounters* wc) {
  Level& C = h.levels.back();
  attrib::Probe probe("setup.coarse_solver", int(h.num_levels() - 1),
                      "Setup_etc", pt, nullptr, wc);
  double dmax = 0.0;
  if (Int bad = count_degenerate_diag(A, &dmax); bad > 0) {
    // Regularized coarse solve: shift the broken diagonals so the LU /
    // smoother stay finite. The coarsest operator is a preconditioner
    // component, so a tiny perturbation costs iterations, not
    // correctness; the incident is recorded for the `status` block.
    const double shift = dmax > 0.0 ? 1e-8 * dmax : 1.0;
    A = regularize_diagonal(A, shift);
    std::string ev = "regularized coarse solve: " + std::to_string(bad) +
                     " degenerate diagonal(s) shifted on the coarsest "
                     "level";
    HPAMG_LOG_WARN("amg setup: %s", ev.c_str());
    h.events.push_back(std::move(ev));
  }
  C.A = std::move(A);
  C.n = C.A.nrows;
  if (C.n <= h.opts.coarse_size * 4 && C.n <= 2048) {
    h.coarse_lu = LUSolver(C.A);
  } else {
    // Too large for a dense factorization (max_levels capped the
    // hierarchy): approximate with smoothing sweeps, as the paper notes
    // is common for the coarsest level.
    build_smoother_plans(C, h.opts);
  }
}

}  // namespace

double Hierarchy::operator_complexity() const {
  if (levels.empty() || levels[0].A.nnz() == 0) return 0.0;
  double total = 0.0;
  for (const Level& l : levels) total += double(l.A.nnz());
  return total / double(levels[0].A.nnz());
}

double Hierarchy::grid_complexity() const {
  if (levels.empty() || levels[0].n == 0) return 0.0;
  double total = 0.0;
  for (const Level& l : levels) total += double(l.n);
  return total / double(levels[0].n);
}

std::vector<LevelMemory> Hierarchy::memory_by_level() const {
  std::vector<LevelMemory> mem(levels.size());
  for (std::size_t l = 0; l < levels.size(); ++l) {
    const Level& L = levels[l];
    LevelMemory& m = mem[l];
    m.operator_bytes = L.A.footprint_bytes();
    m.interp_bytes = L.P.footprint_bytes() + L.Pf.footprint_bytes() +
                     L.PfT.footprint_bytes();
    if (L.gs_base) m.smoother_bytes += L.gs_base->footprint_bytes();
    if (L.gs_opt) m.smoother_bytes += L.gs_opt->footprint_bytes();
    if (L.lexgs) m.smoother_bytes += L.lexgs->footprint_bytes();
    if (L.mcgs) m.smoother_bytes += L.mcgs->footprint_bytes();
    if (l + 1 == levels.size()) m.smoother_bytes += coarse_lu.footprint_bytes();
    m.workspace_bytes =
        (L.b.size() + L.x.size() + L.temp.size() + L.r.size() +
         L.rc_pre.size()) * sizeof(double) +
        L.cf.size() * sizeof(signed char) +
        (L.perm.perm.size() + L.perm.inv.size()) * sizeof(Int);
  }
  return mem;
}

Status check_hierarchy(const Hierarchy& h) {
  using check::detail::fail;
  const bool optimized = h.opts.variant == Variant::kOptimized;
  for (std::size_t l = 0; l < h.levels.size(); ++l) {
    const Level& L = h.levels[l];
    const std::string where = "hierarchy level " + std::to_string(l);
    if (Status s = check::csr_well_formed(L.A, "level operator");
        s != Status::kOk)
      return fail(s, where + ": " + check::last_error());
    if (L.A.nrows != L.n || L.A.ncols != L.n)
      return fail(Status::kInvalidInput,
                  "check: " + where + ": operator is " +
                      std::to_string(L.A.nrows) + " x " +
                      std::to_string(L.A.ncols) + ", expected square " +
                      std::to_string(L.n));
    // The optimized GS plan reads the level operator in place.
    if (L.gs_opt && !L.gs_opt->views(L.A))
      return fail(Status::kInvalidInput,
                  "check: " + where +
                      ": hybrid GS plan does not view the level operator");
    const bool coarsest = l + 1 == h.levels.size();
    if (coarsest) continue;
    // P/R dimension agreement with this level's (n, nc).
    if (optimized) {
      if (Status s =
              check::interp_shape(L.Pf, L.n - L.nc, L.nc, "fine block Pf");
          s != Status::kOk)
        return fail(s, where + ": " + check::last_error());
      if (Status s = check::interp_shape(L.PfT, L.nc, L.n - L.nc,
                                         "kept transpose PfT");
          s != Status::kOk)
        return fail(s, where + ": " + check::last_error());
    } else {
      if (Status s = check::interp_shape(L.P, L.n, L.nc, "interpolation P");
          s != Status::kOk)
        return fail(s, where + ": " + check::last_error());
      if (L.cf.size() != std::size_t(L.n))
        return fail(Status::kInvalidInput,
                    "check: " + where + ": CF marker has " +
                        std::to_string(L.cf.size()) + " entries, expected " +
                        std::to_string(L.n));
    }
    // Galerkin size chain: the next level solves the coarse space.
    if (h.levels[l + 1].n != L.nc)
      return fail(Status::kInvalidInput,
                  "check: " + where + ": Galerkin chain broken — next "
                  "level has " + std::to_string(h.levels[l + 1].n) +
                      " rows, expected nc = " + std::to_string(L.nc));
  }
  return Status::kOk;
}

Hierarchy build_hierarchy(const CSRMatrix& A_in, const AMGOptions& opts) {
  TRACE_SPAN("amg.setup", "phase");
  require(A_in.nrows == A_in.ncols, "build_hierarchy: matrix must be square");
  Hierarchy h;
  h.opts = opts;
  const bool optimized = opts.variant == Variant::kOptimized;
  WorkCounters* wc = &h.setup_work;
  PhaseTimes* pt = &h.setup_times;

  CSRMatrix A_work = A_in;
  {
    attrib::Probe probe("setup.sort", 0, "Setup_etc", pt, nullptr, wc);
    if (!A_work.rows_sorted()) A_work.sort_rows();
  }

  for (Int l = 0; l < opts.max_levels; ++l) {
    if (fault::enabled()) fault::maybe_fail_alloc("amg.setup.alloc");
    const Int n = A_work.nrows;
    const bool last = (l == opts.max_levels - 1) || n <= opts.coarse_size;
    if (last) break;

    // ---- Strength + coarsening ----
    attrib::Probe coarsen("setup.strength_coarsen", int(l),
                          "Strength+Coarsen", pt, nullptr, wc);
    CSRMatrix S = optimized ? strength_matrix(A_work, opts.strength, wc)
                            : strength_matrix_serial(A_work, opts.strength, wc);
    CSRMatrix ST =
        optimized ? transpose_parallel(S, wc) : transpose_serial(S, wc);
    PmisOptions po;
    po.seed = opts.seed + std::uint64_t(l) * 0x1000193;
    po.rng = optimized ? opts.rng : RngKind::kSequential;
    const bool aggressive = l < opts.num_aggressive_levels &&
                            (opts.interp == InterpKind::kMultipass ||
                             opts.interp == InterpKind::kExtPI2Stage);
    CFMarker cf, cf_first;
    if (aggressive)
      cf = pmis_aggressive(S, ST, po, &cf_first, wc);
    else
      cf = pmis_coarsen(S, ST, po, wc);
    Int nc = count_coarse(cf);
    coarsen.finish();

    if (nc == 0 || nc == n) break;  // cannot coarsen further

    Level L;
    L.n = n;
    L.nc = nc;

    // ---- CF reordering (optimized only; charged to Setup_etc) ----
    CSRMatrix S_work = std::move(S);
    if (optimized) {
      attrib::Probe probe("setup.permute", int(l), "Setup_etc", pt, nullptr,
                          wc);
      L.perm = cf_permutation(cf);
      L.A = permute_symmetric(A_work, L.perm);
      S_work = permute_symmetric(S_work, L.perm);
      CFMarker cf_perm(n);
      for (Int i = 0; i < n; ++i) cf_perm[i] = i < nc ? 1 : -1;
      if (aggressive) {
        CFMarker cff(n);
        for (Int i = 0; i < n; ++i) cff[i] = cf_first[L.perm.perm[i]];
        cf_first = std::move(cff);
      }
      cf = std::move(cf_perm);
    } else {
      L.A = std::move(A_work);
      L.cf = cf;
    }

    // ---- Interpolation ----
    attrib::Probe interp("setup.interp", int(l), "Interp", pt, nullptr, wc);
    CSRMatrix P;
    const InterpKind kind =
        aggressive ? opts.interp
                   : (opts.interp == InterpKind::kExtPI2Stage ||
                              opts.interp == InterpKind::kMultipass
                          ? InterpKind::kExtPI
                          : opts.interp);
    if (aggressive && kind == InterpKind::kExtPI2Stage)
      P = build_interp_2stage(L.A, S_work, cf, cf_first, opts, wc);
    else
      P = build_interp(L.A, S_work, cf, opts, kind, wc);
    interp.finish();
    HPAMG_CHECK_INVARIANT(check::Depth::kCheap,
                          check::interp_shape(P, n, nc, "level interp P"));

    // ---- Galerkin product and smoother plans ----
    CSRMatrix A_next = level_step(opts, L, int(l), &P, pt, wc);
    h.stats.push_back(
        {L.n, L.A.nnz(), L.nc, optimized ? L.Pf.nnz() + nc : L.P.nnz()});

    // ---- Degenerate coarse operator -> cap the hierarchy here ----
    // A Galerkin product with zero/non-finite diagonal rows cannot be
    // smoothed or factored; descending further only compounds it. Stop
    // coarsening and let the coarsest-level step regularize.
    bool cap_levels = false;
    if (Int bad = count_degenerate_diag(A_next, nullptr); bad > 0) {
      cap_levels = true;
      std::string ev = "degenerate coarse operator below level " +
                       std::to_string(l) + ": " + std::to_string(bad) +
                       " row(s) with missing/zero/non-finite diagonal; "
                       "capping hierarchy";
      HPAMG_LOG_WARN("amg setup: %s", ev.c_str());
      h.events.push_back(std::move(ev));
    }
    h.levels.push_back(std::move(L));
    A_work = std::move(A_next);
    if (cap_levels) break;
  }

  // ---- Coarsest level ----
  h.levels.emplace_back();
  coarsest_step(h, std::move(A_work), pt, wc);
  h.stats.push_back({h.levels.back().n, h.levels.back().A.nnz(), 0, 0});
  ensure_multi_workspace(h, 1);  // the solve workspace, one column wide

  // Whole-hierarchy consistency audit (P/R dims, Galerkin size chain) —
  // compiled out unless -DHPAMG_CHECK=ON, and the full sweep only runs at
  // HPAMG_CHECK_LEVEL=2.
  HPAMG_CHECK_INVARIANT(check::Depth::kFull, check_hierarchy(h));

  // Per-level hierarchy gauges for the metrics registry (stencil growth =
  // nnz/row of the level relative to the finest level — the Table 2
  // "operator densification" effect). Gated: the name formatting below
  // allocates, so a disabled run must not reach it.
  if (metrics::enabled()) {
    metrics::gauge("amg.num_levels").set_always(double(h.num_levels()));
    metrics::gauge("amg.operator_complexity")
        .set_always(h.operator_complexity());
    metrics::gauge("amg.grid_complexity").set_always(h.grid_complexity());
    const double row0 = h.stats.empty() || h.stats[0].rows == 0
                            ? 0.0
                            : double(h.stats[0].nnz) / double(h.stats[0].rows);
    for (std::size_t l = 0; l < h.stats.size(); ++l) {
      const LevelStats& s = h.stats[l];
      const std::string p = "amg.level" + std::to_string(l) + ".";
      metrics::gauge(p + "rows").set_always(double(s.rows));
      const double npr = s.rows > 0 ? double(s.nnz) / double(s.rows) : 0.0;
      metrics::gauge(p + "stencil_growth")
          .set_always(row0 > 0.0 ? npr / row0 : 0.0);
    }
  }
  return h;
}

void refresh_hierarchy(Hierarchy& h, const CSRMatrix& A) {
  require(!h.levels.empty(), "refresh_values: empty hierarchy");
  require(A.nrows == h.levels[0].n && A.nrows == A.ncols,
          "refresh_values: size mismatch");
  CSRMatrix A_work = A;
  if (!A_work.rows_sorted()) A_work.sort_rows();
  for (Int l = 0; l + 1 < h.num_levels(); ++l) {
    Level& L = h.levels[l];
    CSRMatrix A_level = L.perm.perm.empty()
                            ? std::move(A_work)
                            : permute_symmetric(A_work, L.perm);
    require(l > 0 || (A_level.rowptr == L.A.rowptr &&
                      A_level.colidx == L.A.colidx),
            "refresh_values: sparsity pattern differs from setup");
    L.A = std::move(A_level);
    A_work = level_step(h.opts, L, int(l), nullptr, nullptr, nullptr);
  }
  coarsest_step(h, std::move(A_work), nullptr, nullptr);
}

std::string hierarchy_summary(const Hierarchy& h) {
  std::ostringstream os;
  os << "lvl        rows          nnz  nnz/row     coarse\n";
  for (std::size_t l = 0; l < h.stats.size(); ++l) {
    const LevelStats& s = h.stats[l];
    os << l << "  " << s.rows << "  " << s.nnz << "  "
       << (s.rows ? double(s.nnz) / s.rows : 0.0) << "  " << s.coarse << "\n";
  }
  os << "operator complexity: " << h.operator_complexity()
     << ", grid complexity: " << h.grid_complexity() << "\n";
  return os.str();
}

}  // namespace hpamg

#include "dist/dist_amg.hpp"

#include <algorithm>
#include <cmath>

#include "amg/solver.hpp"
#include "amg/telemetry.hpp"
#include "dist/dist_transpose.hpp"
#include "matrix/vector_ops.hpp"
#include "perfmodel/attrib.hpp"
#include "support/check.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/live.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/trace.hpp"

namespace hpamg {

namespace {
constexpr int kTagYT = 7501;
}

double DistHierarchy::operator_complexity() const {
  if (stats.empty() || stats[0].nnz == 0) return 0.0;
  double total = 0.0;
  for (const LevelStats& s : stats) total += double(s.nnz);
  return total / double(stats[0].nnz);
}

double DistHierarchy::grid_complexity() const {
  if (stats.empty() || stats[0].rows == 0) return 0.0;
  double total = 0.0;
  for (const LevelStats& s : stats) total += double(s.rows);
  return total / double(stats[0].rows);
}

SolveReport DistHierarchy::report(const SolveResult* sr) const {
  // This rank's local footprints (global stats, local bytes — the per-rank
  // memory is what Table 2's per-node numbers mean).
  std::vector<LevelMemory> mem(levels.size());
  for (std::size_t l = 0; l < levels.size(); ++l) {
    const DistLevel& L = levels[l];
    LevelMemory& m = mem[l];
    m.operator_bytes = L.A.footprint_bytes();
    m.interp_bytes =
        L.P.footprint_bytes() + (L.has_R ? L.R.footprint_bytes() : 0);
    m.smoother_bytes = L.inv_diag.size() * sizeof(double) +
                       (L.c_rows.size() + L.f_rows.size()) * sizeof(Int) +
                       L.cf.size() * sizeof(signed char);
    if (l + 1 == levels.size()) m.smoother_bytes += coarse_lu.footprint_bytes();
    m.workspace_bytes = (L.b.size() + L.x.size() + L.r.size() +
                         L.x_ext.size() + L.temp.size()) * sizeof(double);
  }
  SolveReport rep =
      setup_report("fgmres+amg", opts.variant, operator_complexity(),
                   grid_complexity(), stats, mem, setup_times, setup_work,
                   events);
  rep.has_comm = true;
  rep.setup_comm = setup_comm;
  if (sr) fill_solve_report(rep, *sr);
  return rep;
}

namespace {

/// The one local distributed-SpMV body, on n x m row-major blocks (M as in
/// with_width): y = diag * x + offd * x_ext.
template <int M>
void dist_spmv_local(const DistMatrix& A, const double* x,
                     const double* x_ext, double* y, Int m) {
  constexpr Int W = M ? M : kMaxRhsBlock;
  const Int mm = M ? M : m;
  const Int n = A.local_rows();
  for (Int j0 = 0; j0 < mm; j0 += W) {
    const Int bw = M ? M : std::min(W, mm - j0);
    for (Int i = 0; i < n; ++i) {
      double acc[W];
      for (Int j = 0; j < bw; ++j) acc[j] = 0.0;
      for (Int k = A.diag.rowptr[i]; k < A.diag.rowptr[i + 1]; ++k) {
        const double a = A.diag.values[k];
        const double* xr = x + std::size_t(A.diag.colidx[k]) * mm + j0;
        for (Int j = 0; j < bw; ++j) acc[j] += a * xr[j];
      }
      for (Int k = A.offd.rowptr[i]; k < A.offd.rowptr[i + 1]; ++k) {
        const double a = A.offd.values[k];
        const double* xr = x_ext + std::size_t(A.offd.colidx[k]) * mm + j0;
        for (Int j = 0; j < bw; ++j) acc[j] += a * xr[j];
      }
      double* yr = y + std::size_t(i) * mm + j0;
      for (Int j = 0; j < bw; ++j) yr[j] = acc[j];
    }
  }
}

}  // namespace

void dist_spmv(simmpi::Comm& comm, const DistMatrix& A, HaloExchange& halo,
               const Vector& x, Vector& x_ext, Vector& y) {
  TRACE_SPAN("dist.spmv", "kernel", "rows", std::int64_t(A.local_rows()));
  halo.exchange(x, x_ext);
  y.resize(A.local_rows());
  dist_spmv_local<1>(A, x.data(), x_ext.data(), y.data(), 1);
}

void dist_spmv(simmpi::Comm& comm, const DistMatrix& A, HaloExchange& halo,
               const MultiVector& X, MultiVector& X_ext, MultiVector& Y) {
  TRACE_SPAN("dist.spmv", "kernel", "rows", std::int64_t(A.local_rows()),
             "cols", std::int64_t(X.m));
  halo.exchange(X, X_ext);
  Y.resize(A.local_rows(), X.m);
  with_width(X.m, [&]<int M>() {
    dist_spmv_local<M>(A, X.data.data(), X_ext.data.data(), Y.data.data(),
                       X.m);
  });
}

void dist_residual(simmpi::Comm& comm, const DistMatrix& A,
                   HaloExchange& halo, const Vector& x, Vector& x_ext,
                   const Vector& b, Vector& r) {
  dist_spmv(comm, A, halo, x, x_ext, r);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
}

void dist_spmv_transpose(simmpi::Comm& comm, const DistMatrix& A,
                         const Vector& x, Vector& y) {
  TRACE_SPAN("dist.spmv_t", "kernel", "rows", std::int64_t(A.local_rows()));
  // y (over A's columns partition) = diag^T x locally; offd^T contributions
  // are partial sums for remote owners, shipped as (global index, value).
  const Int n = A.local_rows();
  y.assign(A.local_cols(), 0.0);
  for (Int i = 0; i < n; ++i)
    for (Int k = A.diag.rowptr[i]; k < A.diag.rowptr[i + 1]; ++k)
      y[A.diag.colidx[k]] += A.diag.values[k] * x[i];

  std::vector<double> partial(A.colmap.size(), 0.0);
  for (Int i = 0; i < n; ++i)
    for (Int k = A.offd.rowptr[i]; k < A.offd.rowptr[i + 1]; ++k)
      partial[A.offd.colidx[k]] += A.offd.values[k] * x[i];

  struct Contribution {
    Long gcol;
    double value;
  };
  const int nranks = comm.size();
  std::vector<std::vector<Contribution>> outbox(nranks);
  for (std::size_t j = 0; j < A.colmap.size(); ++j) {
    if (partial[j] == 0.0) continue;
    outbox[A.col_owner(A.colmap[j])].push_back({A.colmap[j], partial[j]});
  }
  for (int r = 0; r < nranks; ++r)
    if (r != comm.rank()) comm.send_vec(r, kTagYT, outbox[r]);
  const Long c0 = A.first_col();
  for (int r = 0; r < nranks; ++r) {
    if (r == comm.rank()) continue;
    std::vector<Contribution> in = comm.recv_vec<Contribution>(r, kTagYT);
    for (const Contribution& c : in) y[Int(c.gcol - c0)] += c.value;
  }
}

namespace {

/// Hybrid GS sweep over the listed rows: Gauss-Seidel within the rank
/// (reads freshly updated local x), Jacobi across ranks (x_ext is the halo
/// snapshot taken before the sweep).
void gs_rows(const DistMatrix& A, const std::vector<double>& inv_diag,
             const Vector& b, Vector& x, const Vector& x_ext,
             const std::vector<Int>& rows_list) {
  for (Int i : rows_list) {
    double acc = b[i];
    for (Int k = A.diag.rowptr[i]; k < A.diag.rowptr[i + 1]; ++k) {
      const Int j = A.diag.colidx[k];
      if (j != i) acc -= A.diag.values[k] * x[j];
    }
    for (Int k = A.offd.rowptr[i]; k < A.offd.rowptr[i + 1]; ++k)
      acc -= A.offd.values[k] * x_ext[A.offd.colidx[k]];
    x[i] = acc * inv_diag[i];
  }
}

/// Baseline: one pass over all rows with the per-row CF branch.
void gs_branchy(const DistMatrix& A, const std::vector<double>& inv_diag,
                const Vector& b, Vector& x, const Vector& x_ext,
                const CFMarker& cf, signed char want) {
  for (Int i = 0; i < A.local_rows(); ++i) {
    if ((want > 0) != (cf[i] > 0)) continue;
    double acc = b[i];
    for (Int k = A.diag.rowptr[i]; k < A.diag.rowptr[i + 1]; ++k) {
      const Int j = A.diag.colidx[k];
      if (j != i) acc -= A.diag.values[k] * x[j];
    }
    for (Int k = A.offd.rowptr[i]; k < A.offd.rowptr[i + 1]; ++k)
      acc -= A.offd.values[k] * x_ext[A.offd.colidx[k]];
    x[i] = acc * inv_diag[i];
  }
}

void smooth_level(simmpi::Comm& comm, DistHierarchy& h, DistLevel& L,
                  const Vector& b, Vector& x, bool pre) {
  const bool optimized = h.opts.variant == Variant::kOptimized;
  for (Int s = 0; s < h.opts.num_sweeps; ++s) {
    // C-then-F for pre-smoothing, F-then-C for post; a halo refresh before
    // each sub-sweep (HYPRE's hybrid C-F relaxation communication pattern).
    for (int half = 0; half < 2; ++half) {
      const bool coarse_pass = pre ? (half == 0) : (half == 1);
      L.halo_A->exchange(x, L.x_ext);
      if (optimized)
        gs_rows(L.A, L.inv_diag, b, x, L.x_ext,
                coarse_pass ? L.c_rows : L.f_rows);
      else
        gs_branchy(L.A, L.inv_diag, b, x, L.x_ext, L.cf,
                   coarse_pass ? 1 : -1);
    }
  }
}


/// Analytic work estimate for `passes` streaming sweeps over a distributed
/// CSR operator. The dist kernels do not thread WorkCounters (they run
/// inside simmpi rank threads where per-call counting was never needed),
/// so roofline attribution estimates the traffic from the matrix shape:
/// values + colidx per nonzero, rowptr + input + output vector per row.
WorkCounters est_csr_pass(const DistMatrix& A, std::uint64_t passes) {
  const std::uint64_t nnz =
      std::uint64_t(A.diag.values.size()) + A.offd.values.size();
  const std::uint64_t rows = std::uint64_t(A.local_rows());
  WorkCounters wc;
  wc.flops = 2 * nnz * passes;
  wc.bytes_read = (nnz * 12 + rows * 12) * passes;
  wc.bytes_written = rows * 8 * passes;
  return wc;
}

void dist_vcycle_level(simmpi::Comm& comm, DistHierarchy& h, Int l,
                       PhaseTimes* pt) {
  TRACE_SPAN("cycle.level", std::int64_t(l));
  live::beat_phase("cycle.level", std::int64_t(l));
  DistLevel& L = h.levels[l];
  double* slot =
      h.telemetry ? h.telemetry->level_slot(std::size_t(l)) : nullptr;
  // Every step is probed in this rank's CPU time.
  auto probe = [&](const char* kernel, const char* phase) {
    return attrib::Probe(kernel, int(l), phase, pt, slot, nullptr,
                         Clock::kCpu);
  };
  if (l == Int(h.levels.size()) - 1) {
    attrib::Probe p = probe("dist.coarse_solve", "Solve_etc");
    if (h.coarse_lu.size() > 0 &&
        h.coarse_lu.size() == Int(h.coarse_starts.back())) {
      // Coarsest: gather RHS to every rank, direct-solve, keep own slice.
      const std::uint64_t nc = std::uint64_t(h.coarse_lu.size());
      WorkCounters wc;
      wc.flops = 2 * nc * nc;  // two triangular solves
      wc.bytes_read = nc * nc * sizeof(double);
      wc.bytes_written = nc * sizeof(double);
      p.set_work(wc);
      Vector full_b = gather_vector(comm, L.b, h.coarse_starts);
      Vector full_x(full_b.size(), 0.0);
      h.coarse_lu.solve(full_b.data(), full_x.data());
      const Long c0 = h.coarse_starts[comm.rank()];
      for (Int i = 0; i < L.A.local_rows(); ++i) L.x[i] = full_x[c0 + i];
    } else {
      // Too large to replicate/factorize (max_levels capped the
      // hierarchy): approximate with distributed GS sweeps (paper §2).
      p.set_work(est_csr_pass(L.A, 8));
      std::fill(L.x.begin(), L.x.end(), 0.0);
      std::vector<Int> all_rows(L.A.local_rows());
      for (Int i = 0; i < L.A.local_rows(); ++i) all_rows[i] = i;
      for (int s = 0; s < 8; ++s) {
        L.halo_A->exchange(L.x, L.x_ext);
        gs_rows(L.A, L.inv_diag, L.b, L.x, L.x_ext, all_rows);
      }
    }
    return;
  }
  DistLevel& N = h.levels[l + 1];
  const bool optimized = h.opts.variant == Variant::kOptimized;

  {
    attrib::Probe p = probe("dist.gs", "GS");
    p.set_work(est_csr_pass(L.A, std::uint64_t(h.opts.num_sweeps)));
    smooth_level(comm, h, L, L.b, L.x, /*pre=*/true);
  }
  {
    attrib::Probe p = probe("dist.residual_restrict", "SpMV");
    WorkCounters est = est_csr_pass(L.A, 1);
    dist_residual(comm, L.A, *L.halo_A, L.x, L.x_ext, L.b, L.r);
    if (optimized && L.has_R) {
      est += est_csr_pass(L.R, 1);
      dist_spmv(comm, L.R, *L.halo_R, L.r, L.temp, N.b);
    } else {
      est += est_csr_pass(L.P, 1);
      dist_spmv_transpose(comm, L.P, L.r, N.b);
    }
    p.set_work(est);
  }
  std::fill(N.x.begin(), N.x.end(), 0.0);
  dist_vcycle_level(comm, h, l + 1, pt);
  {
    attrib::Probe p = probe("dist.prolong", "SpMV");
    p.set_work(est_csr_pass(L.P, 1));
    // x += P e  (halo on the coarse vector).
    dist_spmv(comm, L.P, *L.halo_P, N.x, L.temp, L.r);
    for (std::size_t i = 0; i < L.x.size(); ++i) L.x[i] += L.r[i];
  }
  {
    attrib::Probe p = probe("dist.gs", "GS");
    p.set_work(est_csr_pass(L.A, std::uint64_t(h.opts.num_sweeps)));
    smooth_level(comm, h, L, L.b, L.x, /*pre=*/false);
  }
}

/// The finalization every level shares: the smoother's inverse diagonal,
/// the halo of A, the work vectors, and the level's stats row (nnz summed
/// over ranks; `coarse_rows` is 0 on the coarsest level, which has no P).
void finalize_level(simmpi::Comm& comm, DistHierarchy& h, DistLevel& L,
                    Int coarse_rows, bool persistent) {
  const Int n = L.A.local_rows();
  L.inv_diag.assign(n, 1.0);
  for (Int i = 0; i < n; ++i)
    for (Int k = L.A.diag.rowptr[i]; k < L.A.diag.rowptr[i + 1]; ++k)
      if (L.A.diag.colidx[k] == i && L.A.diag.values[k] != 0.0)
        L.inv_diag[i] = 1.0 / L.A.diag.values[k];
  L.halo_A = std::make_unique<HaloExchange>(comm, L.A.colmap, L.A.row_starts,
                                            persistent);
  L.b.assign(n, 0.0);
  L.x.assign(n, 0.0);
  L.r.assign(n, 0.0);
  L.temp.assign(std::max<std::size_t>(n, 1), 0.0);
  h.stats.push_back(
      {Int(L.A.global_rows), 0, coarse_rows, L.P.nnz_local()});
  h.stats.back().nnz = comm.allreduce_sum(L.A.nnz_local());
}

}  // namespace

DistHierarchy dist_amg_setup(simmpi::Comm& comm, const DistMatrix& A_in,
                             const DistAMGOptions& opts) {
  TRACE_SPAN("dist.setup", "phase");
  // Per-rank input validation before any collective work: the local
  // diagonal block must be a valid square operator slice, and the
  // off-diagonal block must be finite. Throwing here (before the first
  // collective) means every rank either proceeds or rejects — a rank that
  // throws later poisons the simmpi world and unwinds its peers.
  A_in.diag.validate_system_matrix("dist_amg_setup (local diagonal block)");
  for (double v : A_in.offd.values)
    if (!std::isfinite(v))
      throw SolverError(Status::kInvalidInput,
                        "dist_amg_setup: non-finite off-diagonal entry");
  if (fault::enabled()) fault::maybe_fail_alloc("dist.setup.alloc");
  // Setup-entry ownership audit: partitions contiguous, colmap strictly
  // off-rank (rank-local, so running it on every rank is safe regardless
  // of depth).
  HPAMG_CHECK_INVARIANT(check::Depth::kCheap,
                        A_in.check_partition(comm.size()));
  DistHierarchy h;
  h.opts = opts;
  const bool optimized = opts.variant == Variant::kOptimized;
  const simmpi::CommStats comm_before = comm.stats();
  WorkCounters* wc = &h.setup_work;
  // One probe per setup phase, in this rank's CPU time.
  auto probe = [&](const char* kernel, const char* phase, Int level) {
    return attrib::Probe(kernel, int(level), phase, &h.setup_times, nullptr,
                         wc, Clock::kCpu);
  };

  DistSpgemmOptions so;
  so.variant = opts.variant;
  so.parallel_renumber = optimized;

  // Samples the cumulative setup work into the trace's "work" counter track
  // (one sample per phase; each sample carries both series).
  auto sample_work = [wc] {
    if (trace::enabled())
      trace::counter("work", "flops", std::int64_t(wc->flops), "bytes",
                     std::int64_t(wc->bytes_total()));
  };

  DistMatrix A = A_in;
  for (Int l = 0; l < opts.max_levels; ++l) {
    if (A.global_rows <= opts.coarse_size || l == opts.max_levels - 1) break;

    attrib::Probe coarsen =
        probe("setup.strength_coarsen", "Strength+Coarsen", l);
    simmpi::CommStats snap = comm.stats();
    DistMatrix S = dist_strength(A, opts.strength, optimized, wc);
    DistMatrix ST = dist_transpose(comm, S, optimized, wc);
    PmisOptions po;
    po.seed = opts.seed + std::uint64_t(l) * 0x1000193;
    const bool aggressive = l < opts.num_aggressive_levels &&
                            (opts.interp == InterpKind::kMultipass ||
                             opts.interp == InterpKind::kExtPI2Stage);
    CFMarker cf, cf_first;
    if (aggressive)
      cf = dist_pmis_aggressive(comm, S, ST, po, &cf_first, wc);
    else
      cf = dist_pmis(comm, S, ST, po, wc);
    CoarseNumbering cn = coarse_numbering(comm, cf);
    coarsen.finish();
    h.phase_comm["Strength+Coarsen"] += comm.stats().delta_since(snap);
    sample_work();
    if (cn.global_coarse == 0 || cn.global_coarse == A.global_rows) break;

    // ---- Interpolation ----
    attrib::Probe interp = probe("setup.interp", "Interp", l);
    snap = comm.stats();
    DistInterpOptions io;
    io.truncation = opts.truncation;
    io.fused_truncation = optimized;
    io.filtered_exchange = optimized;
    io.persistent = optimized;
    DistInterpInfo iinfo;
    DistMatrix P;
    if (aggressive && opts.interp == InterpKind::kMultipass) {
      P = dist_multipass_interp(comm, A, S, cf, cn, io, wc, &iinfo);
    } else if (aggressive && opts.interp == InterpKind::kExtPI2Stage) {
      // Stage 1: extended+i onto the first-pass C points.
      CoarseNumbering cn1 = coarse_numbering(comm, cf_first);
      DistMatrix P1 =
          dist_extpi_interp(comm, A, S, ST, cf_first, cn1, io, wc, &iinfo);
      DistMatrix A1 = dist_rap(comm, A, P1, so, wc);
      DistMatrix S1 = dist_strength(A1, opts.strength, optimized, wc);
      DistMatrix ST1 = dist_transpose(comm, S1, optimized, wc);
      // Stage 2 markers on the C1 index space (C1 points are A1's rows, in
      // local ascending order on each rank).
      CFMarker cf2;
      for (std::size_t i = 0; i < cf_first.size(); ++i)
        if (cf_first[i] > 0) cf2.push_back(cf[i] > 0 ? 1 : -1);
      CoarseNumbering cn2 = coarse_numbering(comm, cf2);
      DistMatrix P2 =
          dist_extpi_interp(comm, A1, S1, ST1, cf2, cn2, io, wc, &iinfo);
      P = dist_spgemm(comm, P1, P2, so, wc);
      // Truncation at the final stage.
      P = truncate_dist_interp(comm, P, cf, opts.truncation);
    } else {
      P = dist_extpi_interp(comm, A, S, ST, cf, cn, io, wc, &iinfo);
    }
    h.interp_exchange_bytes += iinfo.gathered_bytes;
    interp.finish();
    h.phase_comm["Interp"] += comm.stats().delta_since(snap);
    sample_work();

    // ---- RAP ----
    attrib::Probe rap = probe("setup.rap", "RAP", l);
    snap = comm.stats();
    DistLevel L;
    L.A = std::move(A);
    L.P = std::move(P);
    DistMatrix A_next =
        dist_rap(comm, L.A, L.P, so, wc, nullptr,
                 optimized ? &L.R : nullptr);
    // The serial level_step's Galerkin checks.
    HPAMG_CHECK_INVARIANT(check::Depth::kCheap,
                          A_next.check_partition(comm.size()));
    HPAMG_CHECK_INVARIANT(check::Depth::kCheap,
                          check::csr_well_formed(A_next.diag, "Galerkin diag"));
    HPAMG_CHECK_INVARIANT(check::Depth::kCheap,
                          check::csr_well_formed(A_next.offd, "Galerkin offd"));
    HPAMG_CHECK_INVARIANT(check::Depth::kFull,
                          check::csr_finite(A_next.diag, "Galerkin diag"));
    HPAMG_CHECK_INVARIANT(check::Depth::kFull,
                          check::csr_finite(A_next.offd, "Galerkin offd"));
    L.has_R = optimized;
    rap.finish();
    h.phase_comm["RAP"] += comm.stats().delta_since(snap);
    sample_work();

    // ---- Level finalization ----
    attrib::Probe finalize = probe("setup.finalize", "Setup_etc", l);
    L.cf = cf;
    if (optimized) {
      for (Int i = 0; i < L.A.local_rows(); ++i)
        (cf[i] > 0 ? L.c_rows : L.f_rows).push_back(i);
    }
    finalize_level(comm, h, L, Int(cn.global_coarse), optimized);
    L.halo_P = std::make_unique<HaloExchange>(comm, L.P.colmap,
                                              L.P.col_starts, optimized);
    if (L.has_R)
      L.halo_R = std::make_unique<HaloExchange>(comm, L.R.colmap,
                                                L.R.col_starts, optimized);
    finalize.finish();
    h.levels.push_back(std::move(L));
    A = std::move(A_next);
  }

  // Coarsest level: replicate and LU-factor.
  {
    attrib::Probe coarse =
        probe("setup.coarse_solver", "Setup_etc", Int(h.levels.size()));
    DistLevel L;
    L.A = std::move(A);
    h.coarse_starts = L.A.row_starts;
    CSRMatrix full = gather_csr(comm, L.A);
    // The check runs on the gathered operator, so every rank records the
    // same incident.
    if (std::string ev = regularize_coarsest(full); !ev.empty()) {
      if (comm.rank() == 0) HPAMG_LOG_WARN("dist setup: %s", ev.c_str());
      h.events.push_back(std::move(ev));
    }
    if (full.nrows <= 4096) h.coarse_lu = LUSolver(full);
    finalize_level(comm, h, L, 0, true);
    h.levels.push_back(std::move(L));
  }
  h.setup_comm = comm.stats().delta_since(comm_before);
  sample_work();
  // Halo-width gauges (rank 0's view): external columns and peer count of
  // each level's SpMV exchange — the per-level communication surface the
  // paper's strong-scaling discussion (§5.4) turns on. Gated: the name
  // formatting allocates.
  if (metrics::enabled() && comm.rank() == 0) {
    for (std::size_t l = 0; l < h.levels.size(); ++l) {
      if (!h.levels[l].halo_A) continue;
      const std::string p = "amg.level" + std::to_string(l) + ".";
      metrics::gauge(p + "halo_cols")
          .set_always(double(h.levels[l].halo_A->ext_size()));
      metrics::gauge(p + "halo_peers")
          .set_always(double(h.levels[l].halo_A->num_peers()));
    }
  }
  return h;
}

void dist_vcycle(simmpi::Comm& comm, DistHierarchy& h, const Vector& b,
                 Vector& x, PhaseTimes* pt) {
  TRACE_SPAN("dist.vcycle", "phase");
  DistLevel& L0 = h.levels[0];
  {
    attrib::Probe probe("dist.cycle_copy_in", -1, "Solve_etc", pt, nullptr,
                        nullptr, Clock::kCpu);
    copy(b, L0.b);
    copy(x, L0.x);
  }
  dist_vcycle_level(comm, h, 0, pt);
  attrib::Probe probe("dist.cycle_copy_out", -1, "Solve_etc", pt, nullptr,
                      nullptr, Clock::kCpu);
  copy(L0.x, x);
}

}  // namespace hpamg

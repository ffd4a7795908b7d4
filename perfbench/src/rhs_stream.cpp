// rhs_stream: one large anisotropic 3-D operator, set up once, then a
// seeded stream of right-hand sides served three ways side by side: `solve`
// one at a time (m=1), `solve_multi` in batches of m=8, and AMG-
// preconditioned `pcg` (m=1). Solve is nearly all of the time, so this
// workload carries the cycle, smoother, SpMV, transfer, BLAS1 and Krylov
// layers; setup does little.
#include "amg/cycle.hpp"
#include "amg/solver.hpp"
#include "amg/spmv.hpp"
#include "common.hpp"
#include "gen/stencil.hpp"
#include "krylov/krylov.hpp"
#include "support/metrics.hpp"

namespace pb {
namespace {

constexpr Int kNx = 40, kNy = 40, kNz = 40;
constexpr double kEpsZ = 0.1;  ///< weak z coupling: anisotropic operator
constexpr int kSetups = 11;
/// One stream pass: kSingles m=1 solves, kBatches m=8 batches, kPcg PCG.
constexpr int kSingles = 16, kBatches = 2, kBatchM = 8, kPcg = 4;
/// Passes for 200 solve calls, so that kTailSamples lie beyond p95. Per
/// pass the m=1 solves are most calls (p50) and the batches the slowest
/// 9% (p95).
constexpr int kMinPasses = 10;

std::uint64_t rhs_seed(std::uint64_t seed, int pass, int k) {
  return seed * 0x9E3779B97F4A7C15ULL + std::uint64_t(pass) * 7919ULL +
         std::uint64_t(k);
}

// ---------------------------------------------------------------------------
// Cycle layers: the traced run times hpamg::vcycle itself, and then the
// public kernels one V-cycle calls on each level, one call at a time on the
// built hierarchy's own workspace.
// ---------------------------------------------------------------------------

struct CycleBytes {
  double smooth = 0.0, spmv = 0.0;  ///< computed bytes per V-cycle
};

/// Computed traffic of one pass over A, a hybrid-GS sweep over all rows or
/// one residual SpMV: 12 bytes per stored entry (value + column) plus, per
/// row, the row pointer and three vector entries. No cache model.
double pass_bytes(const CSRMatrix& A) {
  return 12.0 * double(A.nnz()) + 28.0 * A.nrows;
}

CycleBytes cycle_bytes(const hpamg::Hierarchy& h) {
  CycleBytes c;
  for (Int l = 0; l + 1 < h.num_levels(); ++l) {
    // Pre- and post-smoothing, num_sweeps passes each.
    c.smooth += 2.0 * double(h.opts.num_sweeps) * pass_bytes(h.levels[l].A);
    c.spmv += pass_bytes(h.levels[l].A);
  }
  return c;
}

/// Times the kernels of one V-cycle level by level, `calls` calls each,
/// under spans named after their layer: on every level above the coarsest
/// one smoothing pass (C block, then F block), one residual SpMV, and one
/// restriction plus interpolation; on the coarsest the LU solve. A V-cycle
/// makes 2 * num_sweeps smoothing passes per level and one of each other
/// call. The CF-permutation gathers between levels are in amg.vcycle only.
/// Returns false for a hierarchy without the optimized hybrid-GS smoother
/// and coarse LU these calls assume.
bool time_cycle_kernels(hpamg::Hierarchy& h, int calls) {
  const Int last = h.num_levels() - 1;
  if (h.coarse_lu.size() != h.levels[last].n || h.levels[last].n == 0)
    return false;
  for (Int l = 0; l < last; ++l) {
    hpamg::Level& L = h.levels[l];
    if (!L.gs_opt) return false;
    for (int c = 0; c < calls; ++c) {
      Scope sc("amg.smooth");
      L.gs_opt->sweep(L.b, L.x, L.temp, 0, L.nc, true, false);
      L.gs_opt->sweep(L.b, L.x, L.temp, L.nc, L.n, true, false);
    }
    for (int c = 0; c < calls; ++c) {
      Scope sc("amg.spmv");
      hpamg::spmv_residual(L.A, L.x, L.b, L.r);
    }
    for (int c = 0; c < calls; ++c) {
      Scope sc("amg.transfer");
      hpamg::restrict_identity_block(L.PfT, L.r, L.rc_pre, L.nc);
      hpamg::interp_add_identity_block(L.Pf, L.rc_pre, L.x, L.nc);
    }
  }
  hpamg::Level& C = h.levels[last];
  for (int c = 0; c < calls; ++c) {
    Scope sc("amg.coarse_solve");
    h.coarse_lu.solve(C.b.data(), C.x.data());
  }
  return true;
}

struct Stream {
  CSRMatrix A;
  std::vector<double> singles, batches, pcgs;  ///< seconds per call
  std::vector<double> latencies;  ///< per solve call, any path
  long rhs_ok = 0;
};

hpamg::KrylovOptions pcg_options() {
  hpamg::KrylovOptions ko;
  ko.rtol = kRtol;
  ko.max_iterations = 500;
  return ko;
}

void run_stream_pass(hpamg::AMGSolver& s, Stream& st, std::uint64_t seed,
                     int pass, Outcome& o) {
  const CSRMatrix& A = st.A;
  const Int n = A.nrows;
  int k = 0;
  for (int i = 0; i < kSingles; ++i) {
    const Vector b = random_rhs(n, rhs_seed(seed, pass, k++));
    Vector x(n, 0.0);
    const double t0 = now_s();
    const hpamg::SolveResult r = s.solve(b, x, kRtol);
    const double dt = now_s() - t0;
    const bool ok = hpamg::status_ok(r.status) &&
                    residual_ok(relative_residual(A, b.data(), x.data()), kRtol);
    o.count(ok);
    st.rhs_ok += ok;
    st.singles.push_back(dt);
    st.latencies.push_back(dt);
  }
  for (int i = 0; i < kBatches; ++i) {
    hpamg::MultiVector B(n, kBatchM), X(n, kBatchM);
    for (int j = 0; j < kBatchM; ++j) {
      const Vector b = random_rhs(n, rhs_seed(seed, pass, k++));
      for (Int r = 0; r < n; ++r) B.at(r, j) = b[r];
    }
    const double t0 = now_s();
    const hpamg::MultiSolveResult r = s.solve_multi(B, X, kRtol);
    const double dt = now_s() - t0;
    for (int j = 0; j < kBatchM; ++j) {
      const bool ok =
          hpamg::status_ok(r.status) &&
          residual_ok(relative_residual(A, B.data.data() + j,
                                        X.data.data() + j, kBatchM),
                      kRtol);
      o.count(ok);
      st.rhs_ok += ok;
    }
    st.batches.push_back(dt);
    st.latencies.push_back(dt);
  }
  const hpamg::Preconditioner M = [&s](const Vector& r, Vector& z) {
    s.precondition(r, z);
  };
  for (int i = 0; i < kPcg; ++i) {
    const Vector b = random_rhs(n, rhs_seed(seed, pass, k++));
    Vector x(n, 0.0);
    const double t0 = now_s();
    const hpamg::KrylovResult r = hpamg::pcg(A, b, x, pcg_options(), M);
    const double dt = now_s() - t0;
    const bool ok = hpamg::status_ok(r.status) &&
                    residual_ok(relative_residual(A, b.data(), x.data()), kRtol);
    o.count(ok);
    st.rhs_ok += ok;
    st.pcgs.push_back(dt);
    st.latencies.push_back(dt);
  }
}

void traced_run(const RunConfig& cfg, Stream& st, Outcome& o);

}  // namespace

void run_rhs_stream(const RunConfig& cfg, Outcome& o) {
  Stream st;
  st.A = hpamg::lap3d_7pt(kNx, kNy, kNz, 1.0, kEpsZ);
  o.notes.push_back(
      "operator lap3d_7pt " + std::to_string(kNx) + "x" + std::to_string(kNy) +
      "x" + std::to_string(kNz) + " eps_z=0.1: " +
      std::to_string(st.A.nrows) + " rows, working set " +
      std::to_string(long(st.A.footprint_bytes() + 16.0 * st.A.nrows)) +
      " bytes (matrix + two vectors)");
  if (cfg.trace) return traced_run(cfg, st, o);

  const double start = now_s();
  std::vector<double> setups;
  std::optional<hpamg::AMGSolver> s;
  for (int i = 0; i < kSetups; ++i) {
    s.reset();
    const double t0 = now_s();
    s.emplace(st.A, table3(0.25));
    setups.push_back(now_s() - t0);
  }
  const double stream_start = now_s();
  for (int pass = 0;
       keep_going(pass < kMinPasses, start, cfg, st.latencies); ++pass)
    run_stream_pass(*s, st, cfg.seed, pass, o);
  const double wall = now_s() - stream_start;

  const double setup = median(setups), solve = median(st.singles);
  o.set("setup_s", setup);
  o.set("solve_s", solve);
  o.set("time_to_solution_s", setup + solve);
  // Rates from median call times: one slow call does not move them.
  o.set("rhs_per_s", 1.0 / solve);
  o.set("batched_rhs_per_s", kBatchM / median(st.batches));
  o.set("krylov_rhs_per_s", 1.0 / median(st.pcgs));
  if (!add_latency(st.latencies, wall, st.rhs_ok, o)) o.broken = true;
  o.set("peak_rss_bytes", double(hpamg::metrics::peak_rss_bytes()));
}

namespace {

constexpr int kTracedSolves = 4;
constexpr int kTracedCycles = 8;  ///< vcycle and vcycle_multi calls timed
constexpr int kKernelCalls = 20;  ///< calls per kernel and level

void traced_run(const RunConfig& cfg, Stream& st, Outcome& o) {
  const CSRMatrix& A = st.A;
  const Int n = A.nrows;
  tracer().on = true;
  std::optional<hpamg::AMGSolver> s;
  {
    Scope sc("amg.setup");
    s.emplace(A, table3(0.25));
  }
  hpamg::Hierarchy& h = s->hierarchy();
  replay_setup_layers(h);
  add_memory(h, o);
  o.set("amg.operator_complexity", s->operator_complexity());
  tracer().on = false;

  // Tracing overhead: the same m=1 solves without and with spans.
  std::vector<double> untraced, traced;
  long iterations = 0;
  for (int pass = 0; pass < 2; ++pass) {
    tracer().on = pass == 1;
    for (int i = 0; i < kTracedSolves; ++i) {
      const Vector b = random_rhs(n, rhs_seed(cfg.seed, 0, i));
      Vector x(n, 0.0);
      const double t0 = now_s();
      hpamg::SolveResult r;
      {
        Scope sc("amg.solve");
        r = s->solve(b, x, kRtol);
      }
      (pass == 1 ? traced : untraced).push_back(now_s() - t0);
      iterations += r.iterations;
      o.count(hpamg::status_ok(r.status) &&
              residual_ok(relative_residual(A, b.data(), x.data()), kRtol));
    }
  }

  // Whole V-cycles, then their kernels one call at a time.
  {
    const Vector b = random_rhs(n, rhs_seed(cfg.seed, 1, 0));
    Vector x(n, 0.0);
    for (int c = 0; c < kTracedCycles; ++c) {
      Scope sc("amg.vcycle");
      hpamg::vcycle(h, b, x);
    }
  }
  if (!time_cycle_kernels(h, kKernelCalls)) {
    o.notes.push_back("hierarchy lacks hybrid-GS smoothers or a coarse LU");
    o.broken = true;
  }

  // Batched cycles.
  {
    hpamg::MultiVector B(n, kBatchM), X(n, kBatchM);
    for (int j = 0; j < kBatchM; ++j) {
      const Vector b = random_rhs(n, rhs_seed(cfg.seed, 3, j));
      for (Int r = 0; r < n; ++r) B.at(r, j) = b[r];
    }
    hpamg::ensure_multi_workspace(h, kBatchM);
    for (int c = 0; c < kTracedCycles; ++c) {
      Scope sc("amg.vcycle_multi");
      hpamg::vcycle_multi(h, B, X);
    }
  }

  // PCG with the V-cycle preconditioner timed inside the callback.
  long pcg_iters = 0;
  for (int i = 0; i < kTracedSolves; ++i) {
    const Vector b = random_rhs(n, rhs_seed(cfg.seed, 4, i));
    Vector x(n, 0.0);
    hpamg::KrylovResult r;
    {
      Scope sc("krylov.pcg");
      r = hpamg::pcg(A, b, x, pcg_options(),
                     [&s](const Vector& rv, Vector& z) {
                       Scope pc("krylov.precond");
                       s->precondition(rv, z);
                     });
    }
    pcg_iters += r.iterations;
    o.count(hpamg::status_ok(r.status) &&
            residual_ok(relative_residual(A, b.data(), x.data()), kRtol));
  }

  const SpanTable T = finish_trace(cfg, o);
  o.set("trace.overhead_s", median(traced) - median(untraced));
  set_setup_layers(T, 1.0, o);
  const double smooth = total_of(T, "amg.smooth") / kKernelCalls * 2.0 *
                        double(h.opts.num_sweeps);
  const double spmv = total_of(T, "amg.spmv") / kKernelCalls;
  const CycleBytes cb = cycle_bytes(h);
  o.set("amg.vcycle_s", total_of(T, "amg.vcycle") / kTracedCycles);
  o.set("amg.smooth_s", smooth);
  o.set("amg.spmv_s", spmv);
  o.set("amg.transfer_s", total_of(T, "amg.transfer") / kKernelCalls);
  o.set("amg.coarse_solve_s", total_of(T, "amg.coarse_solve") / kKernelCalls);
  o.set("amg.smooth_gbps", smooth > 0.0 ? cb.smooth / smooth * 1e-9 : 0.0);
  o.set("amg.spmv_gbps", spmv > 0.0 ? cb.spmv / spmv * 1e-9 : 0.0);
  o.set("amg.vcycle_multi_s_per_rhs",
        total_of(T, "amg.vcycle_multi") / (kTracedCycles * kBatchM));
  o.set("amg.iterations", double(iterations));
  const double pcg = total_of(T, "krylov.pcg");
  o.set("krylov.pcg_s", pcg / kTracedSolves);
  o.set("krylov.iterations", double(pcg_iters));
  o.set("krylov.precond_share",
        pcg > 0.0 ? total_of(T, "krylov.precond") / pcg : 0.0);
}

}  // namespace
}  // namespace pb

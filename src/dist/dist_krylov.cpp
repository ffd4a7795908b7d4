#include "dist/dist_krylov.hpp"

#include "amg/solve_loop.hpp"
#include "amg/telemetry.hpp"
#include "krylov/gmres_common.hpp"
#include "matrix/vector_ops.hpp"
#include "perfmodel/attrib.hpp"
#include "support/check.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace hpamg {

namespace {

/// The distributed (one column per rank slice) instance of the shared
/// loops' ops: dots reduce across ranks, the operator applies exchange one
/// halo, and the preconditioner / cycle is one V-cycle of `h`. Every step
/// is probed in this rank's CPU time into GS / SpMV / BLAS1 / Solve_etc.
/// Per-iteration telemetry rides along when the metrics registry is on;
/// dist smoother effectiveness is not measured (it would add collectives
/// and perturb the comm-stat baselines).
struct DistOps {
  static constexpr Clock kClock = Clock::kCpu;
  static constexpr const char* kPoisonSite = "dist.solve.poison";

  DistOps(simmpi::Comm& c, const DistMatrix& a, DistHierarchy& hh)
      : comm(c), A(a), h(hh), halo(c, a.colmap, a.row_starts, true),
        n(a.local_rows()), loan(hh, metrics::enabled() ? &tel : nullptr) {}

  simmpi::Comm& comm;
  const DistMatrix& A;
  DistHierarchy& h;
  HaloExchange halo;
  Vector x_ext;
  const Int n, m = 1;
  CycleTelemetryHook tel;
  TelemetryLoan<DistHierarchy> loan;

  bool logs() const { return comm.rank() == 0; }
  CycleTelemetryHook* telemetry() { return h.telemetry; }
  std::size_t num_levels() const { return h.levels.size(); }
  void dot(const double* a, const double* b, double* out) {
    block::dot<1>(a, b, n, 1, out, nullptr);
    out[0] = comm.allreduce_sum(out[0]);
  }
  void residual_norms(const Vector& x, const Vector& b, Vector& r,
                      double* norms2, PhaseTimes& pt) {
    {
      attrib::Probe probe("dist.residual", "SpMV", pt, kClock);
      dist_residual(comm, A, halo, x, x_ext, b, r);
    }
    attrib::Probe probe("dist.residual_norm", "BLAS1", pt, kClock);
    dot(r.data(), r.data(), norms2);
  }
  void apply(const Vector& z, Vector& w) {
    dist_spmv(comm, A, halo, z, x_ext, w);
  }
  void precondition(const MultiVector& v, MultiVector& z, PhaseTimes& pt) {
    {
      attrib::Probe probe("dist.precond_zero", "BLAS1", pt, kClock);
      set_zero(z.data);
    }
    cycle(v.data, z.data, pt);
  }
  void cycle(const Vector& b, Vector& x, PhaseTimes& pt) {
    dist_vcycle(comm, h, b, x, &pt);
  }
};

/// Solver-entry invariants: ownership partition and vector shapes.
void check_entry(simmpi::Comm& comm, const DistMatrix& A, const Vector& b,
                 const Vector& x, const char* who) {
  HPAMG_CHECK_INVARIANT(check::Depth::kCheap,
                        A.check_partition(comm.size()));
  HPAMG_CHECK_INVARIANT(
      check::Depth::kCheap,
      check::vectors_match(std::size_t(A.local_rows()), b.size(), x.size(),
                           who));
}

}  // namespace

// Neither instance takes a deadline: a rank-local clock could expire on
// one rank and not on another, and the ranks would leave the collective
// sequence at different iterations.

DistSolveResult dist_fgmres(simmpi::Comm& comm, const DistMatrix& A,
                            DistHierarchy& h, const Vector& b, Vector& x,
                            double rtol, Int max_iterations, Int restart) {
  check_entry(comm, A, b, x, "dist_fgmres");
  DistOps ops(comm, A, h);
  const KrylovOptions opt{
      .rtol = rtol, .max_iterations = max_iterations, .restart = restart};
  DistSolveResult res;
  std::vector<double> relres;
  std::vector<Int> col_iterations;
  detail::gmres_loop<1>(ops, b, x, opt, /*flexible=*/true, res, relres,
                        col_iterations);
  return res;
}

DistSolveResult dist_amg_solve(simmpi::Comm& comm, const DistMatrix& A,
                               DistHierarchy& h, const Vector& b, Vector& x,
                               double rtol, Int max_iterations) {
  TRACE_SPAN("krylov.amg_richardson", "phase");
  check_entry(comm, A, b, x, "dist_amg_solve");
  DistOps ops(comm, A, h);
  DistSolveResult res;
  std::vector<double> relres;
  std::vector<Int> col_iterations;
  detail::amg_loop<1>(ops, b, x, rtol, max_iterations, Deadline::never(), res,
                      relres, col_iterations);
  return res;
}

}  // namespace hpamg

#include <utility>

#include "amg/spmv.hpp"
#include "krylov/gmres_common.hpp"
#include "krylov/krylov.hpp"

namespace hpamg {

namespace {

/// The shared-memory instance of detail::gmres_loop's ops: the block
/// kernels on a CSRMatrix and a caller-supplied preconditioner.
template <int M>
struct SerialKrylovOps {
  using Timer = hpamg::Timer;
  static constexpr const char* kPoisonSite = nullptr;

  const CSRMatrix& A;
  const MultiPreconditioner& precond;
  Int n, m;

  bool logs() const { return true; }
  CycleTelemetryHook* telemetry() { return nullptr; }
  std::size_t num_levels() const { return 0; }
  void dot(const double* a, const double* b, double* out) {
    block::dot<M>(a, b, n, m, out, nullptr);
  }
  void residual_norms(const Vector& x, const Vector& b, Vector& r,
                      double* norms2, PhaseTimes& pt) {
    Timer t;
    block::spmv_residual<M>(A, x.data(), b.data(), r.data(), m, nullptr);
    pt.add("SpMV", t.seconds());
    Timer t2;
    dot(r.data(), r.data(), norms2);
    pt.add("BLAS1", t2.seconds());
  }
  void apply(const Vector& z, Vector& w) {
    block::spmv<M>(A, z.data(), w.data(), m, nullptr);
  }
  void precondition(const MultiVector& v, MultiVector& z, PhaseTimes&) {
    if (precond)
      precond(v, z);
    else
      copy_n(v.data.data(), z.data.data(), v.data.size());
  }
};

/// Runs the serial loop on an n x m block.
template <int M>
BlockKrylovResult serial_gmres(const CSRMatrix& A, const Vector& b, Vector& x,
                               Int m, const KrylovOptions& opt,
                               const MultiPreconditioner& precond,
                               bool flexible) {
  SerialKrylovOps<M> ops{A, precond, A.nrows, m};
  SolveResult sr;
  BlockKrylovResult res;
  detail::gmres_loop<M>(ops, b, x, opt, flexible, sr, res.final_relres,
                        res.col_iterations);
  res.iterations = sr.iterations;
  res.converged = sr.converged;
  res.status = sr.status;
  res.nonfinite_iteration = sr.nonfinite_iteration;
  res.history = std::move(sr.history);
  return res;
}

}  // namespace

KrylovResult fgmres(const CSRMatrix& A, const Vector& b, Vector& x,
                    const KrylovOptions& opt, const Preconditioner& precond) {
  require(Int(b.size()) == A.nrows && Int(x.size()) == A.nrows,
          "fgmres: size mismatch");
  return detail::single_column(serial_gmres<1>(
      A, b, x, 1, opt, detail::as_block(precond), /*flexible=*/true));
}

KrylovResult gmres(const CSRMatrix& A, const Vector& b, Vector& x,
                   const KrylovOptions& opt, const Preconditioner& precond) {
  require(Int(b.size()) == A.nrows && Int(x.size()) == A.nrows,
          "gmres: size mismatch");
  return detail::single_column(serial_gmres<1>(
      A, b, x, 1, opt, detail::as_block(precond), /*flexible=*/false));
}

BlockKrylovResult block_fgmres(const CSRMatrix& A, const MultiVector& B,
                               MultiVector& X, const KrylovOptions& opt,
                               const MultiPreconditioner& precond) {
  require(B.n == A.nrows && X.n == A.nrows && X.m == B.m,
          "block_fgmres: shape mismatch");
  require(B.m > 0, "block_fgmres: no right-hand sides");
  return with_width(B.m, [&]<int M>() {
    return serial_gmres<M>(A, B.data, X.data, B.m, opt, precond,
                           /*flexible=*/true);
  });
}

}  // namespace hpamg

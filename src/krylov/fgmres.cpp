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
  static constexpr Clock kClock = Clock::kWall;
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
    {
      attrib::Probe probe("krylov.residual", "SpMV", pt);
      block::spmv_residual<M>(A, x.data(), b.data(), r.data(), m, nullptr);
    }
    attrib::Probe probe("krylov.residual_norm", "BLAS1", pt);
    dot(r.data(), r.data(), norms2);
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

/// Runs the serial loop on one column.
KrylovResult serial_gmres(const CSRMatrix& A, const Vector& b, Vector& x,
                          const KrylovOptions& opt,
                          const Preconditioner& precond, bool flexible) {
  const MultiPreconditioner block_precond = detail::as_block(precond);
  SerialKrylovOps<1> ops{A, block_precond, A.nrows, 1};
  KrylovResult res;
  std::vector<double> relres;
  std::vector<Int> col_iterations;
  detail::gmres_loop<1>(ops, b, x, opt, flexible, res, relres,
                        col_iterations);
  return res;
}

}  // namespace

KrylovResult fgmres(const CSRMatrix& A, const Vector& b, Vector& x,
                    const KrylovOptions& opt, const Preconditioner& precond) {
  require(Int(b.size()) == A.nrows && Int(x.size()) == A.nrows,
          "fgmres: size mismatch");
  return serial_gmres(A, b, x, opt, precond, /*flexible=*/true);
}

KrylovResult gmres(const CSRMatrix& A, const Vector& b, Vector& x,
                   const KrylovOptions& opt, const Preconditioner& precond) {
  require(Int(b.size()) == A.nrows && Int(x.size()) == A.nrows,
          "gmres: size mismatch");
  return serial_gmres(A, b, x, opt, precond, /*flexible=*/false);
}

BlockKrylovResult block_fgmres(const CSRMatrix& A, const MultiVector& B,
                               MultiVector& X, const KrylovOptions& opt,
                               const MultiPreconditioner& precond) {
  require(B.n == A.nrows && X.n == A.nrows && X.m == B.m,
          "block_fgmres: shape mismatch");
  require(B.m > 0, "block_fgmres: no right-hand sides");
  SolveResult sr;
  BlockKrylovResult res;
  with_width(B.m, [&]<int M>() {
    SerialKrylovOps<M> ops{A, precond, A.nrows, B.m};
    detail::gmres_loop<M>(ops, B.data, X.data, opt, /*flexible=*/true, sr,
                          res.final_relres, res.col_iterations);
  });
  res.take(std::move(sr));
  return res;
}

}  // namespace hpamg

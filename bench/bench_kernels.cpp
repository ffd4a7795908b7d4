// google-benchmark microbenchmarks for the per-kernel claims of §3/§5.2:
//  - SpMV restriction: transpose-per-call (baseline) vs kept R (3.7x);
//  - hybrid GS: branchy baseline vs partitioned optimized (1.2x);
//  - strength creation: serial vs prefix-sum parallel assembly (6.1x);
//  - matrix transpose: serial vs parallel counting sort;
//  - residual + norm: separate vs fused (§3.3);
//  - interpolation/restriction: full P vs identity-block form.
//
// Accepts the usual --benchmark_* flags plus --json <path> (or
// --json=<path>), which writes the per-benchmark timings as a
// BENCH_kernels.json report alongside the console output, --trace <path>
// for a Chrome trace of the instrumented kernels, and --verbose for debug
// logging.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "amg/smoother.hpp"
#include "amg/spmv.hpp"
#include "amg/strength.hpp"
#include "gen/stencil.hpp"
#include "matrix/permute.hpp"
#include "matrix/transpose.hpp"
#include "matrix/vector_ops.hpp"
#include "reader/validate.hpp"
#include "support/log.hpp"
#include "support/report.hpp"
#include "support/trace.hpp"

namespace {

using namespace hpamg;

CSRMatrix bench_matrix() {
  static CSRMatrix A = [] {
    CSRMatrix m = lap3d_7pt(24, 24, 24);
    m.sort_rows();
    return m;
  }();
  return A;
}

/// Interpolation-shaped operator: n x (n/4), ~4 entries per fine row.
CSRMatrix bench_interp() {
  static CSRMatrix P = [] {
    const Int n = 24 * 24 * 24, nc = n / 4;
    std::vector<Triplet> t;
    for (Int i = 0; i < nc; ++i) t.push_back({i, i, 1.0});
    for (Int i = nc; i < n; ++i) {
      const Int c = (i * 7919) % nc;
      t.push_back({i, c, 0.4});
      t.push_back({i, (c + 1) % nc, 0.3});
      t.push_back({i, (c + 17) % nc, 0.3});
    }
    return CSRMatrix::from_triplets(n, nc, std::move(t));
  }();
  return P;
}

void BM_RestrictionTransposeEachCall(benchmark::State& state) {
  CSRMatrix P = bench_interp();
  Vector r(P.nrows, 1.0), rc(P.ncols);
  for (auto _ : state) {
    // Baseline HYPRE: derive R = P^T for every restriction (§3.2).
    CSRMatrix R = transpose_serial(P);
    spmv(R, r, rc);
    benchmark::DoNotOptimize(rc.data());
  }
}
BENCHMARK(BM_RestrictionTransposeEachCall);

void BM_RestrictionKeptTranspose(benchmark::State& state) {
  CSRMatrix P = bench_interp();
  CSRMatrix R = transpose_parallel(P);  // kept from setup
  Vector r(P.nrows, 1.0), rc(P.ncols);
  for (auto _ : state) {
    spmv(R, r, rc);
    benchmark::DoNotOptimize(rc.data());
  }
}
BENCHMARK(BM_RestrictionKeptTranspose);

void BM_RestrictionIdentityBlock(benchmark::State& state) {
  CSRMatrix P = bench_interp();
  const Int nc = P.ncols;
  CSRMatrix Pf(P.nrows - nc, nc);
  {
    std::vector<Triplet> t;
    for (Int i = nc; i < P.nrows; ++i)
      for (Int k = P.rowptr[i]; k < P.rowptr[i + 1]; ++k)
        t.push_back({i - nc, P.colidx[k], P.values[k]});
    Pf = CSRMatrix::from_triplets(P.nrows - nc, nc, std::move(t));
  }
  CSRMatrix PfT = transpose_parallel(Pf);
  Vector r(P.nrows, 1.0), rc(nc);
  for (auto _ : state) {
    restrict_identity_block(PfT, r, rc, nc);
    benchmark::DoNotOptimize(rc.data());
  }
}
BENCHMARK(BM_RestrictionIdentityBlock);

void BM_HybridGsBaseline(benchmark::State& state) {
  CSRMatrix A = bench_matrix();
  HybridGSBaseline gs(A);
  Vector b(A.nrows, 1.0), x(A.nrows, 0.0), t(A.nrows);
  for (auto _ : state) {
    gs.sweep(A, b, x, t, true);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_HybridGsBaseline);

void BM_HybridGsOptimized(benchmark::State& state) {
  CSRMatrix A = bench_matrix();
  HybridGSOptimized gs(A);
  Vector b(A.nrows, 1.0), x(A.nrows, 0.0), t(A.nrows);
  for (auto _ : state) {
    gs.sweep(b, x, t, 0, A.nrows, true);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_HybridGsOptimized);

void BM_StrengthSerial(benchmark::State& state) {
  CSRMatrix A = bench_matrix();
  for (auto _ : state) {
    CSRMatrix S = strength_matrix_serial(A, {});
    benchmark::DoNotOptimize(S.nnz());
  }
}
BENCHMARK(BM_StrengthSerial);

void BM_StrengthParallel(benchmark::State& state) {
  CSRMatrix A = bench_matrix();
  for (auto _ : state) {
    CSRMatrix S = strength_matrix(A, {});
    benchmark::DoNotOptimize(S.nnz());
  }
}
BENCHMARK(BM_StrengthParallel);

void BM_TransposeSerial(benchmark::State& state) {
  CSRMatrix A = bench_matrix();
  for (auto _ : state) {
    CSRMatrix T = transpose_serial(A);
    benchmark::DoNotOptimize(T.nnz());
  }
}
BENCHMARK(BM_TransposeSerial);

void BM_TransposeParallel(benchmark::State& state) {
  CSRMatrix A = bench_matrix();
  for (auto _ : state) {
    CSRMatrix T = transpose_parallel(A);
    benchmark::DoNotOptimize(T.nnz());
  }
}
BENCHMARK(BM_TransposeParallel);

void BM_ResidualThenNorm(benchmark::State& state) {
  CSRMatrix A = bench_matrix();
  Vector x(A.nrows, 0.5), b(A.nrows, 1.0), r(A.nrows);
  for (auto _ : state) {
    spmv_residual(A, x, b, r);
    double n = dot(r, r);
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_ResidualThenNorm);

void BM_ResidualNormFused(benchmark::State& state) {
  CSRMatrix A = bench_matrix();
  Vector x(A.nrows, 0.5), b(A.nrows, 1.0), r(A.nrows);
  for (auto _ : state) {
    double n = spmv_residual_norm2sq_fused(A, x, b, r);
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_ResidualNormFused);

// Console reporter that also records each run for the JSON report.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  struct Captured {
    std::string name;
    double real_seconds = 0;   // per iteration
    double cpu_seconds = 0;    // per iteration
    double iterations = 0;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) {
      Captured c;
      c.name = r.benchmark_name();
      c.iterations = double(r.iterations);
      if (r.iterations > 0) {
        c.real_seconds = r.real_accumulated_time / double(r.iterations);
        c.cpu_seconds = r.cpu_accumulated_time / double(r.iterations);
      }
      captured.push_back(std::move(c));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  std::vector<Captured> captured;
};

}  // namespace

int main(int argc, char** argv) {
  // Strip --json/--trace/--verbose before benchmark::Initialize sees them
  // (it rejects unknown flags); the remaining argv goes to google-benchmark
  // untouched.
  std::string json_path, trace_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      hpamg::log::set_threshold(hpamg::log::Level::kDebug);
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!trace_path.empty()) hpamg::trace::enable();
  int bench_argc = int(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
    return 1;

  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!trace_path.empty()) {
    hpamg::trace::disable();
    if (!hpamg::trace::write_chrome_json(trace_path)) {
      std::fprintf(stderr, "cannot write trace %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", trace_path.c_str());
  }

  if (json_path.empty()) return 0;
  hpamg::BenchReport report("kernels");
  for (const CapturingReporter::Captured& c : reporter.captured) {
    report.add_run(c.name)
        .metric("real_seconds_per_iter", c.real_seconds)
        .metric("cpu_seconds_per_iter", c.cpu_seconds)
        .metric("iterations", c.iterations);
  }
  const std::string err =
      hpamg::validate_bench_report_json(report.to_json());
  if (!err.empty()) {
    std::fprintf(stderr, "json report failed self-validation: %s\n",
                 err.c_str());
    return 1;
  }
  if (!report.write_file(json_path)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}

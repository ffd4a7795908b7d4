// Multi-RHS amortization sweep: batched standalone-AMG solves of the HPCG
// 27-point Laplacian for m simultaneous right-hand sides.
//
// The batched path streams every level operator ONCE per V-cycle for all m
// columns (amg/multivector.hpp), so the per-RHS matrix traffic — the
// dominant cost of a bandwidth-bound AMG cycle — drops roughly as 1/m
// while the per-RHS vector traffic stays flat. The table below shows the
// measured amortization: per-RHS solve time, flops, and bytes, all of
// which must fall monotonically from m=1 toward the asymptote.
//
// m=1 runs through the same batched kernels with block width 1 and is the
// perf-gate anchor: it must stay within `hpamg diff` tolerance of the scalar
// kernels' committed baseline.
//
// Usage: bench_multirhs [--n 12] [--m-list 1,2,4,8,16] [--rtol 1e-6]
//                       [--repeat N] [--json out.json] [--trace out.json]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "gen/stencil.hpp"
#include "support/metrics.hpp"

using namespace hpamg;
using namespace hpamg::bench;

namespace {

/// "1,2,4,8" -> {1,2,4,8}; exits on junk so a typo cannot silently bench
/// the default sweep.
std::vector<Int> parse_m_list(const std::string& s) {
  std::vector<Int> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t next = s.find(',', pos);
    if (next == std::string::npos) next = s.size();
    const std::string tok = s.substr(pos, next - pos);
    char* end = nullptr;
    const long v = std::strtol(tok.c_str(), &end, 10);
    if (tok.empty() || *end != '\0' || v < 1) {
      std::fprintf(stderr, "bad --m-list entry \"%s\"\n", tok.c_str());
      std::exit(2);
    }
    out.push_back(Int(v));
    pos = next + 1;
  }
  if (out.empty()) {
    std::fprintf(stderr, "--m-list is empty\n");
    std::exit(2);
  }
  return out;
}

/// Deterministic per-column RHS: column j is a distinct smooth+oscillatory
/// field so no two columns converge identically.
MultiVector make_rhs(Int n, Int m) {
  MultiVector B(n, m);
  for (Int i = 0; i < n; ++i) {
    double* r = B.row(i);
    for (Int j = 0; j < m; ++j)
      r[j] = 1.0 + 0.5 * std::sin(0.01 * double(i) * double(j + 1)) +
             0.001 * double(j);
  }
  return B;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const Int n = Int(cli.get_int("n", 12));
  const double rtol = cli.get_double("rtol", 1e-6);
  const std::vector<Int> ms = parse_m_list(cli.get("m-list", "1,2,4,8,16"));
  const Repeat repeat(cli);
  const RunEnv env("multirhs");
  JsonSink sink(cli, env);
  init_logging(cli);
  TraceSink trace_sink(cli, env);
  LiveSink live_sink(cli);
  sink.report.set_param("n", long(n));
  sink.report.set_param("rtol", rtol);
  sink.report.set_param("repeat", repeat.count);
  sink.report.set_param("m_list", cli.get("m-list", "1,2,4,8,16"));

  const CSRMatrix A = lap3d_27pt(n, n, n);
  std::printf("=== Multi-RHS amortization: lap3d_27pt n=%lld (%lld rows),"
              " rtol=%.1e ===\n",
              (long long)n, (long long)A.nrows, rtol);

  Timer t_setup;
  AMGSolver amg(A, table3_options(Variant::kOptimized));
  const double setup_s = t_setup.seconds();
  std::printf("setup %.4g s, %lld levels, opcx %.2f\n\n", setup_s,
              (long long)amg.hierarchy().num_levels(),
              amg.operator_complexity());

  print_row({"m", "solve_s", "per_rhs_s", "amortize", "iters", "per_rhs_GF",
             "per_rhs_GB"}, 12);

  double per_rhs_m1 = 0.0;
  for (const Int m : ms) {
    const MultiVector B = make_rhs(A.nrows, m);
    MultiVector X(A.nrows, m);
    MultiSolveResult sr;
    if (repeat.warmup()) {
      set_zero(X);
      sr = amg.solve_multi(B, X, rtol, 200);
      if (!status_ok(sr.status) && sr.status != Status::kMaxIterations) {
        std::fprintf(stderr, "warmup solve (m=%lld) failed: %s\n",
                     (long long)m, status_name(sr.status));
        return 1;
      }
    }
    std::vector<double> solve_samples;
    for (int i = 0; i < repeat.count; ++i) {
      begin_timed_repeat();
      set_zero(X);
      Timer t;
      sr = amg.solve_multi(B, X, rtol, 200);
      solve_samples.push_back(t.seconds());
    }
    if (!status_ok(sr.status) && sr.status != Status::kMaxIterations) {
      std::fprintf(stderr, "solve (m=%lld) failed: %s\n", (long long)m,
                   status_name(sr.status));
      return 1;
    }

    const double solve_s = sample_stats(solve_samples).median;
    const double per_rhs_s = solve_s / double(m);
    const double per_rhs_flops = double(sr.solve_work.flops) / double(m);
    const double per_rhs_bytes =
        double(sr.solve_work.bytes_total()) / double(m);
    if (m == 1) per_rhs_m1 = per_rhs_s;
    metrics::gauge("amg.multirhs.m").set(double(m));
    metrics::gauge("amg.multirhs.per_rhs_seconds").set(per_rhs_s);
    metrics::gauge("amg.multirhs.per_rhs_flops").set(per_rhs_flops);
    metrics::gauge("amg.multirhs.per_rhs_bytes").set(per_rhs_bytes);

    print_row({fmt_int(m), fmt(solve_s), fmt(per_rhs_s),
               per_rhs_m1 > 0 ? fmt(per_rhs_m1 / per_rhs_s, "%.2f") : "-",
               fmt_int(sr.iterations), fmt(per_rhs_flops / 1e9, "%.3f"),
               fmt(per_rhs_bytes / 1e9, "%.3f")}, 12);

    BenchReport::Run& run =
        sink.report.add_run("m" + std::to_string(m))
            .label("m", std::to_string(m))
            .metric("per_rhs_solve_seconds", per_rhs_s)
            .metric("per_rhs_flops", per_rhs_flops)
            .metric("per_rhs_bytes", per_rhs_bytes)
            .metric("iterations", double(sr.iterations))
            .metric("converged", sr.converged ? 1.0 : 0.0);
    add_time_metrics(run, "solve", solve_samples);
  }

  const int live_rc = live_sink.finish();
  const int trace_rc = trace_sink.finish();
  const int json_rc = sink.finish();
  if (live_rc != 0) return live_rc;
  return trace_rc != 0 ? trace_rc : json_rc;
}

// suite_cold: the 14 Table 2 stand-ins, each set up once and solved once by
// standalone AMG. Set-up is most of the time here, so this workload carries
// the setup layers (strength/PMIS, interpolation, RAP, CF permutation and
// smoother plan); the solve kernels do little.
#include <cstdio>

#include "amg/solver.hpp"
#include "common.hpp"
#include "gen/suite.hpp"
#include "support/metrics.hpp"

namespace pb {
namespace {

constexpr double kScale = 0.01;
/// Enough passes that latency_p95_s has kTailSamples samples beyond it.
constexpr int kMinPasses = 16;
constexpr int kTracedPasses = 3;

struct Pass {
  double setup = 0.0, solve = 0.0;
  Int iterations = 0;
  std::vector<double> latencies;  ///< per matrix: setup + solve
};

struct Matrix {
  CSRMatrix A;
  double threshold;
};

std::uint64_t rhs_seed(std::uint64_t seed, int pass, std::size_t i) {
  return seed * 0x9E3779B97F4A7C15ULL + std::uint64_t(pass) * 1000003ULL + i;
}

/// One suite pass: set up and solve every matrix. In traced runs the setup
/// layers are replayed on each hierarchy after its timed solve.
Pass run_pass(const std::vector<Matrix>& suite, std::uint64_t seed, int pass,
              Outcome& o, bool replay, bool memory) {
  Pass p;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const CSRMatrix& A = suite[i].A;
    const Vector b = random_rhs(A.nrows, rhs_seed(seed, pass, i));
    Vector x(A.nrows, 0.0);
    const double t0 = now_s();
    std::optional<hpamg::AMGSolver> s;
    {
      Scope sc("amg.setup");
      s.emplace(A, table3(suite[i].threshold));
    }
    const double t1 = now_s();
    hpamg::SolveResult r;
    {
      Scope sc("amg.solve");
      r = s->solve(b, x, kRtol);
    }
    const double t2 = now_s();
    o.count(hpamg::status_ok(r.status) &&
            residual_ok(relative_residual(A, b.data(), x.data()), kRtol));
    p.setup += t1 - t0;
    p.solve += t2 - t1;
    p.iterations += r.iterations;
    p.latencies.push_back(t2 - t0);
    if (memory) {
      add_memory(s->hierarchy(), o);
      o.values["amg.operator_complexity"] +=
          s->operator_complexity() / double(suite.size());
    }
    if (replay) replay_setup_layers(s->hierarchy());
  }
  return p;
}

}  // namespace

void run_suite_cold(const RunConfig& cfg, Outcome& o) {
  std::vector<Matrix> suite;
  for (const hpamg::SuiteEntry& e : hpamg::table2_suite())
    suite.push_back({hpamg::generate_suite_matrix(e.name, kScale),
                     e.strength_threshold});
  double working_set = 0.0;
  for (const Matrix& m : suite)
    working_set += double(m.A.footprint_bytes()) + 16.0 * m.A.nrows;
  o.notes.push_back("working set " + std::to_string(long(working_set)) +
                    " bytes (14 matrices + vectors, scale 0.01)");

  if (!cfg.trace) {
    std::vector<double> setups, solves, latencies;
    const double start = now_s();
    for (int pass = 0; keep_going(pass < kMinPasses, start, cfg, latencies);
         ++pass) {
      Pass p = run_pass(suite, cfg.seed, pass, o, false, false);
      setups.push_back(p.setup);
      solves.push_back(p.solve);
      latencies.insert(latencies.end(), p.latencies.begin(),
                       p.latencies.end());
    }
    const double wall = now_s() - start;
    const long completed_ok = o.attempted - o.failed;
    const double setup = median(setups), solve = median(solves);
    const double rhs_rate = double(suite.size()) / solve;  // per pass
    o.set("setup_s", setup);
    o.set("solve_s", solve);
    o.set("time_to_solution_s", setup + solve);
    // No batched or Krylov path in this workload: both name the suite's
    // single-RHS AMG rate (see README.md).
    o.set("rhs_per_s", rhs_rate);
    o.set("batched_rhs_per_s", rhs_rate);
    o.set("krylov_rhs_per_s", rhs_rate);
    if (!add_latency(latencies, wall, completed_ok, o)) o.broken = true;
    o.set("peak_rss_bytes", double(hpamg::metrics::peak_rss_bytes()));
    return;
  }

  // Traced run: untraced passes, then traced passes with the setup layers
  // replayed on every hierarchy; the overhead compares the timed
  // setup + solve of both.
  std::vector<double> untraced, traced;
  for (int pass = 0; pass < kTracedPasses; ++pass) {
    Pass p = run_pass(suite, cfg.seed, pass, o, false, false);
    untraced.push_back(p.setup + p.solve);
  }
  tracer().on = true;
  for (int pass = 0; pass < kTracedPasses; ++pass) {
    Pass p = run_pass(suite, cfg.seed, pass, o, true, pass == 0);
    traced.push_back(p.setup + p.solve);
    if (pass == 0) o.set("amg.iterations", double(p.iterations));
  }
  const auto T = finish_trace(cfg, o);
  o.set("trace.overhead_s", median(traced) - median(untraced));
  set_setup_layers(T, kTracedPasses, o);
}

}  // namespace pb

// Tests for the metrics registry (support/metrics.hpp), the memory
// accounting embedded in solver reports, and the bench-regression diff
// (reader/report_diff.hpp) behind `hpamg diff`.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "amg/solver.hpp"
#include "dist/simmpi.hpp"
#include "gen/stencil.hpp"
#include "reader/report_diff.hpp"
#include "reader/validate.hpp"
#include "support/metrics.hpp"
#include "support/report.hpp"

using namespace hpamg;

namespace {

/// Restores the registry's disabled default even when a test fails.
struct MetricsOff {
  ~MetricsOff() { metrics::disable(); }
};

}  // namespace

TEST(MetricsRegistry, DisabledSitesRecordNothing) {
  MetricsOff off;
  metrics::disable();
  metrics::Counter& c = metrics::counter("test.disabled_counter");
  metrics::Gauge& g = metrics::gauge("test.disabled_gauge");
  metrics::Histogram& h = metrics::histogram("test.disabled_hist");
  c.reset();
  g.reset();
  h.reset();
  c.add(5);
  g.set(3.0);
  h.observe(17);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  metrics::enable();
  c.add(5);
  g.set(3.0);
  h.observe(17);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(g.value(), 3.0);
  EXPECT_EQ(h.count(), 1u);
}

TEST(MetricsRegistry, FindOrCreateIsStable) {
  metrics::Counter& a = metrics::counter("test.same_name");
  metrics::Counter& b = metrics::counter("test.same_name");
  EXPECT_EQ(&a, &b);
}

TEST(MetricsRegistry, ConcurrentCountsAreExact) {
  MetricsOff off;
  metrics::enable();
  metrics::Counter& c = metrics::counter("test.concurrent_counter");
  metrics::Histogram& h = metrics::histogram("test.concurrent_hist");
  c.reset();
  h.reset();
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        c.add(1);
        h.observe(std::uint64_t(t));
      }
    });
  for (std::thread& t : ts) t.join();
  EXPECT_EQ(c.value(), std::uint64_t(kThreads) * kIters);
  EXPECT_EQ(h.count(), std::uint64_t(kThreads) * kIters);
  // Threads 2 and 3 both land in bucket [2,4).
  EXPECT_EQ(h.bucket(metrics::Histogram::bucket_of(2)), 2u * kIters);
}

TEST(MetricsRegistry, SnapshotHistogramCountMatchesBucketsUnderLoad) {
  // The snapshot must be internally consistent: its `count` is derived
  // from one pass over the buckets, so count == Σ buckets holds in every
  // snapshot even while writers observe concurrently. (Reading count and
  // buckets independently produced torn pairs — a sampler thread scraping
  // mid-solve would see count != Σ buckets and emit a Prometheus
  // histogram whose +Inf bucket disagrees with _count.)
  MetricsOff off;
  metrics::enable();
  metrics::Histogram& h = metrics::histogram("test.snapshot_consistency");
  h.reset();
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t v = 1;
    while (!stop.load(std::memory_order_relaxed))
      h.observe_always(v = (v * 2862933555777941757ull + 3037000493ull));
  });
  for (int i = 0; i < 200; ++i) {
    const metrics::Snapshot snap = metrics::snapshot();
    for (const metrics::HistogramSnapshot& hs : snap.histograms) {
      std::uint64_t total = 0;
      for (std::uint64_t b : hs.buckets) total += b;
      EXPECT_EQ(hs.count, total) << hs.name << " snapshot " << i;
    }
  }
  stop.store(true);
  writer.join();
}

TEST(MetricsHistogram, BucketBoundaries) {
  using H = metrics::Histogram;
  EXPECT_EQ(H::bucket_of(0), 0);
  EXPECT_EQ(H::bucket_of(1), 1);
  EXPECT_EQ(H::bucket_of(2), 2);  // [2, 4)
  EXPECT_EQ(H::bucket_of(3), 2);
  EXPECT_EQ(H::bucket_of(4), 3);  // [4, 8)
  EXPECT_EQ(H::bucket_of(~std::uint64_t(0)), H::kBuckets - 1);
  for (int b = 0; b < H::kBuckets - 1; ++b) {
    EXPECT_EQ(H::bucket_of(H::bucket_floor(b)), b);
    if (b >= 1)
      EXPECT_EQ(H::bucket_of(2 * H::bucket_floor(b) - 1), b)
          << "upper edge of bucket " << b;
  }
}

TEST(MetricsHistogram, SimmpiBucketsClassifyEagerLimitExactly) {
  // The rendezvous classification in perfmodel/network.cpp relies on the
  // 16 KiB eager limit being a bucket boundary: bucket-floor >= limit must
  // agree with per-message bytes >= limit.
  const std::uint64_t limit = 16384;
  for (std::uint64_t bytes : {std::uint64_t(1), std::uint64_t(16383),
                              std::uint64_t(16384), std::uint64_t(16385),
                              std::uint64_t(1) << 20}) {
    const int b = simmpi::msg_size_bucket(bytes);
    EXPECT_EQ(simmpi::msg_size_bucket_floor(b) >= limit, bytes >= limit)
        << "bytes=" << bytes;
  }
}

TEST(MetricsAlloc, CountingAllocatorMatchesHandComputedBytes) {
  metrics::reset_alloc_stats();
  const metrics::AllocStats before =
      metrics::alloc_stats(metrics::MemTag::kInterp);
  {
    metrics::MemTagScope scope(metrics::MemTag::kInterp);
    metrics::CountedVector<double> v(1000, 0.0);
    const metrics::AllocStats during =
        metrics::alloc_stats(metrics::MemTag::kInterp);
    EXPECT_EQ(during.live_bytes - before.live_bytes, 1000u * sizeof(double));
    EXPECT_GE(during.peak_bytes, 1000u * sizeof(double));
    EXPECT_EQ(during.allocs - before.allocs, 1u);
  }
  const metrics::AllocStats after =
      metrics::alloc_stats(metrics::MemTag::kInterp);
  EXPECT_EQ(after.live_bytes, before.live_bytes);  // freed on destruction
  EXPECT_EQ(after.total_bytes - before.total_bytes, 1000u * sizeof(double));
}

TEST(MetricsAlloc, TagScopeNestsAndRestores) {
  metrics::reset_alloc_stats();
  EXPECT_EQ(metrics::current_mem_tag(), metrics::MemTag::kGeneral);
  {
    metrics::MemTagScope outer(metrics::MemTag::kOperator);
    EXPECT_EQ(metrics::current_mem_tag(), metrics::MemTag::kOperator);
    {
      metrics::MemTagScope inner(metrics::MemTag::kWorkspace);
      EXPECT_EQ(metrics::current_mem_tag(), metrics::MemTag::kWorkspace);
      metrics::CountedVector<int> v(64);
      (void)v;
    }
    EXPECT_EQ(metrics::current_mem_tag(), metrics::MemTag::kOperator);
  }
  EXPECT_EQ(metrics::current_mem_tag(), metrics::MemTag::kGeneral);
  EXPECT_GE(metrics::alloc_stats(metrics::MemTag::kWorkspace).total_bytes,
            64u * sizeof(int));
  EXPECT_EQ(metrics::alloc_stats(metrics::MemTag::kOperator).total_bytes, 0u);
}

TEST(MetricsRss, PeakIsPositiveAndMonotonic) {
  const std::uint64_t peak1 = metrics::peak_rss_bytes();
  EXPECT_GT(peak1, 0u);
  // Touch ~32 MB so the high-water mark cannot shrink below it.
  std::vector<char> block(32u << 20, 1);
  for (std::size_t i = 0; i < block.size(); i += 4096) block[i] = char(i);
  const std::uint64_t peak2 = metrics::peak_rss_bytes();
  EXPECT_GE(peak2, peak1);
  EXPECT_GE(peak2, metrics::current_rss_bytes() / 2);  // same order
}

TEST(MetricsJson, EnvelopeRoundTripsThroughReport) {
  MetricsOff off;
  metrics::enable();
  metrics::counter("test.rt_counter").reset();
  metrics::counter("test.rt_counter").add(42);
  metrics::gauge("test.rt_gauge").set(2.5);
  metrics::Histogram& h = metrics::histogram("test.rt_hist");
  h.reset();
  h.observe(3);
  h.observe(1000);

  BenchReport rep("roundtrip");
  rep.set_param("scale", 0.5);
  rep.add_run("only").metric("total_seconds", 1.0);
  MetricsEnvelope env;
  env.threads = 4;
  env.build = "release";
  env.compiler = "testc";
  env.peak_rss_bytes = metrics::peak_rss_bytes();
  env.net_overhead_s = 1e-6;
  env.net_peak_bw_bytes_per_s = 1e9;
  env.net_setup_cost_s = 2e-6;
  env.net_rendezvous_extra_s = 3e-6;
  env.net_eager_limit_bytes = 16384;
  env.registry = metrics::snapshot();
  rep.set_metrics(env);

  const std::string json = rep.to_json();
  EXPECT_EQ(validate_bench_report_json(json, false, true), "");

  const JsonValue doc = json_parse(json);
  const JsonValue* m = doc.find("metrics");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->find("threads")->number, 4.0);
  EXPECT_EQ(m->find("build")->text, "release");
  EXPECT_EQ(m->find("counters")->find("test.rt_counter")->number, 42.0);
  EXPECT_EQ(m->find("gauges")->find("test.rt_gauge")->number, 2.5);
  const JsonValue* hj = m->find("histograms")->find("test.rt_hist");
  ASSERT_NE(hj, nullptr);
  EXPECT_EQ(hj->find("count")->number, 2.0);
  EXPECT_EQ(hj->find("sum")->number, 1003.0);
  EXPECT_EQ(m->find("net")->find("eager_limit_bytes")->number, 16384.0);
}

// ------------------------------------------------------------------------
// Solver memory audit (Table 2 acceptance: report totals vs hand-computed
// CSR footprints)
// ------------------------------------------------------------------------

namespace {

std::uint64_t csr_bytes(const CSRMatrix& m) {
  return std::uint64_t(m.rowptr.size()) * sizeof(Int) +
         std::uint64_t(m.colidx.size()) * sizeof(Int) +
         std::uint64_t(m.values.size()) * sizeof(double);
}

}  // namespace

TEST(MemoryReport, LevelBytesMatchHandComputedCsrFootprints) {
  CSRMatrix A = lap2d_5pt(48, 48);
  AMGOptions o;
  o.variant = Variant::kOptimized;
  AMGSolver amg(A, o);
  Vector b(A.nrows, 1.0), x(A.nrows, 0.0);
  SolveResult sr = amg.solve(b, x, 1e-8, 100);
  ASSERT_TRUE(sr.converged);
  SolveReport rep = amg.report(&sr);
  ASSERT_TRUE(rep.has_memory);
  const Hierarchy& h = amg.hierarchy();
  ASSERT_EQ(rep.levels.size(), h.levels.size());

  std::uint64_t hand_setup = 0, sum_setup = 0, sum_workspace = 0;
  for (std::size_t l = 0; l < h.levels.size(); ++l) {
    const Level& lvl = h.levels[l];
    const std::uint64_t hand_op = csr_bytes(lvl.A);
    const std::uint64_t hand_interp =
        csr_bytes(lvl.P) + csr_bytes(lvl.Pf) + csr_bytes(lvl.PfT);
    // Operator and interpolation bytes are analytic CSR footprints, so
    // they must match a hand computation exactly; the acceptance bound of
    // 10% is checked below on the totals (which add smoother plans).
    EXPECT_EQ(rep.levels[l].operator_bytes, hand_op) << "level " << l;
    EXPECT_EQ(rep.levels[l].interp_bytes, hand_interp) << "level " << l;
    hand_setup += hand_op + hand_interp;
    sum_setup += rep.levels[l].operator_bytes + rep.levels[l].interp_bytes +
                 rep.levels[l].smoother_bytes;
    sum_workspace += rep.levels[l].workspace_bytes;
    EXPECT_GT(rep.levels[l].workspace_bytes, 0u) << "level " << l;
  }
  // Totals are exactly the per-level sums...
  EXPECT_EQ(rep.memory.setup_bytes, sum_setup);
  EXPECT_EQ(rep.memory.solve_bytes, sum_setup + sum_workspace);
  // ...and the smoother plans add bounded overhead over the matrix
  // storage: setup total within [hand, 1.5*hand], i.e. the CSR share is
  // what dominates and the audit is within 10% once smoother bytes (also
  // analytic) are included, which the equality above asserts exactly.
  EXPECT_GE(rep.memory.setup_bytes, hand_setup);
  const double rel = double(rep.memory.setup_bytes - hand_setup) /
                     double(rep.memory.setup_bytes);
  EXPECT_LT(rel, 0.5) << "smoother plans should not dominate storage";
  EXPECT_GT(rep.memory.peak_rss_bytes, 0u);
}

// ------------------------------------------------------------------------
// `hpamg diff` verdicts on synthetic report pairs
// ------------------------------------------------------------------------

namespace {

struct FakeMetric {
  std::string key;
  double value;
};

std::string make_report(double scale,
                        const std::vector<FakeMetric>& run_metrics,
                        const std::string& bench = "synthetic") {
  BenchReport rep(bench);
  rep.set_param("scale", scale);
  BenchReport::Run& r = rep.add_run("case");
  for (const FakeMetric& m : run_metrics) r.metric(m.key, m.value);
  return rep.to_json();
}

}  // namespace

TEST(BenchDiff, IdenticalReportsPass) {
  const std::string j =
      make_report(0.01, {{"total_seconds", 1.0}, {"iterations", 12.0}});
  const DiffResult res = diff_bench_reports(j, j);
  EXPECT_TRUE(res.ok()) << res.error;
  EXPECT_EQ(res.regressions, 0);
  EXPECT_EQ(res.missing, 0);
}

TEST(BenchDiff, TimingRegressionBeyondToleranceFails) {
  const std::string a = make_report(0.01, {{"total_seconds", 1.0}});
  const std::string b = make_report(0.01, {{"total_seconds", 1.8}});
  const DiffResult res = diff_bench_reports(a, b);  // tol 0.5 -> 1.8 fails
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.regressions, 1);
  ASSERT_FALSE(res.deltas.empty());
  EXPECT_EQ(res.deltas[0].verdict, MetricDelta::Verdict::kRegressed);
  EXPECT_EQ(res.deltas[0].cls, MetricClass::kTiming);
}

TEST(BenchDiff, ImprovementPassesAndIsCounted) {
  const std::string a = make_report(0.01, {{"total_seconds", 1.0}});
  const std::string b = make_report(0.01, {{"total_seconds", 0.4}});
  const DiffResult res = diff_bench_reports(a, b);
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.improvements, 1);
}

TEST(BenchDiff, SubFloorTimingNoiseNeverGates) {
  // 10x regression, but both sides below the 50 ms floor: smoke-scale
  // noise, not a signal.
  const std::string a = make_report(0.01, {{"total_seconds", 0.002}});
  const std::string b = make_report(0.01, {{"total_seconds", 0.020}});
  const DiffResult res = diff_bench_reports(a, b);
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.regressions, 0);
}

TEST(BenchDiff, WorkCounterRegressionFails) {
  const std::string a = make_report(0.01, {{"iterations", 10.0}});
  const std::string b = make_report(0.01, {{"iterations", 14.0}});
  const DiffResult res = diff_bench_reports(a, b);  // tol 0.25 -> 1.4x fails
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.regressions, 1);
  EXPECT_EQ(res.deltas[0].cls, MetricClass::kWork);
}

TEST(BenchDiff, InfoMetricsNeverGate) {
  const std::string a = make_report(0.01, {{"speedup_measured", 2.0}});
  const std::string b = make_report(0.01, {{"speedup_measured", 0.5}});
  const DiffResult res = diff_bench_reports(a, b);
  EXPECT_TRUE(res.ok());
}

TEST(BenchDiff, MissingMetricFails) {
  const std::string a =
      make_report(0.01, {{"total_seconds", 1.0}, {"iterations", 10.0}});
  const std::string b = make_report(0.01, {{"total_seconds", 1.0}});
  const DiffResult res = diff_bench_reports(a, b);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.missing, 1);
}

TEST(BenchDiff, AddedMetricIsInformational) {
  const std::string a = make_report(0.01, {{"total_seconds", 1.0}});
  const std::string b =
      make_report(0.01, {{"total_seconds", 1.0}, {"iterations", 10.0}});
  const DiffResult res = diff_bench_reports(a, b);
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.added, 1);
}

TEST(BenchDiff, EnvelopePerfGaugesAreAdvisory) {
  auto with_gauges = [](std::vector<std::pair<std::string, double>> gauges) {
    BenchReport rep("synthetic");
    rep.set_param("scale", 0.01);
    rep.add_run("case").metric("total_seconds", 1.0);
    MetricsEnvelope m;
    m.threads = 1;
    m.build = "release";
    m.registry.gauges = std::move(gauges);
    rep.set_metrics(std::move(m));
    return rep.to_json();
  };
  // Efficiency halves, one kernel's gauge vanishes, another appears: all
  // advisory — no regression, no missing. Non-perf gauges are not diffed.
  const std::string a = with_gauges({{"comm.wait.blocked_s", 0.5},
                                     {"perf.kernel.gone.efficiency", 0.9},
                                     {"perf.kernel.spmv.efficiency", 0.8}});
  const std::string b = with_gauges({{"perf.kernel.new.bw_fraction", 0.2},
                                     {"perf.kernel.spmv.efficiency", 0.4}});
  const DiffResult res = diff_bench_reports(a, b);
  EXPECT_TRUE(res.ok()) << res.error;
  EXPECT_EQ(res.missing, 0);
  int envelope_rows = 0;
  bool saw_ok = false, saw_added = false;
  for (const MetricDelta& d : res.deltas) {
    if (!d.run.empty()) continue;
    ++envelope_rows;
    EXPECT_EQ(d.cls, MetricClass::kInfo);
    EXPECT_EQ(d.key.rfind("perf.", 0), 0u) << d.key;
    if (d.verdict == MetricDelta::Verdict::kOk) saw_ok = true;
    if (d.verdict == MetricDelta::Verdict::kAdded) saw_added = true;
  }
  EXPECT_EQ(envelope_rows, 2);  // spmv (both sides) + new-only; gone skipped
  EXPECT_TRUE(saw_ok);
  EXPECT_TRUE(saw_added);
}

TEST(BenchDiff, ParamMismatchIsAnErrorNotARegression) {
  const std::string a = make_report(0.01, {{"total_seconds", 1.0}});
  const std::string b = make_report(0.02, {{"total_seconds", 1.0}});
  const DiffResult res = diff_bench_reports(a, b);
  EXPECT_FALSE(res.error.empty());
  EXPECT_FALSE(res.ok());
  EXPECT_TRUE(res.deltas.empty());
}

TEST(BenchDiff, BenchNameMismatchIsAnError) {
  const std::string a = make_report(0.01, {{"total_seconds", 1.0}}, "x");
  const std::string b = make_report(0.01, {{"total_seconds", 1.0}}, "y");
  const DiffResult res = diff_bench_reports(a, b);
  EXPECT_FALSE(res.error.empty());
}

TEST(BenchDiff, ClassifyMetricKeys) {
  EXPECT_EQ(classify_metric("metrics.setup_seconds"), MetricClass::kTiming);
  EXPECT_EQ(classify_metric("phases.setup.RAP"), MetricClass::kTiming);
  EXPECT_EQ(classify_metric("metrics.rap_s"), MetricClass::kTiming);
  EXPECT_EQ(classify_metric("convergence.iterations"), MetricClass::kWork);
  EXPECT_EQ(classify_metric("counters.setup.flops"), MetricClass::kWork);
  EXPECT_EQ(classify_metric("comm.solve.bytes_sent"), MetricClass::kWork);
  EXPECT_EQ(classify_metric("hierarchy.operator_complexity"),
            MetricClass::kWork);
  EXPECT_EQ(classify_metric("memory.peak_rss_bytes"), MetricClass::kInfo);
  EXPECT_EQ(classify_metric("metrics.mem.workspace.peak_bytes"),
            MetricClass::kInfo);
  EXPECT_EQ(classify_metric("metrics.speedup_measured"), MetricClass::kInfo);
  EXPECT_EQ(classify_metric("convergence.final_relres"), MetricClass::kInfo);
}

// Coverage for the smaller utility surfaces: phase timing and the probe
// that feeds it, work counters, distributed-matrix validation paths, halo
// error handling, vector gathers, and the solver's convergence-factor
// metric.
#include <gtest/gtest.h>

#include <thread>

#include "amg/solver.hpp"
#include "dist/dist_matrix.hpp"
#include "dist/halo.hpp"
#include "gen/stencil.hpp"
#include "perfmodel/attrib.hpp"
#include "support/counters.hpp"
#include "support/metrics.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"
#include "test_util.hpp"

namespace hpamg {
namespace {

TEST(PhaseTimes, AccumulateMergeClear) {
  PhaseTimes a, b;
  a.add("RAP", 1.0);
  a.add("RAP", 0.5);
  a.add("GS", 2.0);
  EXPECT_DOUBLE_EQ(a.get("RAP"), 1.5);
  EXPECT_DOUBLE_EQ(a.get("missing"), 0.0);
  EXPECT_DOUBLE_EQ(a.total(), 3.5);
  b.add("GS", 1.0);
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.get("GS"), 3.0);
  EXPECT_DOUBLE_EQ(b.get("RAP"), 1.5);
  b.clear();
  EXPECT_DOUBLE_EQ(b.total(), 0.0);
}

TEST(Probe, OneReadingFeedsEverySink) {
  // With metrics and tracing on, the phase breakdown, the telemetry level
  // slot, the roofline registry and the trace span all carry the one
  // measurement the probe took.
  metrics::enable();
  attrib::reset();
  trace::disable();
  trace::reset();
  trace::enable();
  PhaseTimes pt;
  double level_seconds = 0.0;
  WorkCounters wc;
  {
    attrib::Probe probe("probe.test", 2, "work", &pt, &level_seconds, &wc);
    volatile double sink = 0;
    for (int i = 0; i < 100000; ++i) sink = sink + i;
    wc.bytes_read += 4096;
  }
  trace::disable();
  const double sec = pt.get("work");
  EXPECT_GT(sec, 0.0);
  EXPECT_EQ(level_seconds, sec);
  const std::vector<RooflineEntry> roof = attrib::snapshot();
  ASSERT_EQ(roof.size(), 1u);
  EXPECT_EQ(roof[0].kernel, "probe.test");
  EXPECT_EQ(roof[0].level, 2);
  EXPECT_EQ(roof[0].bytes, 4096u);
  EXPECT_EQ(roof[0].seconds, sec);
  const JsonValue doc = json_parse(trace::export_chrome_json());
  const JsonValue* span = nullptr;
  for (const JsonValue& e : doc.find("traceEvents")->items)
    if (const JsonValue* name = e.find("name");
        name != nullptr && name->text == "probe.test")
      span = &e;
  ASSERT_NE(span, nullptr);
  EXPECT_DOUBLE_EQ(span->find("args")->find("level")->number, 2.0);
  // dur is exported in microseconds; the probe's seconds are the same
  // nanosecond count, so the two agree to ns rounding.
  EXPECT_NEAR(span->find("dur")->number * 1e3, sec * 1e9, 1.0);
  trace::reset();
  attrib::reset();
  metrics::disable();
  metrics::reset();
}

TEST(Timers, WallAndCpuAdvance) {
  Timer w;
  Timer c(Clock::kCpu);
  volatile double sink = 0;
  for (int i = 0; i < 2000000; ++i) sink += i;
  EXPECT_GT(w.seconds(), 0.0);
  EXPECT_GT(c.seconds(), 0.0);
}

TEST(WorkCounters, AccumulateAndPrint) {
  WorkCounters a, b;
  a.flops = 10;
  a.bytes_read = 100;
  b.flops = 5;
  b.bytes_written = 7;
  b.branches = 3;
  b.hash_probes = 2;
  a += b;
  EXPECT_EQ(a.flops, 15u);
  EXPECT_EQ(a.bytes_total(), 107u);
  EXPECT_NE(a.to_string().find("flops=15"), std::string::npos);
}

TEST(DistMatrix, ValidateCatchesBadColmap) {
  CSRMatrix A = lap2d_5pt(8, 8);
  simmpi::run(2, [&](simmpi::Comm& c) {
    DistMatrix dA = distribute_csr(c, A);
    EXPECT_NO_THROW(dA.validate());
    if (!dA.colmap.empty()) {
      DistMatrix bad = dA;
      bad.colmap[0] = bad.first_col();  // points into own range
      EXPECT_THROW(bad.validate(), std::invalid_argument);
    }
    DistMatrix bad2 = dA;
    bad2.offd.ncols += 1;  // colmap/offd mismatch
    EXPECT_THROW(bad2.validate(), std::invalid_argument);
  });
}

TEST(Halo, RejectsOwnedElementInColmap) {
  simmpi::run(2, [&](simmpi::Comm& c) {
    std::vector<Long> starts = {0, 10, 20};
    std::vector<Long> colmap = {Long(c.rank() * 10 + 1)};  // own element!
    EXPECT_THROW(HaloExchange(c, colmap, starts, false),
                 std::invalid_argument);
    // Peers never reach the handshake; drain by creating a matching valid
    // exchange is unnecessary because the throw happens before any send.
  });
}

TEST(Halo, EmptyColmapIsFine) {
  simmpi::run(2, [&](simmpi::Comm& c) {
    std::vector<Long> starts = {0, 10, 20};
    std::vector<Long> colmap;
    HaloExchange h(c, colmap, starts, true);
    EXPECT_EQ(h.ext_size(), 0);
    Vector x(10, 1.0), ext;
    h.exchange(x, ext);
    EXPECT_TRUE(ext.empty());
  });
}

TEST(GatherVector, AssemblesAllSlices) {
  simmpi::run(3, [&](simmpi::Comm& c) {
    std::vector<Long> starts = {0, 4, 7, 12};
    const Int mine = Int(starts[c.rank() + 1] - starts[c.rank()]);
    Vector local(mine);
    for (Int i = 0; i < mine; ++i) local[i] = double(starts[c.rank()] + i);
    Vector full = gather_vector(c, local, starts);
    ASSERT_EQ(Int(full.size()), 12);
    for (Int i = 0; i < 12; ++i) EXPECT_DOUBLE_EQ(full[i], double(i));
  });
}

TEST(SimmpiAllgather, DoubleVariant) {
  simmpi::run(4, [](simmpi::Comm& c) {
    std::vector<double> g = c.allgather(0.5 * c.rank());
    for (int r = 0; r < 4; ++r) EXPECT_DOUBLE_EQ(g[r], 0.5 * r);
  });
}

TEST(SolveResult, ConvergenceFactorMetric) {
  SolveResult r;
  EXPECT_DOUBLE_EQ(r.convergence_factor(), 0.0);
  r.history = {1e-1, 1e-2, 1e-3};  // exact factor 0.1 per step
  EXPECT_NEAR(r.convergence_factor(), 0.1, 1e-12);

  CSRMatrix A = lap2d_5pt(25, 25);
  AMGSolver amg(A, {});
  Vector b(A.nrows, 1.0), x(A.nrows, 0.0);
  SolveResult rr = amg.solve(b, x, 1e-9, 100);
  ASSERT_TRUE(rr.converged);
  EXPECT_GT(rr.convergence_factor(), 0.0);
  EXPECT_LT(rr.convergence_factor(), 0.4);
}

TEST(HierarchySummary, ContainsLevelsAndComplexity) {
  CSRMatrix A = lap2d_5pt(20, 20);
  Hierarchy h = build_hierarchy(A, {});
  const std::string s = hierarchy_summary(h);
  EXPECT_NE(s.find("operator complexity"), std::string::npos);
  EXPECT_NE(s.find("400"), std::string::npos);  // finest rows
}

TEST(Footprint, TracksHierarchyStorage) {
  CSRMatrix A = lap2d_5pt(30, 30);
  Hierarchy h = build_hierarchy(A, {});
  // At least the finest operator's CSR arrays.
  std::uint64_t bytes = 0;
  for (const LevelMemory& m : h.memory_by_level())
    bytes += m.operator_bytes + m.interp_bytes + m.smoother_bytes;
  EXPECT_GE(bytes, A.footprint_bytes());
}

TEST(CsrFootprint, CountsArrays) {
  CSRMatrix A = lap2d_5pt(10, 10);
  const std::uint64_t expect =
      (A.rowptr.size() + A.colidx.size()) * sizeof(Int) +
      A.values.size() * sizeof(double);
  EXPECT_EQ(A.footprint_bytes(), expect);
}

}  // namespace
}  // namespace hpamg

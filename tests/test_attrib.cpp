// Performance-attribution layer: roofline closed forms (perfmodel/attrib)
// and their agreement with the solve's per-level telemetry,
// wait-state classification over synthetic traces (support/trace_analyze),
// per-iteration telemetry entries and their JSON round-trip.
#include <gtest/gtest.h>

#include <cmath>

#include "amg/solver.hpp"
#include "amg/telemetry.hpp"
#include "gen/stencil.hpp"
#include "perfmodel/attrib.hpp"
#include "perfmodel/network.hpp"
#include "support/metrics.hpp"
#include "support/report.hpp"
#include "support/trace_analyze.hpp"

namespace hpamg {
namespace {

// A model with no branch term and a huge flop roof, so modeled time is
// exactly bytes / (stream_bw * sparse_efficiency) — hand-computable.
MachineModel flat_model() {
  MachineModel m;
  m.name = "test";
  m.stream_bw_bytes_per_s = 20e9;
  m.sparse_efficiency = 0.5;
  m.peak_flops = 1e15;
  m.branch_miss_cost_s = 0.0;
  return m;
}

TEST(Attrib, RooflineClosedForm) {
  attrib::reset();
  WorkCounters wc;
  wc.flops = 1000;
  wc.bytes_read = 6'000'000;
  attrib::record("spmv", 0, 1e-3, wc);
  const auto snap = attrib::snapshot(flat_model());
  ASSERT_EQ(snap.size(), 1u);
  const RooflineEntry& e = snap[0];
  EXPECT_EQ(e.kernel, "spmv");
  EXPECT_EQ(e.level, 0);
  EXPECT_EQ(e.calls, 1);
  // achieved = 6e6 B / 1e-3 s = 6 GB/s; roof = 20e9 * 0.5 = 10 GB/s.
  EXPECT_NEAR(e.achieved_bw_bytes_per_s, 6e9, 1.0);
  EXPECT_NEAR(e.bw_fraction, 0.6, 1e-12);
  // modeled = 6e6 / 10e9 = 6e-4 s; efficiency = 6e-4 / 1e-3 = 0.6.
  EXPECT_NEAR(e.modeled_seconds, 6e-4, 1e-15);
  EXPECT_NEAR(e.efficiency, 0.6, 1e-12);
  attrib::reset();
}

TEST(Attrib, FractionsClampedIntoUnitInterval) {
  attrib::reset();
  WorkCounters wc;
  wc.bytes_read = 1'000'000'000;  // 1 GB in 1 us: impossibly fast
  attrib::record("too_fast", -1, 1e-6, wc);
  const auto snap = attrib::snapshot(flat_model());
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_DOUBLE_EQ(snap[0].bw_fraction, 1.0);
  EXPECT_DOUBLE_EQ(snap[0].efficiency, 1.0);
  attrib::reset();
}

TEST(Attrib, DegenerateCellsOmitted) {
  attrib::reset();
  WorkCounters none;
  attrib::record("no_bytes", 0, 1e-3, none);  // zero traffic
  WorkCounters wc;
  wc.bytes_read = 100;
  attrib::record("no_time", 0, 0.0, wc);  // unmeasurably fast
  EXPECT_TRUE(attrib::snapshot(flat_model()).empty());
  attrib::reset();
}

TEST(Attrib, CallsAccumulateAcrossRecords) {
  attrib::reset();
  WorkCounters wc;
  wc.bytes_read = 1000;
  attrib::record("k", 2, 1e-3, wc);
  attrib::record("k", 2, 1e-3, wc);
  attrib::record("k", 3, 1e-3, wc);
  const auto snap = attrib::snapshot(flat_model());
  ASSERT_EQ(snap.size(), 2u);
  long calls = 0;
  std::uint64_t bytes = 0;
  for (const auto& e : snap) {
    calls += e.calls;
    bytes += e.bytes;
  }
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(bytes, 3000u);
  attrib::reset();
}

TEST(Attrib, LevelSecondsAreTheLevelsRooflineSeconds) {
  // Each cycle phase is one probe: the per-iteration level seconds and the
  // roofline's per-(kernel, level) seconds are the same clock readings, so
  // on every non-coarsest level they agree up to summation order.
  const CSRMatrix A = lap2d_5pt(48, 48);
  AMGSolver amg(A, {});
  metrics::reset();
  metrics::enable();
  attrib::reset();
  Vector b(std::size_t(A.nrows), 1.0), x(std::size_t(A.nrows), 0.0);
  const SolveResult sr = amg.solve(b, x, 1e-8, 100);
  const std::vector<RooflineEntry> roof = attrib::snapshot();
  attrib::reset();
  metrics::disable();
  metrics::reset();
  ASSERT_TRUE(sr.converged);
  ASSERT_FALSE(sr.telemetry.empty());
  const Int nl = amg.hierarchy().num_levels();
  ASSERT_GE(nl, 3);
  for (Int l = 0; l + 1 < nl; ++l) {
    double telemetry = 0.0, roofline = 0.0;
    for (const IterationReportEntry& it : sr.telemetry)
      telemetry += it.level_seconds[std::size_t(l)];
    for (const RooflineEntry& e : roof)
      if (e.level == l && (e.kernel == "smoother" ||
                           e.kernel == "residual_restrict" ||
                           e.kernel == "prolong"))
        roofline += e.seconds;
    EXPECT_GT(roofline, 0.0) << "level " << l;
    EXPECT_NEAR(telemetry, roofline, 1e-12 * roofline) << "level " << l;
  }
}

TEST(Attrib, CalibrationLoaderAppliesOnlyGivenKeys) {
  MachineModel mm = flat_model();
  NetworkModel nm;
  const double old_setup = nm.setup_cost_s;
  std::string err;
  ASSERT_TRUE(attrib::load_calibration_json(
      R"({"machine": {"stream_bw_bytes_per_s": 42e9},
          "network": {"overhead_s": 1e-6}})",
      &mm, &nm, &err))
      << err;
  EXPECT_DOUBLE_EQ(mm.stream_bw_bytes_per_s, 42e9);
  EXPECT_DOUBLE_EQ(mm.peak_flops, 1e15);     // untouched
  EXPECT_DOUBLE_EQ(nm.overhead_s, 1e-6);
  EXPECT_DOUBLE_EQ(nm.setup_cost_s, old_setup);  // untouched
}

TEST(Attrib, CalibrationLoaderRejectsBadInput) {
  MachineModel mm = flat_model();
  std::string err;
  EXPECT_FALSE(attrib::load_calibration_json("not json", &mm, nullptr, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(attrib::load_calibration_json(
      R"({"machine": {"stream_bw_bytes_per_s": -1}})", &mm, nullptr, &err));
  EXPECT_FALSE(attrib::load_calibration_json(
      R"({"machine": {"stream_bw_bytes_per_s": "fast"}})", &mm, nullptr,
      &err));
  // Models untouched by the failed loads.
  EXPECT_DOUBLE_EQ(mm.stream_bw_bytes_per_s, 20e9);
}

// ---------------------------------------------------------------------------
// Wait-state classification on synthetic traces.
// ---------------------------------------------------------------------------

void expect_buckets_sum(const trace_analyze::RankWait& r) {
  const double sum = r.late_sender_us + r.late_receiver_us +
                     r.wait_collective_us + r.transfer_us + r.unattributed_us;
  EXPECT_NEAR(sum, r.blocked_us, 1e-9) << "rank " << r.pid;
}

TEST(TraceAnalyze, LateSenderClassified) {
  // rank 0 posts a recv at t=100 that only completes at t=185 because the
  // sender (rank 1) computes until t=180: 80 us late-sender wait, 20 us
  // transfer+completion inside the recv span.
  const char* trace = R"({"traceEvents":[
    {"ph":"M","pid":0,"name":"process_name","args":{"name":"rank 0"}},
    {"ph":"M","pid":1,"name":"process_name","args":{"name":"rank 1"}},
    {"ph":"X","name":"solve","cat":"phase","pid":0,"tid":0,"ts":0,"dur":200},
    {"ph":"X","name":"mpi.recv","cat":"blocked","pid":0,"tid":0,"ts":100,"dur":100},
    {"ph":"f","id":1,"pid":0,"tid":0,"ts":185},
    {"ph":"X","name":"work","cat":"kernel","pid":1,"tid":0,"ts":0,"dur":180},
    {"ph":"X","name":"mpi.send","cat":"comm","pid":1,"tid":0,"ts":180,"dur":5},
    {"ph":"s","id":1,"pid":1,"tid":0,"ts":180,"args":{"bytes":64}}
  ],"otherData":{}})";
  const auto an = trace_analyze::analyze(
      trace_analyze::parse_timeline_text(trace));
  ASSERT_EQ(an.ranks.size(), 2u);
  const auto& r0 = an.ranks[0];
  EXPECT_EQ(r0.name, "rank 0");
  EXPECT_NEAR(r0.blocked_us, 100.0, 1e-9);
  EXPECT_NEAR(r0.late_sender_us, 80.0, 1e-9);
  EXPECT_NEAR(r0.transfer_us, 20.0, 1e-9);
  EXPECT_NEAR(r0.unattributed_us, 0.0, 1e-9);
  expect_buckets_sum(r0);
  // rank 1 never blocks: its send is buffered ("comm" category).
  const auto& r1 = an.ranks[1];
  EXPECT_NEAR(r1.blocked_us, 0.0, 1e-9);
  EXPECT_NEAR(r1.compute_us, 185.0, 1e-9);
  EXPECT_EQ(an.unmatched_flows, 0);
  EXPECT_FALSE(an.critical_path.empty());
}

TEST(TraceAnalyze, LateReceiverClassified) {
  // A synchronous send on rank 0 blocks from t=0; the receiver only posts
  // its recv at t=40 (flow_in timestamp): 40 us late-receiver, 10 us
  // transfer. (simmpi sends are buffered, so this shape only appears in
  // synthetic or foreign traces — which is exactly what the classifier
  // must handle.)
  const char* trace = R"({"traceEvents":[
    {"ph":"X","name":"mpi.send","cat":"blocked","pid":0,"tid":0,"ts":0,"dur":50},
    {"ph":"s","id":2,"pid":0,"tid":0,"ts":0,"args":{"bytes":4096}},
    {"ph":"X","name":"mpi.recv","cat":"blocked","pid":1,"tid":0,"ts":40,"dur":5},
    {"ph":"f","id":2,"pid":1,"tid":0,"ts":40}
  ],"otherData":{}})";
  const auto an = trace_analyze::analyze(
      trace_analyze::parse_timeline_text(trace));
  ASSERT_EQ(an.ranks.size(), 2u);
  const auto& r0 = an.ranks[0];
  EXPECT_NEAR(r0.late_receiver_us, 40.0, 1e-9);
  EXPECT_NEAR(r0.transfer_us, 10.0, 1e-9);
  expect_buckets_sum(r0);
  // The recv on rank 1 sees a send timestamp before its own post: zero
  // late-sender wait, all 5 us transfer.
  const auto& r1 = an.ranks[1];
  EXPECT_NEAR(r1.late_sender_us, 0.0, 1e-9);
  EXPECT_NEAR(r1.transfer_us, 5.0, 1e-9);
  expect_buckets_sum(r1);
}

TEST(TraceAnalyze, CollectiveImbalanceAndUnalignedInstance) {
  // The aligned allreduce pair: rank 0 enters at t=20, rank 1 (the
  // straggler) at t=100 -> rank 0 charges 80 us wait-at-collective and
  // 20 us operation. Rank 0 also has an older allreduce with no partner
  // instance: unattributed, never smeared into the wait buckets.
  const char* trace = R"({"traceEvents":[
    {"ph":"X","name":"mpi.allreduce","cat":"blocked","pid":0,"tid":0,"ts":0,"dur":10},
    {"ph":"X","name":"mpi.allreduce","cat":"blocked","pid":0,"tid":0,"ts":20,"dur":100},
    {"ph":"X","name":"mpi.allreduce","cat":"blocked","pid":1,"tid":0,"ts":100,"dur":20}
  ],"otherData":{}})";
  const auto an = trace_analyze::analyze(
      trace_analyze::parse_timeline_text(trace));
  ASSERT_EQ(an.ranks.size(), 2u);
  const auto& r0 = an.ranks[0];
  EXPECT_NEAR(r0.wait_collective_us, 80.0, 1e-9);
  EXPECT_NEAR(r0.transfer_us, 20.0, 1e-9);
  EXPECT_NEAR(r0.unattributed_us, 10.0, 1e-9);
  EXPECT_NEAR(r0.blocked_us, 110.0, 1e-9);
  expect_buckets_sum(r0);
  const auto& r1 = an.ranks[1];
  EXPECT_NEAR(r1.wait_collective_us, 0.0, 1e-9);
  EXPECT_NEAR(r1.transfer_us, 20.0, 1e-9);
  expect_buckets_sum(r1);
}

TEST(TraceAnalyze, UnmatchedFlowGoesUnattributed) {
  // A recv whose arrow lost its send side (ring wraparound): the blocked
  // time must land in unattributed, keeping the sum invariant.
  const char* trace = R"({"traceEvents":[
    {"ph":"X","name":"mpi.recv","cat":"blocked","pid":0,"tid":0,"ts":0,"dur":30},
    {"ph":"f","id":9,"pid":0,"tid":0,"ts":25}
  ],"otherData":{}})";
  const auto an = trace_analyze::analyze(
      trace_analyze::parse_timeline_text(trace));
  ASSERT_EQ(an.ranks.size(), 1u);
  EXPECT_EQ(an.unmatched_flows, 1);
  EXPECT_NEAR(an.ranks[0].unattributed_us, 30.0, 1e-9);
  expect_buckets_sum(an.ranks[0]);
}

TEST(TraceAnalyze, KernelImbalanceRanksWorstFirst) {
  const char* trace = R"({"traceEvents":[
    {"ph":"X","name":"gs","cat":"kernel","pid":0,"tid":0,"ts":0,"dur":10},
    {"ph":"X","name":"gs","cat":"kernel","pid":1,"tid":0,"ts":0,"dur":30},
    {"ph":"X","name":"spmv","cat":"kernel","pid":0,"tid":0,"ts":20,"dur":10},
    {"ph":"X","name":"spmv","cat":"kernel","pid":1,"tid":0,"ts":40,"dur":10}
  ],"otherData":{}})";
  const auto an = trace_analyze::analyze(
      trace_analyze::parse_timeline_text(trace));
  ASSERT_FALSE(an.kernels.empty());
  EXPECT_EQ(an.kernels[0].kernel, "gs");  // max/avg = 30/20 = 1.5
  EXPECT_NEAR(an.kernels[0].imbalance, 1.5, 1e-9);
  EXPECT_EQ(an.kernels[0].max_pid, 1);
  EXPECT_EQ(an.kernels[0].ranks, 2);
}

TEST(TraceAnalyze, RejectsNonTraceJson) {
  EXPECT_THROW(trace_analyze::parse_timeline_text(R"({"runs": []})"),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Telemetry entries and the report JSON round-trip.
// ---------------------------------------------------------------------------

TEST(Telemetry, IterationEntryClosedForm) {
  CycleTelemetryHook hook;
  hook.begin_cycle(3);
  *hook.level_slot(0) += 0.5;
  *hook.level_slot(2) += 0.25;
  EXPECT_EQ(hook.level_slot(7), nullptr);  // out of range: no slot, not UB
  hook.presmooth_norm2 = 4.0;  // ||r|| = 2
  const IterationReportEntry e =
      make_iteration_entry(3, 0.01, 0.1, 0.75, 10.0, &hook);
  EXPECT_EQ(e.iteration, 3);
  EXPECT_DOUBLE_EQ(e.relres, 0.01);
  EXPECT_NEAR(e.conv_factor, 0.1, 1e-12);  // 0.01 / 0.1
  EXPECT_DOUBLE_EQ(e.seconds, 0.75);
  ASSERT_EQ(e.level_seconds.size(), 3u);
  EXPECT_DOUBLE_EQ(e.level_seconds[0], 0.5);
  EXPECT_DOUBLE_EQ(e.level_seconds[1], 0.0);
  EXPECT_DOUBLE_EQ(e.level_seconds[2], 0.25);
  // presmooth relres = sqrt(4)/10 = 0.2; contraction = 0.2/0.1 = 2 (the
  // smoother diverged this iteration — still reported faithfully).
  EXPECT_NEAR(e.presmooth_relres, 0.2, 1e-12);
  EXPECT_NEAR(e.smoother_contraction, 2.0, 1e-12);
  // Unknown previous residual: factor pinned to 0, smoother fields unset.
  const IterationReportEntry first =
      make_iteration_entry(1, 0.5, 0.0, 0.1, 10.0, nullptr);
  EXPECT_DOUBLE_EQ(first.conv_factor, 0.0);
  EXPECT_LT(first.presmooth_relres, 0.0);
}

TEST(Telemetry, ReportJsonRoundTrip) {
  SolveReport sr;
  sr.solver = "amg";
  sr.variant = "optimized";
  RooflineEntry re;
  re.kernel = "smoother";
  re.level = 1;
  re.calls = 4;
  re.seconds = 0.5;
  re.flops = 100;
  re.bytes = 2000;
  re.achieved_bw_bytes_per_s = 4000.0;
  re.modeled_seconds = 0.1;
  re.bw_fraction = 0.25;
  re.efficiency = 0.2;
  sr.roofline.push_back(re);
  IterationReportEntry it1;
  it1.iteration = 1;
  it1.relres = 0.5;
  it1.conv_factor = 0.5;
  it1.seconds = 0.25;
  it1.level_seconds = {0.2, 0.05};
  sr.iterations.push_back(it1);  // presmooth fields unset -> omitted
  IterationReportEntry it2 = it1;
  it2.iteration = 2;
  it2.relres = 0.05;
  it2.conv_factor = 0.1;
  it2.presmooth_relres = 0.25;
  it2.smoother_contraction = 0.5;
  sr.iterations.push_back(it2);

  JsonWriter w;
  sr.write_json(w);
  const JsonValue doc = json_parse(w.str());

  const JsonValue* roof = doc.find("roofline");
  ASSERT_NE(roof, nullptr);
  ASSERT_EQ(roof->items.size(), 1u);
  EXPECT_EQ(roof->items[0].find("kernel")->text, "smoother");
  EXPECT_DOUBLE_EQ(roof->items[0].find("bw_fraction")->number, 0.25);
  EXPECT_DOUBLE_EQ(roof->items[0].find("efficiency")->number, 0.2);
  EXPECT_DOUBLE_EQ(roof->items[0].find("bytes")->number, 2000.0);

  const JsonValue* its = doc.find("iterations");
  ASSERT_NE(its, nullptr);
  ASSERT_EQ(its->items.size(), 2u);
  EXPECT_EQ(its->items[0].find("presmooth_relres"), nullptr);
  ASSERT_NE(its->items[1].find("presmooth_relres"), nullptr);
  EXPECT_DOUBLE_EQ(its->items[1].find("presmooth_relres")->number, 0.25);
  EXPECT_DOUBLE_EQ(its->items[1].find("conv_factor")->number, 0.1);
  ASSERT_EQ(its->items[1].find("level_seconds")->items.size(), 2u);
}

TEST(Telemetry, EmptyBlocksNotEmitted) {
  SolveReport sr;
  sr.solver = "amg";
  sr.variant = "baseline";
  JsonWriter w;
  sr.write_json(w);
  const JsonValue doc = json_parse(w.str());
  EXPECT_EQ(doc.find("roofline"), nullptr);
  EXPECT_EQ(doc.find("iterations"), nullptr);
}

TEST(Metrics, WaitAndPerfGaugesPublished) {
  metrics::reset();
  metrics::enable();
  attrib::reset();
  WorkCounters wc;
  wc.bytes_read = 1'000'000;
  attrib::record("spmv", 0, 1e-3, wc);
  attrib::publish_metrics(attrib::snapshot(flat_model()));
  EXPECT_GT(metrics::gauge("perf.kernel.spmv.seconds").value(), 0.0);
  EXPECT_GT(metrics::gauge("perf.kernel.spmv.bw_fraction").value(), 0.0);

  const char* trace = R"({"traceEvents":[
    {"ph":"X","name":"mpi.recv","cat":"blocked","pid":0,"tid":0,"ts":0,"dur":30},
    {"ph":"f","id":9,"pid":0,"tid":0,"ts":25}
  ],"otherData":{}})";
  trace_analyze::publish_metrics(
      trace_analyze::analyze(trace_analyze::parse_timeline_text(trace)));
  EXPECT_NEAR(metrics::gauge("comm.wait.blocked_s").value(), 30e-6, 1e-12);
  EXPECT_NEAR(metrics::gauge("comm.wait.unattributed_s").value(), 30e-6,
              1e-12);
  attrib::reset();
  metrics::reset();
  metrics::disable();
}

}  // namespace
}  // namespace hpamg

// Tests for the JSON report layer (support/report.hpp): writer escaping
// and round-trips, the parser, the golden SolveReport schema, the
// BENCH_*.json envelope, and its validator.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "amg/solver.hpp"
#include "gen/stencil.hpp"
#include "reader/validate.hpp"
#include "support/report.hpp"

namespace hpamg {
namespace {

// --------------------------------------------------------------- writer ----

TEST(JsonWriter, FlatObject) {
  JsonWriter w;
  w.begin_object().kv("a", 1).kv("b", "x").kv("c", true).end_object();
  EXPECT_EQ(w.str(), R"({"a":1,"b":"x","c":true})");
}

TEST(JsonWriter, NestedContainers) {
  JsonWriter w;
  w.begin_object();
  w.key("list").begin_array().value(1).value(2.5).null().end_array();
  w.key("obj").begin_object().kv("k", "v").end_object();
  w.key("empty").begin_array().end_array();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"list":[1,2.5,null],"obj":{"k":"v"},"empty":[]})");
}

TEST(JsonWriter, EscapesStrings) {
  JsonWriter w;
  w.begin_object().kv("k", "a\"b\\c\n\t\x01 é").end_object();
  EXPECT_EQ(w.str(), "{\"k\":\"a\\\"b\\\\c\\n\\t\\u0001 é\"}");
  // And the parser undoes it exactly.
  JsonValue v = json_parse(w.str());
  EXPECT_EQ(v.find("k")->text, "a\"b\\c\n\t\x01 é");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_array()
      .value(std::numeric_limits<double>::quiet_NaN())
      .value(std::numeric_limits<double>::infinity())
      .value(-std::numeric_limits<double>::infinity())
      .value(1.5)
      .end_array();
  EXPECT_EQ(w.str(), "[null,null,null,1.5]");
}

TEST(JsonWriter, NonFiniteDoublesRoundTripAsNaN) {
  // Regression: the writer emits `null` for non-finite doubles, and the
  // parser must map null back to NaN so a report → parse → inspect round
  // trip of a diverged solve (relres = NaN) yields NaN again instead of
  // the old 0.0 — which silently read as "converged to machine zero".
  JsonWriter w;
  w.begin_object()
      .kv("relres", std::numeric_limits<double>::quiet_NaN())
      .kv("seconds", 1.5)
      .end_object();
  const JsonValue v = json_parse(w.str());
  const JsonValue* relres = v.find("relres");
  ASSERT_NE(relres, nullptr);
  EXPECT_TRUE(relres->is_null());  // kind preserved: `hpamg diff` skips it
  EXPECT_TRUE(std::isnan(relres->number));
  const JsonValue* seconds = v.find("seconds");
  ASSERT_NE(seconds, nullptr);
  EXPECT_EQ(seconds->number, 1.5);
}


TEST(JsonWriter, DoublesRoundTrip) {
  const double cases[] = {0.0,     -0.0,   1.0 / 3.0, 1e-300, 1e300,
                          6.25e-2, 1e20,   0.1,       123456789.123456789,
                          -2.5e-8, 4503599627370497.0};
  for (double d : cases) {
    JsonWriter w;
    w.begin_array().value(d).end_array();
    JsonValue v = json_parse(w.str());
    ASSERT_EQ(v.items.size(), 1u);
    EXPECT_EQ(v.items[0].number, d) << w.str();
  }
}

TEST(JsonWriter, ThrowsOnMisuse) {
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.str(), std::invalid_argument);  // unclosed container
  }
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.value(1), std::invalid_argument);  // value without key
  }
  {
    JsonWriter w;
    w.begin_array();
    EXPECT_THROW(w.key("k"), std::invalid_argument);  // key inside array
  }
}

// --------------------------------------------------------------- parser ----

TEST(JsonParse, Literals) {
  EXPECT_TRUE(json_parse("null").is_null());
  EXPECT_TRUE(json_parse("true").boolean);
  EXPECT_FALSE(json_parse("false").boolean);
  EXPECT_DOUBLE_EQ(json_parse("-12.5e2").number, -1250.0);
  EXPECT_EQ(json_parse("\"hi\"").text, "hi");
}

TEST(JsonParse, UnicodeEscapes) {
  EXPECT_EQ(json_parse(R"("\u0041\u00e9\u4e2d")").text, "Aé中");
  // Surrogate pair: U+1F600.
  EXPECT_EQ(json_parse(R"("\ud83d\ude00")").text, "\xF0\x9F\x98\x80");
}

TEST(JsonParse, RejectsMalformed) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru", "1 2", "\"\\x\"",
        "\"\\ud83d\"", "{\"a\":1}garbage", "[01]", "nan", "'a'"}) {
    EXPECT_THROW(json_parse(bad), std::invalid_argument) << bad;
  }
}

TEST(JsonParse, ObjectKeepsOrderAndFinds) {
  JsonValue v = json_parse(R"({"z":1,"a":{"b":[true]}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.members[0].first, "z");
  EXPECT_EQ(v.members[1].first, "a");
  EXPECT_TRUE(v.find("a")->find("b")->items[0].boolean);
  EXPECT_EQ(v.find("missing"), nullptr);
}

// -------------------------------------------------------- golden schema ----

SolveReport sample_report() {
  SolveReport r;
  r.solver = "amg";
  r.variant = "optimized";
  r.num_levels = 2;
  r.operator_complexity = 1.5;
  r.grid_complexity = 1.25;
  r.levels.push_back({0, 100, 700, 7.0, 25, 300});
  r.levels.push_back({1, 25, 150, 6.0, 0, 0});
  r.setup_phases.add("RAP", 0.5);
  r.solve_phases.add("GS", 0.25);
  r.setup_work.flops = 1000;
  r.solve_work.flops = 2000;
  r.has_comm = true;
  r.setup_comm.messages_sent = 3;
  r.setup_comm.per_peer = {{2, 96}, {1, 32}};
  r.solve_comm.bytes_sent = 64;
  r.solve_comm.per_peer = {{0, 0}, {4, 64}};
  r.convergence.iterations = 9;
  r.convergence.converged = true;
  r.convergence.final_relres = 1e-8;
  r.convergence.convergence_factor = 0.13;
  r.convergence.residual_history = {1.0, 0.1, 0.01};
  r.status.status = "recovered";
  r.status.nonfinite_iteration = 4;
  r.status.recoveries = 1;
  r.status.events = {"recovered at iteration 4 (non_finite)"};
  r.setup_seconds = 0.6;
  r.solve_seconds = 0.3;
  r.modeled_setup_seconds = 0.05;
  r.modeled_solve_seconds = 0.02;
  return r;
}

std::vector<std::string> member_names(const JsonValue& v) {
  std::vector<std::string> out;
  for (const auto& [k, _] : v.members) out.push_back(k);
  return out;
}

TEST(SolveReportSchema, GoldenFieldNames) {
  // Renaming any emitted field breaks downstream consumers of the
  // BENCH_*.json artifacts; this test makes that a deliberate act.
  JsonWriter w;
  sample_report().write_json(w);
  JsonValue v = json_parse(w.str());

  EXPECT_EQ(member_names(v),
            (std::vector<std::string>{"solver", "variant", "hierarchy",
                                      "phases", "counters", "comm",
                                      "convergence", "status", "times"}));
  EXPECT_EQ(member_names(*v.find("hierarchy")),
            (std::vector<std::string>{"num_levels", "operator_complexity",
                                      "grid_complexity", "levels"}));
  EXPECT_EQ(member_names(v.find("hierarchy")->find("levels")->items[0]),
            (std::vector<std::string>{"level", "rows", "nnz", "nnz_per_row",
                                      "coarse", "interp_nnz", "operator_bytes",
                                      "interp_bytes", "smoother_bytes",
                                      "workspace_bytes"}));
  EXPECT_EQ(member_names(*v.find("phases")),
            (std::vector<std::string>{"setup", "solve"}));
  EXPECT_EQ(member_names(*v.find("counters")),
            (std::vector<std::string>{"setup", "solve"}));
  EXPECT_EQ(member_names(*v.find("counters")->find("setup")),
            (std::vector<std::string>{"flops", "bytes_read", "bytes_written",
                                      "branches", "hash_probes"}));
  EXPECT_EQ(member_names(*v.find("comm")),
            (std::vector<std::string>{"setup", "solve"}));
  EXPECT_EQ(member_names(*v.find("comm")->find("setup")),
            (std::vector<std::string>{"messages_sent", "bytes_sent",
                                      "allreduces", "request_setups",
                                      "persistent_starts", "per_peer"}));
  EXPECT_EQ(member_names(v.find("comm")->find("setup")
                             ->find("per_peer")->items[0]),
            (std::vector<std::string>{"peer", "messages", "bytes"}));
  EXPECT_EQ(member_names(*v.find("convergence")),
            (std::vector<std::string>{"iterations", "converged",
                                      "final_relres", "convergence_factor",
                                      "residual_history"}));
  EXPECT_EQ(member_names(*v.find("status")),
            (std::vector<std::string>{"status", "nonfinite_iteration",
                                      "recoveries", "events"}));
  EXPECT_EQ(member_names(*v.find("times")),
            (std::vector<std::string>{"setup_seconds", "solve_seconds",
                                      "modeled_setup_seconds",
                                      "modeled_solve_seconds"}));
}

TEST(SolveReportSchema, CommOmittedForSingleNode) {
  SolveReport r = sample_report();
  r.has_comm = false;
  JsonWriter w;
  r.write_json(w);
  EXPECT_FALSE(json_parse(w.str()).has("comm"));
}

TEST(SolveReportSchema, ValuesSurvive) {
  JsonWriter w;
  sample_report().write_json(w);
  JsonValue v = json_parse(w.str());
  EXPECT_EQ(v.find("solver")->text, "amg");
  EXPECT_DOUBLE_EQ(v.find("hierarchy")->find("operator_complexity")->number,
                   1.5);
  EXPECT_DOUBLE_EQ(v.find("phases")->find("setup")->find("RAP")->number, 0.5);
  EXPECT_DOUBLE_EQ(v.find("convergence")->find("iterations")->number, 9.0);
  EXPECT_EQ(v.find("convergence")->find("residual_history")->items.size(),
            3u);
  EXPECT_DOUBLE_EQ(
      v.find("comm")->find("solve")->find("bytes_sent")->number, 64.0);
  // Zero-traffic peer 0 is elided; peer 1 keeps its index.
  const JsonValue& solve_pp = *v.find("comm")->find("solve")->find("per_peer");
  ASSERT_EQ(solve_pp.items.size(), 1u);
  EXPECT_DOUBLE_EQ(solve_pp.items[0].find("peer")->number, 1.0);
  EXPECT_DOUBLE_EQ(solve_pp.items[0].find("bytes")->number, 64.0);
  EXPECT_EQ(v.find("status")->find("status")->text, "recovered");
  EXPECT_DOUBLE_EQ(v.find("status")->find("recoveries")->number, 1.0);
  ASSERT_EQ(v.find("status")->find("events")->items.size(), 1u);
}

// ------------------------------------------------------------- envelope ----

TEST(BenchReport, EnvelopeValidates) {
  BenchReport rep("unit");
  rep.set_param("scale", 0.01);
  rep.set_param("ranks", 4);
  rep.set_param("input", "lap3d");
  rep.add_run("case/a").label("variant", "opt").metric("seconds", 1.25);
  rep.add_run("case/b").report(sample_report());
  const std::string js = rep.to_json();
  EXPECT_EQ(validate_bench_report_json(js), "");
  EXPECT_EQ(validate_bench_report_json(js, /*require_solve=*/true), "");

  JsonValue v = json_parse(js);
  EXPECT_DOUBLE_EQ(v.find("schema_version")->number, 1.0);
  EXPECT_EQ(v.find("bench")->text, "unit");
  EXPECT_DOUBLE_EQ(v.find("params")->find("ranks")->number, 4.0);
  EXPECT_EQ(v.find("runs")->items.size(), 2u);
  const JsonValue& run0 = v.find("runs")->items[0];
  EXPECT_EQ(run0.find("name")->text, "case/a");
  EXPECT_EQ(run0.find("labels")->find("variant")->text, "opt");
  EXPECT_DOUBLE_EQ(run0.find("metrics")->find("seconds")->number, 1.25);
  EXPECT_FALSE(run0.has("report"));
  EXPECT_TRUE(v.find("runs")->items[1].has("report"));
}

TEST(BenchReport, AddRunReferencesStayValid) {
  BenchReport rep("unit");
  BenchReport::Run& first = rep.add_run("first");
  for (int i = 0; i < 100; ++i) rep.add_run("r" + std::to_string(i));
  first.metric("late", 1.0);  // must not be a dangling reference
  JsonValue v = json_parse(rep.to_json());
  EXPECT_DOUBLE_EQ(
      v.find("runs")->items[0].find("metrics")->find("late")->number, 1.0);
}

// ------------------------------------------------------------ validator ----

TEST(ValidateBenchReport, RejectsBrokenDocuments) {
  EXPECT_NE(validate_bench_report_json("not json"), "");
  EXPECT_NE(validate_bench_report_json("[]"), "");
  EXPECT_NE(validate_bench_report_json(R"({"bench":"x","runs":[]})"), "");
  EXPECT_NE(validate_bench_report_json(
                R"({"schema_version":2,"bench":"x","params":{},"runs":[]})"),
            "");
  EXPECT_NE(
      validate_bench_report_json(
          R"({"schema_version":1,"bench":"x","params":{},"runs":[{}]})"),
      "");
  // Run with a report missing required blocks.
  EXPECT_NE(validate_bench_report_json(
                R"({"schema_version":1,"bench":"x","params":{},)"
                R"("runs":[{"name":"r","report":{"solver":"amg"}}]})"),
            "");
}

TEST(ValidateBenchReport, RequireSolveNeedsIterations) {
  BenchReport no_solve("unit");
  no_solve.add_run("a").metric("seconds", 1.0);
  EXPECT_EQ(validate_bench_report_json(no_solve.to_json()), "");
  EXPECT_NE(validate_bench_report_json(no_solve.to_json(), true), "");

  BenchReport zero_iters("unit");
  SolveReport r = sample_report();
  r.convergence.iterations = 0;
  zero_iters.add_run("a").report(r);
  EXPECT_NE(validate_bench_report_json(zero_iters.to_json(), true), "");
}

TEST(ValidateBenchReport, NullResidualTelemetryValidates) {
  // A diverged solve's residual-derived doubles (per-iteration relres /
  // conv_factor, final_relres) go NaN and the writer emits null for them;
  // the validator must accept that round trip — structural integers like
  // `iteration` stay strictly numeric.
  SolveReport r = sample_report();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  IterationReportEntry it;
  it.iteration = 1;
  it.relres = nan;
  it.conv_factor = nan;
  it.seconds = 0.01;
  it.presmooth_relres = nan;
  it.smoother_contraction = nan;
  r.iterations.push_back(it);
  r.convergence.final_relres = nan;
  BenchReport rpt("unit");
  rpt.add_run("diverged").report(r);
  EXPECT_EQ(validate_bench_report_json(rpt.to_json(), /*require_solve=*/true),
            "");

  // And the parsed document exposes the nulls as NaN, not 0.0.
  const JsonValue v = json_parse(rpt.to_json());
  const JsonValue& entry =
      v.find("runs")->items[0].find("report")->find("iterations")->items[0];
  ASSERT_TRUE(entry.find("relres")->is_null());
  EXPECT_TRUE(std::isnan(entry.find("relres")->number));
  EXPECT_DOUBLE_EQ(entry.find("iteration")->number, 1.0);
}

TEST(ValidateBenchReport, RunLabeledMNeedsPerRhsMetrics) {
  // Multi-RHS sweep runs (label "m") must carry the per-RHS metric trio so
  // `hpamg diff` can gate the amortization curve.
  BenchReport good("multirhs");
  good.add_run("m2")
      .label("m", "2")
      .metric("per_rhs_solve_seconds", 0.5)
      .metric("per_rhs_flops", 1e6)
      .metric("per_rhs_bytes", 1e7);
  EXPECT_EQ(validate_bench_report_json(good.to_json()), "");

  for (const char* missing : {"per_rhs_solve_seconds", "per_rhs_flops",
                              "per_rhs_bytes"}) {
    BenchReport bad("multirhs");
    BenchReport::Run& run = bad.add_run("m2").label("m", "2");
    for (const char* field : {"per_rhs_solve_seconds", "per_rhs_flops",
                              "per_rhs_bytes"})
      if (std::string(field) != missing) run.metric(field, 1.0);
    const std::string err = validate_bench_report_json(bad.to_json());
    EXPECT_NE(err, "");
    EXPECT_NE(err.find(missing), std::string::npos) << err;
  }

  // An unlabeled run carries no such obligation.
  BenchReport plain("unit");
  plain.add_run("a").metric("seconds", 1.0);
  EXPECT_EQ(validate_bench_report_json(plain.to_json()), "");
}

// ----------------------------------------------------------- end to end ----

TEST(SolveReportEndToEnd, AmgRunValidates) {
  CSRMatrix A = lap3d_7pt(8, 8, 8);
  AMGOptions o;
  o.variant = Variant::kOptimized;
  AMGSolver amg(A, o);
  Vector b(A.nrows, 1.0), x(A.nrows, 0.0);
  SolveResult sr = amg.solve(b, x, 1e-8, 100);
  ASSERT_TRUE(sr.converged);

  SolveReport rep = amg.report(&sr);
  EXPECT_EQ(rep.solver, "amg");
  EXPECT_EQ(rep.variant, "optimized");
  EXPECT_GE(rep.num_levels, 2);
  EXPECT_EQ(Int(rep.levels.size()), rep.num_levels);
  EXPECT_GT(rep.operator_complexity, 1.0);
  EXPECT_EQ(rep.convergence.iterations, sr.iterations);
  EXPECT_EQ(Int(rep.convergence.residual_history.size()), sr.iterations);

  BenchReport env("unit");
  env.add_run("lap3d").report(rep);
  EXPECT_EQ(validate_bench_report_json(env.to_json(), true), "");
}

}  // namespace
}  // namespace hpamg

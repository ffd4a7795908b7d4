// The `hpamg` tool's subcommands driven in-process through tool::run:
// usage errors return 2, a valid artifact 0, an invalid artifact 1 (diff
// keeps its own contract: 1 = regression, 2 = unreadable or incomparable
// reports), and `top --help` 0.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <string>
#include <vector>

#include "reader/tool.hpp"
#include "support/report.hpp"

namespace hpamg {
namespace {

namespace fs = std::filesystem;

/// Runs `hpamg <args...>` in-process and returns its exit code.
int hpamg_cmd(std::initializer_list<std::string> args) {
  std::vector<std::string> store = {"hpamg"};
  store.insert(store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : store) argv.push_back(s.data());
  return tool::run(int(argv.size()), argv.data());
}

/// Writes `text` to a fresh file under the test temp dir.
std::string write_tmp(const std::string& name, const std::string& text) {
  const fs::path dir = fs::path(::testing::TempDir()) / "hpamg_tool";
  fs::create_directories(dir);
  const std::string path = (dir / name).string();
  std::ofstream(path) << text;
  return path;
}

std::string bench_json(double seconds) {
  BenchReport rep("synthetic");
  rep.set_param("scale", 0.01);
  rep.add_run("case").metric("total_seconds", seconds);
  return rep.to_json();
}

constexpr const char* kCleanTrace = R"({"traceEvents":[
  {"ph":"M","pid":0,"name":"process_name","args":{"name":"rank 0"}},
  {"ph":"X","name":"solve","cat":"phase","pid":0,"tid":0,"ts":0,"dur":50},
  {"ph":"X","name":"mpi.recv","cat":"blocked","pid":0,"tid":0,"ts":10,"dur":20},
  {"ph":"s","id":1,"pid":1,"tid":0,"ts":5,"args":{"bytes":300}},
  {"ph":"f","id":1,"pid":0,"tid":0,"ts":25}
],"displayTimeUnit":"ms","otherData":{"dropped_events":0}})";

// Same trace with the recv side of the arrow lost and no drops reported.
constexpr const char* kUnmatchedTrace = R"({"traceEvents":[
  {"ph":"X","name":"mpi.recv","cat":"blocked","pid":0,"tid":0,"ts":10,"dur":20},
  {"ph":"s","id":1,"pid":1,"tid":0,"ts":5,"args":{"bytes":300}}
],"displayTimeUnit":"ms","otherData":{"dropped_events":0}})";

TEST(Tool, UsageErrorsReturnTwo) {
  EXPECT_EQ(hpamg_cmd({}), 2);
  EXPECT_EQ(hpamg_cmd({"frobnicate"}), 2);
  for (const char* sub : {"check", "diff", "trace", "perf", "top"})
    EXPECT_EQ(hpamg_cmd({sub}), 2) << sub;
  EXPECT_EQ(hpamg_cmd({"diff", "only-one.json"}), 2);
  EXPECT_EQ(hpamg_cmd({"top", "--help"}), 0);
}

TEST(Tool, CheckValidatesReports) {
  const std::string good = write_tmp("good.json", bench_json(1.0));
  const std::string bad = write_tmp("bad.json", R"({"bench":"x"})");
  EXPECT_EQ(hpamg_cmd({"check", good}), 0);
  EXPECT_EQ(hpamg_cmd({"check", bad}), 1);
  EXPECT_EQ(hpamg_cmd({"check", good, bad}), 1);
  EXPECT_EQ(hpamg_cmd({"check", "--require-metrics", good}), 1);
  EXPECT_EQ(hpamg_cmd({"check", good + ".missing"}), 1);
}

TEST(Tool, DiffGatesOnRegressions) {
  const std::string base = write_tmp("base.json", bench_json(1.0));
  const std::string slow = write_tmp("slow.json", bench_json(1.8));
  const std::string bad = write_tmp("bad.json", R"({"bench":"x"})");
  EXPECT_EQ(hpamg_cmd({"diff", base, base}), 0);
  EXPECT_EQ(hpamg_cmd({"diff", base, slow}), 1);
  // --all is a switch: it must not swallow the positional after it.
  EXPECT_EQ(hpamg_cmd({"diff", "--all", "--time-tol", "1.0", base, slow}), 0);
  EXPECT_EQ(hpamg_cmd({"diff", base, bad}), 2);
}

TEST(Tool, TraceChecksTheTimeline) {
  const std::string clean = write_tmp("clean.json", kCleanTrace);
  const std::string unmatched = write_tmp("unmatched.json", kUnmatchedTrace);
  const std::string not_trace = write_tmp("runs.json", R"({"runs":[]})");
  EXPECT_EQ(hpamg_cmd({"trace", "--check", clean}), 0);
  EXPECT_EQ(hpamg_cmd({"trace", "--check", unmatched}), 1);
  EXPECT_EQ(hpamg_cmd({"trace", unmatched}), 0);  // reports, does not gate
  EXPECT_EQ(hpamg_cmd({"trace", "--check", not_trace}), 1);
  EXPECT_EQ(hpamg_cmd({"trace", clean + ".missing"}), 2);
}

TEST(Tool, PerfChecksReportAndTrace) {
  const std::string good = write_tmp("good.json", bench_json(1.0));
  const std::string bad = write_tmp("bad.json", R"({"bench":"x"})");
  const std::string clean = write_tmp("clean.json", kCleanTrace);
  const std::string unmatched = write_tmp("unmatched.json", kUnmatchedTrace);
  const std::string diag =
      (fs::path(::testing::TempDir()) / "hpamg_tool" / "diag.json").string();
  EXPECT_EQ(hpamg_cmd({"perf", "--check", "--json", diag, good, clean}), 0);
  EXPECT_TRUE(fs::exists(diag));
  EXPECT_EQ(hpamg_cmd({"perf", "--check", bad}), 1);
  EXPECT_EQ(hpamg_cmd({"perf", "--check", good, unmatched}), 1);
}

TEST(Tool, TopChecksProgressStream) {
  const std::string sample =
      R"({"seq":1,"ts_ms":5,"ranks":[{"rank":0,"epoch":1,"age_ms":2,)"
      R"("iteration":3,"level":0,"blocked_s":0,"blocked_frac":0.25,)"
      R"("relres":1e-3,"conv_factor":null,"phase":"solve","waiting":false}],)"
      R"("counters":{},"gauges":{}})";
  const std::string next = R"({"seq":2,"ts_ms":9,"ranks":[],)"
                           R"("counters":{},"gauges":{}})";
  const std::string good =
      write_tmp("progress.jsonl", sample + "\n" + next + "\n");
  const std::string gap =
      write_tmp("gap.jsonl", sample + "\n" + sample + "\n");  // seq repeats
  EXPECT_EQ(hpamg_cmd({"top", "--check", good}), 0);
  EXPECT_EQ(hpamg_cmd({"top", good}), 0);
  EXPECT_EQ(hpamg_cmd({"top", gap, "--check"}), 1);
  EXPECT_EQ(hpamg_cmd({"top", "--check", good + ".missing"}), 1);
}

}  // namespace
}  // namespace hpamg

// Self-tests of the benchmark's own arithmetic: the p95 sample-count rule,
// span self times, the metric-name and unit charsets, and the residual
// check counting a perturbed solution as a failure. Exits non-zero on the
// first failed expectation; perfbench/run.py runs it before every workload.
#include <cmath>
#include <cstdio>
#include <string>

#include "amg/solver.hpp"
#include "common.hpp"
#include "gen/stencil.hpp"

namespace {

int failures = 0;

void expect(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

bool valid_unit(const std::string& u) {
  if (u.empty() || u.size() > 16) return false;
  for (char c : u)
    if (!std::isalnum(static_cast<unsigned char>(c)) &&
        std::string("_/%.-").find(c) == std::string::npos)
      return false;
  return true;
}

void test_tail_rule() {
  auto ramp = [](int n) {
    std::vector<double> v;
    for (int i = 0; i < n; ++i) v.push_back(double(n - i));  // unsorted
    return v;
  };
  expect(!pb::tail_quantile(ramp(180), 0.95), "p95 of 180 samples is invalid");
  expect(pb::samples_beyond(ramp(180), 0.95) == 9, "180 samples: 9 beyond p95");
  expect(pb::tail_quantile(ramp(200), 0.95).has_value(),
         "p95 of 200 samples is valid");
  expect(pb::samples_beyond(ramp(200), 0.95) == 10,
         "200 samples: 10 beyond p95");
  expect(!pb::tail_quantile(std::vector<double>(1000, 1.0), 0.95),
         "p95 of identical samples has none beyond it");
  expect(near(pb::median({3.0, 1.0, 2.0}), 2.0), "median of 3");
  expect(near(pb::median({4.0, 1.0, 2.0, 3.0}), 2.5), "median of 4");
}

void test_self_time() {
  using pb::Span;
  // parent [0,10]; children [1,4] and [3,6] overlap (merged to [1,6]);
  // a grandchild [2,3] under the first child; a child running past its
  // parent is clipped to it.
  std::vector<Span> s = {
      {"parent", 0.0, 10.0, -1, 1}, {"a", 1.0, 4.0, 0, 1},
      {"b", 3.0, 6.0, 0, 1},        {"g", 2.0, 3.0, 1, 1},
      {"root2", 20.0, 30.0, -1, 2}, {"late", 25.0, 35.0, 4, 2},
  };
  const std::vector<double> self = pb::self_times(s);
  expect(near(self[0], 5.0), "parent self = 10 - |[1,6]|");
  expect(near(self[1], 2.0), "child self = 3 - grandchild 1");
  expect(near(self[2], 3.0), "overlapping sibling keeps its own self");
  expect(near(self[3], 1.0), "leaf self = duration");
  expect(near(self[4], 5.0), "child clipped to its parent");
  pb::SpanTable t;
  expect(pb::summarize(s, t), "nested spans summarize");
  expect(near(t["a"].total, 3.0) && t["a"].count == 1, "totals by name");
  // A child whose own self time exceeds its parent's duration.
  std::vector<Span> bad = {{"p", 0.0, 1.0, -1, 0}, {"c", 0.0, 5.0, 0, 0}};
  pb::SpanTable t2;
  expect(!pb::summarize(bad, t2), "child self > parent span is rejected");
}

void test_names() {
  for (const auto* specs : {&pb::end_to_end_specs(), &pb::per_layer_specs()})
    for (const pb::MetricSpec& m : *specs) {
      expect(pb::valid_metric_name(m.name), m.name);
      expect(valid_unit(m.unit), m.unit);
    }
  expect(!pb::valid_metric_name(""), "empty name");
  expect(!pb::valid_metric_name("_x"), "name starting with _");
  expect(!pb::valid_metric_name("a b"), "name with a space");
  expect(!pb::valid_metric_name(std::string(65, 'a')), "65-char name");
  expect(pb::valid_metric_name("amg.smooth_gbps"), "dotted name");
  expect(!valid_unit("GB per s"), "unit with spaces");
}

void test_error_rate() {
  const hpamg::CSRMatrix A = hpamg::lap3d_7pt(10, 10, 10);
  hpamg::AMGSolver s(A, pb::table3(0.25));
  const pb::Vector b = pb::random_rhs(A.nrows, 7);
  pb::Vector x(A.nrows, 0.0);
  const hpamg::SolveResult r = s.solve(b, x, pb::kRtol);
  pb::Outcome o;
  o.count(hpamg::status_ok(r.status) &&
          pb::residual_ok(pb::relative_residual(A, b.data(), x.data()),
                          pb::kRtol));
  x[A.nrows / 2] += 1e-3;  // a wrong answer the solver did not produce
  o.count(pb::residual_ok(pb::relative_residual(A, b.data(), x.data()),
                          pb::kRtol));
  expect(o.attempted == 2 && o.failed == 1,
         "perturbed solution counts as one failure in two");
  expect(!pb::residual_ok(NAN, pb::kRtol), "NaN residual fails the check");
}

}  // namespace

int main() {
  test_tail_rule();
  test_self_time();
  test_names();
  test_error_rate();
  if (failures == 0) std::printf("perfbench selftest: ok\n");
  return failures == 0 ? 0 : 1;
}

// Bench-report regression diffing: compares two BENCH_*.json documents
// (support/report.hpp schema) metric-by-metric so the perf trajectory in
// version control can be gated. `hpamg diff` wraps this; tests
// drive it on synthetic report pairs (tests/test_metrics.cpp).
//
// Metrics are classified by key:
//   kTiming — wall-clock-derived, lower is better, compared with a loose
//             relative tolerance plus an absolute floor (smoke-size runs
//             finish in milliseconds; sub-floor times never gate);
//   kWork   — machine-independent counts (flops, bytes, iterations,
//             nnz, complexities, comm traffic), lower is better, tight
//             relative tolerance and no floor (they are deterministic for
//             a pinned thread count);
//   kInfo   — everything else (ratios, speedups, environment-dependent
//             values like RSS): reported in the table, never gates.
//
// Envelope-level `perf.*` gauges (roofline efficiency published by
// perfmodel/attrib) are diffed as kInfo with run name "": host- and
// coverage-dependent, so advisory only — never kMissing, never a gate.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace hpamg {

enum class MetricClass { kTiming, kWork, kInfo };

/// Classification from the (dotted) metric key alone.
MetricClass classify_metric(std::string_view key);

struct DiffOptions {
  /// Timing regression threshold: new > old * (1 + time_rel_tol) fails.
  double time_rel_tol = 0.50;
  /// Work regression threshold: new > old * (1 + work_rel_tol) fails.
  double work_rel_tol = 0.25;
  /// Timing deltas where both sides are below this never gate (smoke runs
  /// are noise-dominated at the millisecond scale).
  double time_floor_seconds = 0.05;
};

struct MetricDelta {
  std::string run;  ///< run name; "" for envelope-level entries
  std::string key;  ///< dotted path within the run
  double old_value = 0.0;
  double new_value = 0.0;
  MetricClass cls = MetricClass::kInfo;
  enum class Verdict {
    kOk,        ///< within tolerance (or kInfo)
    kImproved,  ///< better beyond tolerance (informational)
    kRegressed, ///< worse beyond tolerance — gates
    kMissing,   ///< present in old, absent in new — gates
    kAdded,     ///< new metric/run (informational)
  };
  Verdict verdict = Verdict::kOk;
};

struct DiffResult {
  /// Parse/validation/config-mismatch failure; deltas are empty when set.
  std::string error;
  std::vector<MetricDelta> deltas;
  int regressions = 0;
  int improvements = 0;
  int missing = 0;
  int added = 0;
  /// True when the new report is acceptable against the old one.
  bool ok() const { return error.empty() && regressions == 0 && missing == 0; }
};

/// Diffs two report documents (old = baseline, new = candidate). Reports
/// with different bench names, or params present in both documents with
/// different values, fail with `error` set — comparing different
/// configurations is meaningless, not a regression.
DiffResult diff_bench_reports(std::string_view old_json,
                              std::string_view new_json,
                              const DiffOptions& opts = {});

}  // namespace hpamg

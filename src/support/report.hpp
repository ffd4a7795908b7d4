// Machine-readable reporting: a dependency-free JSON writer/parser, the
// SolveReport aggregate (per-level hierarchy stats, phase breakdowns, work
// counters, communication stats, convergence history, perfmodel
// projections), and the BENCH_*.json envelope every bench binary emits
// behind its `--json <path>` flag.
//
// The emitted field names are the repo's perf-trajectory schema: CI
// validates them (reader/validate.hpp, run by `hpamg check` and the
// `report_schema` target) and tests/test_report.cpp pins them as a golden
// schema, so renaming a field is a deliberate, test-visible act. Schema reference: README.md
// ("Machine-readable bench output").
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/commstats.hpp"
#include "support/common.hpp"
#include "support/counters.hpp"
#include "support/metrics.hpp"
#include "support/timer.hpp"

namespace hpamg {

// ------------------------------------------------------------------------
// JSON writer
// ------------------------------------------------------------------------

/// Streaming JSON writer with comma/nesting bookkeeping. Strings are
/// escaped per RFC 8259 (UTF-8 passes through, control characters become
/// \uXXXX); non-finite doubles are written as `null` (JSON has no NaN/Inf
/// — consumers must treat a null metric as "not a number").
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  /// Member key inside an object; must be followed by exactly one value
  /// or container.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(const std::string& v) {
    return value(std::string_view(v));
  }
  JsonWriter& value(bool v);
  JsonWriter& value(double v);
  JsonWriter& value(int v) { return write_int(v); }
  JsonWriter& value(long v) { return write_int(v); }
  JsonWriter& value(long long v) { return write_int(v); }
  JsonWriter& value(unsigned v) { return write_uint(v); }
  JsonWriter& value(unsigned long v) { return write_uint(v); }
  JsonWriter& value(unsigned long long v) { return write_uint(v); }
  JsonWriter& null();

  template <typename T>
  JsonWriter& kv(std::string_view k, T&& v) {
    key(k);
    return value(std::forward<T>(v));
  }

  /// Finished document; throws if containers are still open.
  const std::string& str() const;

 private:
  JsonWriter& write_int(long long v);
  JsonWriter& write_uint(unsigned long long v);
  void before_value();
  void raw(std::string_view s) { out_.append(s); }

  enum class Frame : unsigned char { kObject, kArray };
  std::string out_;
  std::vector<Frame> stack_;
  std::vector<bool> has_items_;
  bool key_pending_ = false;
};

// ------------------------------------------------------------------------
// JSON parser (for validation and round-trip tests)
// ------------------------------------------------------------------------

/// Parsed JSON document node. Objects keep member order.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> items;  ///< array elements
  std::vector<std::pair<std::string, JsonValue>> members;  ///< object fields

  bool is_null() const { return kind == Kind::kNull; }
  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_bool() const { return kind == Kind::kBool; }
  /// Member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view k) const;
  bool has(std::string_view k) const { return find(k) != nullptr; }
};

/// Parses one JSON document (throws std::invalid_argument on malformed
/// input or trailing garbage).
JsonValue json_parse(std::string_view src);

// ------------------------------------------------------------------------
// Solve report
// ------------------------------------------------------------------------

/// One level of the hierarchy table (AMGSolver and DistAMG both emit it).
struct LevelReportEntry {
  Int level = 0;
  Long rows = 0;
  Long nnz = 0;
  double nnz_per_row = 0.0;
  Long coarse = 0;       ///< coarse points selected on this level
  Long interp_nnz = 0;   ///< nnz of this level's interpolation operator
  // Table 2 memory columns (analytic footprints; see amg/hierarchy.hpp).
  std::uint64_t operator_bytes = 0;   ///< level operator A_l
  std::uint64_t interp_bytes = 0;     ///< P (and kept R/P^T) storage
  std::uint64_t smoother_bytes = 0;   ///< smoother plans; coarse LU on the
                                      ///< last level
  std::uint64_t workspace_bytes = 0;  ///< per-cycle solve vectors
};

/// Setup/solve memory totals for the report's "memory" block.
struct MemoryReport {
  /// Bytes held after setup: Σ levels (operator + interp + smoother).
  std::uint64_t setup_bytes = 0;
  /// Bytes touched by the solve phase: setup_bytes + solve workspace.
  std::uint64_t solve_bytes = 0;
  /// Process peak RSS at report time (metrics::peak_rss_bytes; includes
  /// everything the process ever allocated, so >= the analytic totals).
  std::uint64_t peak_rss_bytes = 0;
};

struct ConvergenceReport {
  Int iterations = 0;
  bool converged = false;
  double final_relres = 0.0;
  double convergence_factor = 0.0;  ///< geomean contraction per iteration
  std::vector<double> residual_history;
};

/// One row of the report's optional `roofline` block: measured time joined
/// with work counters and the MachineModel ceilings for one (kernel, level)
/// pair (perfmodel/attrib.hpp fills these). Fractions are clamped into
/// (0, 1]: a kernel beating the modeled ceiling reports 1.0, and entries
/// with zero bytes or zero measured time are never emitted.
struct RooflineEntry {
  std::string kernel;
  Int level = -1;  ///< -1 = not level-resolved
  long calls = 0;
  double seconds = 0.0;  ///< measured wall (or per-rank CPU) time, summed
  std::uint64_t flops = 0;
  std::uint64_t bytes = 0;  ///< bytes read + written (work counters)
  double achieved_bw_bytes_per_s = 0.0;  ///< bytes / seconds
  double modeled_seconds = 0.0;  ///< MachineModel::seconds on the counters
  /// achieved bandwidth / effective STREAM ceiling
  /// (stream_bw * sparse_efficiency), clamped into (0, 1].
  double bw_fraction = 0.0;
  /// modeled_seconds / seconds, clamped into (0, 1] — how close the kernel
  /// ran to the roofline the machine model predicts for its counters.
  double efficiency = 0.0;
};

/// One entry of the report's optional `iterations` array: per-iteration
/// solve telemetry (amg/telemetry.hpp records these when metrics are
/// enabled). `presmooth_relres` / `smoother_contraction` are < 0 when the
/// extra fine-level residual was not measured; they are omitted from the
/// JSON in that case.
struct IterationReportEntry {
  Int iteration = 0;   ///< 1-based, matching residual_history indexing
  double relres = 0.0;  ///< relative residual after this iteration
  /// relres / previous relres (previous = initial residual for it 1);
  /// 0 when the previous residual was not positive.
  double conv_factor = 0.0;
  double seconds = 0.0;  ///< wall time of this cycle + residual check
  std::vector<double> level_seconds;  ///< per-level self-time split
  double presmooth_relres = -1.0;  ///< relres after fine-level pre-smoothing
  /// presmooth_relres / previous relres: the fine smoother's contraction
  /// before any coarse-grid correction this iteration.
  double smoother_contraction = -1.0;
};

/// Terminal status + resilience incidents — the report's `status` block.
/// `status` holds status_name() of the Status taxonomy (support/error.hpp);
/// it stays "ok" for setup-only reports.
struct StatusReport {
  std::string status = "ok";
  Int nonfinite_iteration = -1;  ///< first NaN/Inf iteration; -1 if none
  Int recoveries = 0;            ///< scrub-and-restart recoveries performed
  /// Setup + solve incident log (degenerate coarse operator, recoveries).
  std::vector<std::string> events;
};

/// Everything a solver run exposes for regression tracking: hierarchy
/// quality, phase breakdowns, machine-independent work counters, comm
/// traffic (distributed runs), convergence, and measured plus
/// perfmodel-projected times. Field names are schema-stable (see header
/// comment).
struct SolveReport {
  std::string solver;   ///< "amg" | "fgmres+amg"
  std::string variant;  ///< "baseline" | "optimized"

  Int num_levels = 0;
  double operator_complexity = 0.0;
  double grid_complexity = 0.0;
  std::vector<LevelReportEntry> levels;

  PhaseTimes setup_phases;
  PhaseTimes solve_phases;
  WorkCounters setup_work;
  WorkCounters solve_work;

  bool has_comm = false;  ///< distributed runs only
  simmpi::CommStats setup_comm;
  simmpi::CommStats solve_comm;

  bool has_memory = false;  ///< solver benches set this (Table 2 columns)
  MemoryReport memory;

  /// Optional roofline attribution block (emitted when non-empty); see
  /// perfmodel/attrib.hpp.
  std::vector<RooflineEntry> roofline;
  /// Optional per-iteration telemetry (emitted when non-empty); see
  /// amg/telemetry.hpp.
  std::vector<IterationReportEntry> iterations;

  ConvergenceReport convergence;
  StatusReport status;

  double setup_seconds = 0.0;  ///< measured on this host
  double solve_seconds = 0.0;
  double modeled_setup_seconds = 0.0;  ///< perfmodel projection
  double modeled_solve_seconds = 0.0;

  /// Emits the report object at the writer's current position.
  void write_json(JsonWriter& w) const;
};

// ------------------------------------------------------------------------
// Bench report envelope
// ------------------------------------------------------------------------

/// Environment + registry snapshot emitted as the envelope's "metrics"
/// block when a bench ran with metrics enabled. The environment fields
/// (threads, build, net model) come from one place — bench_util's RunEnv —
/// so they always agree with the tracer's metadata.
struct MetricsEnvelope {
  int threads = 0;
  std::string build;     ///< "release" | "debug"
  std::string compiler;  ///< may be empty
  std::uint64_t peak_rss_bytes = 0;
  double net_overhead_s = 0.0;
  double net_peak_bw_bytes_per_s = 0.0;
  double net_setup_cost_s = 0.0;
  double net_rendezvous_extra_s = 0.0;
  std::uint64_t net_eager_limit_bytes = 0;
  metrics::Snapshot registry;
};

/// Accumulates one bench binary's machine-readable output and writes the
/// BENCH_<name>.json envelope:
///   { "schema_version": 1, "bench": "...", "params": {...},
///     "runs": [ { "name": ..., "labels": {...}, "metrics": {...},
///                 "report": { <SolveReport> } } ] }
class BenchReport {
 public:
  static constexpr long kSchemaVersion = 1;

  explicit BenchReport(std::string bench) : bench_(std::move(bench)) {}

  void set_param(const std::string& k, const std::string& v);
  void set_param(const std::string& k, const char* v) {
    set_param(k, std::string(v));
  }
  void set_param(const std::string& k, double v);
  void set_param(const std::string& k, long v);
  void set_param(const std::string& k, int v) { set_param(k, long(v)); }

  struct Run {
    std::string name;
    std::vector<std::pair<std::string, std::string>> labels;
    std::vector<std::pair<std::string, double>> metrics;
    std::optional<SolveReport> solve;

    Run& label(const std::string& k, const std::string& v) {
      labels.emplace_back(k, v);
      return *this;
    }
    Run& metric(const std::string& k, double v) {
      metrics.emplace_back(k, v);
      return *this;
    }
    Run& report(SolveReport r) {
      solve = std::move(r);
      return *this;
    }
  };

  /// Appends a run; the reference stays valid across later add_run calls.
  Run& add_run(const std::string& name);

  /// Attaches the envelope-level "metrics" block (environment + registry
  /// snapshot + peak RSS). Last call wins.
  void set_metrics(MetricsEnvelope m) { metrics_ = std::move(m); }

  std::string to_json() const;
  /// Writes to_json() to `path`; false (with errno intact) on I/O failure.
  bool write_file(const std::string& path) const;

 private:
  struct Param {
    std::string key;
    bool numeric = false;
    double number = 0.0;
    bool integral = false;
    long integer = 0;
    std::string text;
  };
  std::string bench_;
  std::vector<Param> params_;
  std::vector<std::unique_ptr<Run>> runs_;
  std::optional<MetricsEnvelope> metrics_;
};

}  // namespace hpamg

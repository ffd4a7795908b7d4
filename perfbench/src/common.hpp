// Shared plumbing for the hpamg benchmark: run configuration, the
// benchmark-side span tracer, sample statistics, the independent residual
// check and the metric tables every workload reports against.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "amg/hierarchy.hpp"
#include "matrix/csr.hpp"

namespace pb {

using hpamg::CSRMatrix;
using hpamg::Int;
using hpamg::Long;
using hpamg::Vector;

// ---------------------------------------------------------------------------
// Run configuration. Pinned so iteration counts and thread counts do not
// depend on the host: the hybrid-GS partition count fixes the smoother's
// Jacobi boundaries, and so the convergence, independently of the thread
// count.
// ---------------------------------------------------------------------------

inline constexpr int kThreads = 2;        ///< OpenMP threads of one solve
inline constexpr int kGsPartitions = 2;   ///< AMGOptions::gs_partitions
inline constexpr double kRtol = 1e-7;
/// A solve passes the independent check when its recomputed relative
/// residual is at most kCheckFactor * rtol.
inline constexpr double kCheckFactor = 10.0;
/// latency_p95_s is valid only with at least this many samples beyond it.
inline constexpr int kTailSamples = 10;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (timed runs), printed on every workload.
const std::vector<MetricSpec>& end_to_end_specs();
/// Per-layer metrics (traced runs), printed on every workload; a layer the
/// workload does not call reads 0.
const std::vector<MetricSpec>& per_layer_specs();

/// Metric names: a letter or digit first, then letters, digits, '_', '.'
/// and '-', at most 64 characters.
bool valid_metric_name(const std::string& name);

struct Outcome {
  long attempted = 0;
  long failed = 0;  ///< non-ok Status or failed residual check
  std::map<std::string, double> values;
  std::vector<std::string> notes;  ///< printed before the result line
  /// The benchmark itself could not produce valid figures (too few tail
  /// samples, inconsistent spans): no result is printed.
  bool broken = false;

  void set(const std::string& name, double v) { values[name] = v; }
  /// Counts one solve or request; `ok` false counts it as failed.
  void count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

double median(std::vector<double> v);
/// Linear-interpolated quantile q in [0, 1].
double quantile(std::vector<double> v, double q);
/// Samples strictly above the q-quantile.
std::size_t samples_beyond(const std::vector<double>& v, double q);
/// The q-quantile when at least kTailSamples samples lie beyond it.
std::optional<double> tail_quantile(const std::vector<double>& v, double q);

// ---------------------------------------------------------------------------
// Correctness: ||b - A x|| / ||b|| recomputed by a plain serial loop that
// shares no code with the library's kernels.
// ---------------------------------------------------------------------------

double relative_residual(const CSRMatrix& A, const double* b, const double* x,
                         std::size_t stride = 1);
inline bool residual_ok(double relres, double rtol) {
  return relres == relres && relres <= kCheckFactor * rtol;
}

/// Seeded right-hand side in [-1, 1).
Vector random_rhs(Int n, std::uint64_t seed);

// ---------------------------------------------------------------------------
// Benchmark-side tracer: spans around calls into the library's public
// functions, kept in memory and written when the workload ends.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the tracer was created
  double end = 0.0;
  int parent = -1;     ///< index into the span list; -1 for a root
  std::uint64_t request = 0;  ///< service request id; 0 outside the service
};

class Tracer {
 public:
  std::atomic<bool> on{false};

  int begin(const char* name, std::uint64_t request);
  void end(int idx);
  std::vector<Span> spans() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

Tracer& tracer();
double now_s();

/// RAII span; free when the tracer is off.
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t request = 0)
      : idx_(tracer().on ? tracer().begin(name, request) : -1) {}
  ~Scope() {
    if (idx_ >= 0) tracer().end(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int idx_;
};

/// Self time of every span: its duration minus the part of it that its
/// children cover (children clipped to the parent, overlaps merged).
std::vector<double> self_times(const std::vector<Span>& spans);

struct SpanTotals {
  double total = 0.0;  ///< summed durations
  double self = 0.0;   ///< summed self times
  long count = 0;
};

/// Aggregates by span name. Fails (returns false) when a child's self time
/// exceeds its parent's duration.
bool summarize(const std::vector<Span>& spans,
               std::map<std::string, SpanTotals>& out);

/// Writes the spans as JSON lines with self times.
void write_trace(const std::string& path, const std::vector<Span>& spans);

using SpanTable = std::map<std::string, SpanTotals>;

/// Summed duration of the spans called `name` (0 if none ran).
inline double total_of(const SpanTable& t, const std::string& name) {
  auto it = t.find(name);
  return it == t.end() ? 0.0 : it->second.total;
}

/// Stops tracing, writes the spans under cfg.out_dir, counts them in
/// trace.spans and returns the per-name totals. Marks `o` broken on
/// inconsistent spans.
SpanTable finish_trace(const RunConfig& cfg, Outcome& o);

// ---------------------------------------------------------------------------
// Shared layer replay.
// ---------------------------------------------------------------------------

/// Replays the setup-phase layer calls on every level of a built optimized
/// hierarchy (strength, coarsening, CF permutation, interpolation, RAP,
/// smoother plan) under spans, so the traced run times each layer from the
/// benchmark's own code.
void replay_setup_layers(const hpamg::Hierarchy& h);

/// Sets the six setup-layer metrics (amg.strength_s, ...) to the replayed
/// span totals divided by `units` set-up units.
void set_setup_layers(const SpanTable& t, double units, Outcome& o);

/// Adds the hierarchy's memory gauges (amg.hierarchy_bytes,
/// amg.smoother_bytes) to `o`.
void add_memory(const hpamg::Hierarchy& h, Outcome& o);

/// Table 3 single-node options with the benchmark's pinned partitions.
hpamg::AMGOptions table3(double strength_threshold);

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

/// Each workload fills the end-to-end metrics (trace off) or the per-layer
/// metrics (trace on) of `o`.
void run_suite_cold(const RunConfig& cfg, Outcome& o);
void run_rhs_stream(const RunConfig& cfg, Outcome& o);
void run_service_mix(const RunConfig& cfg, Outcome& o);
void run_dist_fgmres(const RunConfig& cfg, Outcome& o);

/// Loop condition of the timed loops: run while `minimum` is unmet, the
/// run's seconds are not used up, or latency_p95_s lacks kTailSamples
/// samples beyond it (ties can leave fewer than 5% above the quantile).
/// Stops at three times the run's seconds whatever holds; add_latency
/// then reports a run still short of tail samples as broken.
inline bool keep_going(bool minimum, double start, const RunConfig& cfg,
                       const std::vector<double>& latencies) {
  const double elapsed = now_s() - start;
  if (elapsed >= 3.0 * cfg.seconds) return false;
  return minimum || elapsed < cfg.seconds ||
         !tail_quantile(latencies, 0.95).has_value();
}

/// Latency summary shared by all workloads: p50, p95 (tail-checked),
/// throughput. Returns false if p95 has too few samples beyond it.
bool add_latency(const std::vector<double>& latencies, double wall_s,
                 long completed_ok, Outcome& o);

}  // namespace pb

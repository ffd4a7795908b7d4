// Shared helpers for the figure-reproduction benches: configured solver
// runs, fixed-width table printing, repeat/statistics plumbing, and the
// Table 3 / Table 4 parameter presets.
#pragma once

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "amg/solver.hpp"
#include "dist/dist_krylov.hpp"
#include "perfmodel/attrib.hpp"
#include "perfmodel/machine.hpp"
#include "perfmodel/network.hpp"
#include "perfmodel/project.hpp"
#include "reader/validate.hpp"
#include "support/cli.hpp"
#include "support/live.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/report.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace hpamg::bench {

/// Table 3: single-node standalone-AMG configuration.
inline AMGOptions table3_options(Variant v, double strength_threshold = 0.25) {
  AMGOptions o;
  o.variant = v;
  o.max_levels = 7;
  o.strength.threshold = strength_threshold;
  o.strength.max_row_sum = 0.8;
  o.interp = InterpKind::kExtPI;
  o.truncation.trunc_fact = 0.1;
  o.truncation.max_elmts = 4;
  o.smoother = SmootherKind::kHybridGS;
  return o;
}

/// Table 4: multi-node FGMRES+AMG configuration for a named scheme
/// (ei(4) / 2s-ei(444) / mp).
inline DistAMGOptions table4_options(Variant v, const std::string& scheme) {
  DistAMGOptions o;
  o.variant = v;
  o.max_levels = 16;
  o.strength.threshold = 0.25;
  o.strength.max_row_sum = 0.8;
  o.truncation.trunc_fact = 0.1;
  o.truncation.max_elmts = 4;
  if (scheme == "2s-ei") {
    o.interp = InterpKind::kExtPI2Stage;
    o.num_aggressive_levels = 1;
  } else if (scheme == "mp") {
    o.interp = InterpKind::kMultipass;
    o.num_aggressive_levels = 1;
  } else {
    o.interp = InterpKind::kExtPI;
  }
  return o;
}

/// Prints a row of fixed-width cells.
inline void print_row(const std::vector<std::string>& cells, int width = 12) {
  for (const std::string& c : cells) std::printf("%-*s", width, c.c_str());
  std::printf("\n");
}

inline std::string fmt(double v, const char* f = "%.4g") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

inline std::string fmt_int(long v) { return std::to_string(v); }

/// Sum of the "compute" phase categories of a solve-phase breakdown.
inline double solve_compute_seconds(const PhaseTimes& pt) {
  return pt.get("GS") + pt.get("SpMV") + pt.get("BLAS1") +
         pt.get("Solve_etc");
}

// ------------------------------------------------------------------------
// Run environment (single source of truth)
// ------------------------------------------------------------------------

/// Environment facts every bench surfaces — thread count, build flavor,
/// compiler, and the network-model calibration. TraceSink metadata and the
/// JSON report's metrics envelope both read from the SAME RunEnv instance,
/// so the two outputs cannot disagree.
struct RunEnv {
  std::string bench;
  int threads = num_threads();
  std::string build;
  std::string compiler;
  NetworkModel net;

  explicit RunEnv(std::string bench_name) : bench(std::move(bench_name)) {
#if defined(NDEBUG)
    build = "release";
#else
    build = "debug";
#endif
#if defined(__VERSION__)
    compiler = __VERSION__;
#endif
  }

  /// Metrics envelope for the JSON report (registry snapshot and peak RSS
  /// are sampled at call time; call once, at finish).
  MetricsEnvelope envelope() const {
    MetricsEnvelope m;
    m.threads = threads;
    m.build = build;
    m.compiler = compiler;
    m.peak_rss_bytes = metrics::peak_rss_bytes();
    m.net_overhead_s = net.overhead_s;
    m.net_peak_bw_bytes_per_s = net.peak_bw_bytes_per_s;
    m.net_setup_cost_s = net.setup_cost_s;
    m.net_rendezvous_extra_s = net.rendezvous_extra_s;
    m.net_eager_limit_bytes = net.eager_limit_bytes;
    m.registry = metrics::snapshot();
    return m;
  }
};

// ------------------------------------------------------------------------
// Repeats and robust statistics
// ------------------------------------------------------------------------

/// min / median / MAD (median absolute deviation) of a sample. Median and
/// MAD are the regression-harness statistics: a single descheduled repeat
/// moves the mean but not the median, and MAD quantifies the noise floor.
struct SampleStats {
  double min = 0.0;
  double median = 0.0;
  double mad = 0.0;
};

inline double median_of(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  const std::size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + mid, xs.end());
  double m = xs[mid];
  if (xs.size() % 2 == 0) {
    const double lo = *std::max_element(xs.begin(), xs.begin() + mid);
    m = 0.5 * (lo + m);
  }
  return m;
}

inline SampleStats sample_stats(const std::vector<double>& xs) {
  SampleStats s;
  if (xs.empty()) return s;
  s.min = *std::min_element(xs.begin(), xs.end());
  s.median = median_of(xs);
  std::vector<double> dev(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i)
    dev[i] = std::abs(xs[i] - s.median);
  s.mad = median_of(dev);
  return s;
}

/// `--repeat N` plumbing (default 1 = old single-shot behavior). When
/// N > 1, benches run one untimed warm-up first (page faults, allocator
/// growth, OMP thread-pool spin-up land there, not in sample 0) and report
/// the median of N timed repeats.
struct Repeat {
  int count = 1;

  explicit Repeat(const Cli& cli)
      : count(int(std::max(1L, cli.get_int("repeat", 1)))) {}

  bool warmup() const { return count > 1; }
};

/// Call at the top of EVERY timed repeat body (including the first). When
/// the registry is live (--json runs), this zeroes it so the envelope
/// snapshot taken at finish() describes exactly one timed repeat — the
/// last, which for a deterministic solver carries the same work counters
/// as the median-timed one — instead of accumulating warm-up plus all N
/// repeats. Without it, `comm.msg_bytes` and friends scale with --repeat,
/// so baselines recorded at --repeat 3 would be incomparable to local
/// --repeat 1 runs. No-op when metrics are off, so untimed paths and
/// non-JSON runs are unaffected.
inline void begin_timed_repeat() {
  if (metrics::enabled()) {
    metrics::reset();
    // Roofline attribution follows the same one-repeat discipline: the
    // snapshot taken by report() should describe the last timed repeat,
    // not warm-up plus all N.
    attrib::reset();
  }
}

/// Attaches `<key>_seconds` (median) plus `<key>_min_seconds` /
/// `<key>_mad_seconds` when the sample has more than one repeat.
inline void add_time_metrics(BenchReport::Run& run, const std::string& key,
                             const std::vector<double>& samples) {
  const SampleStats s = sample_stats(samples);
  run.metric(key + "_seconds", s.median);
  if (samples.size() > 1) {
    run.metric(key + "_min_seconds", s.min);
    run.metric(key + "_mad_seconds", s.mad);
  }
}

// ------------------------------------------------------------------------
// Output sinks
// ------------------------------------------------------------------------

/// `--json <path>` plumbing shared by every bench binary: benches add
/// params and runs to `report` unconditionally (cheap), and main() ends
/// with `return sink.finish();` which writes BENCH_<name>.json when the
/// flag was given. The emitted document follows the schema in
/// support/report.hpp and is validated by `hpamg check`.
///
/// When enabled, the metrics registry is switched on for the whole run and
/// its snapshot (plus peak RSS and the RunEnv facts) is embedded as the
/// report's "metrics" block — the input of `hpamg diff`.
struct JsonSink {
  JsonSink(const Cli& cli, const RunEnv& env)
      : path(cli.get("json", "")), report(env.bench), env_(&env) {
    if (enabled()) {
      metrics::reset();
      metrics::enable();
    }
  }

  bool enabled() const { return !path.empty(); }

  int finish() {
    if (!enabled()) return 0;
    report.set_metrics(env_->envelope());
    const std::string err = validate_bench_report_json(
        report.to_json(), /*require_solve=*/false, /*require_metrics=*/true);
    if (!err.empty()) {
      HPAMG_LOG_ERROR("json report failed self-validation: %s", err.c_str());
      return 1;
    }
    if (!report.write_file(path)) {
      HPAMG_LOG_ERROR("cannot write %s", path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", path.c_str());
    return 0;
  }

  std::string path;
  BenchReport report;

 private:
  const RunEnv* env_;
};

/// `--verbose` raises the log threshold to debug (per-iteration residuals
/// etc.); HPAMG_LOG_LEVEL still wins when it asks for more.
inline void init_logging(const Cli& cli) {
  if (cli.get("verbose", "") != "" &&
      log::threshold() < log::Level::kDebug)
    log::set_threshold(log::Level::kDebug);
}

/// `--trace <path>` plumbing shared by every bench binary: enables the
/// tracer up front (recording self-describing metadata from the same
/// RunEnv the JSON metrics block uses), and main() calls `sink.finish()`
/// to merge all ring buffers into a Chrome trace-event JSON at the path.
struct TraceSink {
  TraceSink(const Cli& cli, const RunEnv& env) : path(cli.get("trace", "")) {
    if (path.empty()) return;
    trace::enable();
    trace::set_metadata("bench", env.bench);
    if (!env.compiler.empty()) trace::set_metadata("compiler", env.compiler);
    trace::set_metadata("build", env.build);
    trace::set_metadata("omp_threads", std::to_string(env.threads));
    trace::set_metadata("net.overhead_s", fmt(env.net.overhead_s, "%.3g"));
    trace::set_metadata("net.peak_bw_bytes_per_s",
                        fmt(env.net.peak_bw_bytes_per_s, "%.3g"));
    trace::set_metadata("net.setup_cost_s",
                        fmt(env.net.setup_cost_s, "%.3g"));
    trace::set_metadata("net.rendezvous_extra_s",
                        fmt(env.net.rendezvous_extra_s, "%.3g"));
    trace::set_metadata("net.eager_limit_bytes",
                        std::to_string(env.net.eager_limit_bytes));
  }

  bool enabled() const { return !path.empty(); }

  int finish() const {
    if (!enabled()) return 0;
    trace::disable();
    if (!trace::write_chrome_json(path)) {
      HPAMG_LOG_ERROR("cannot write trace %s", path.c_str());
      return 1;
    }
    const trace::TraceStats ts = trace::stats();
    std::printf("wrote %s (%llu events, %zu tracks%s)\n", path.c_str(),
                (unsigned long long)ts.recorded, ts.tracks,
                ts.dropped > 0 ? ", ring overflowed" : "");
    return 0;
  }

  std::string path;
};

/// `--live <dir>` plumbing shared by every solver bench: starts the live
/// observability layer (progress.jsonl + metrics.prom in <dir>, heartbeats,
/// flight recorder) for the duration of the run, and main() calls
/// `sink.finish()` to stop the sampler. Tail the stream with
/// `hpamg_top <dir>` while the bench runs.
///
///   --live-interval <s>  sampler/scrape period (default 0.05)
///   --live-watchdog <s>  heartbeat stall deadline, 0 = off (default 0);
///                        scaled by live::sanitizer_scale() internally
///
/// Live observability needs the metrics registry on (the sampler snapshots
/// it), so this enables metrics even when --json was not given.
struct LiveSink {
  explicit LiveSink(const Cli& cli) : dir(cli.get("live", "")) {
    if (dir.empty()) return;
    ::mkdir(dir.c_str(), 0777);  // best effort; start() reports failures
    metrics::enable();
    live::Options opts;
    opts.dir = dir;
    opts.interval_s = cli.get_double("live-interval", 0.05);
    opts.watchdog_deadline_s = cli.get_double("live-watchdog", 0.0);
    if (!live::start(opts)) {
      HPAMG_LOG_ERROR("live observability failed to start in %s",
                      dir.c_str());
      dir.clear();
      return;
    }
    std::printf("live: streaming to %s/progress.jsonl (tail with hpamg_top)\n",
                dir.c_str());
  }

  bool enabled() const { return !dir.empty(); }

  int finish() const {
    if (!enabled()) return 0;
    live::stop();
    if (live::watchdog_verdict() != Status::kOk) {
      const live::StallInfo s = live::stall_info();
      HPAMG_LOG_ERROR("watchdog declared a stall: rank %d quiet %.2fs "
                      "(deadline %.2fs)", s.rank, s.stalled_s, s.deadline_s);
      return 1;
    }
    return 0;
  }

  std::string dir;
};

}  // namespace hpamg::bench

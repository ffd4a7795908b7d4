// Roofline attribution: achieved vs. modeled efficiency per kernel.
//
// Every probed phase with work (attrib::Probe, below: the one timing path
// of setup and solve) contributes (measured seconds, WorkCounters) to a
// process-global registry keyed by (kernel, level).
// snapshot() joins the accumulated work with a MachineModel's rooflines:
//
//   achieved_bw  = bytes / seconds
//   bw_fraction  = achieved_bw / (stream_bw * sparse_efficiency)
//   efficiency   = model.seconds(wc) / measured seconds
//
// both clamped into (0, 1] — by the roofline argument (PAPER.md §5.1,
// STREAM bounds AMG) a kernel cannot beat the model, so a fraction above 1
// means the model is mis-calibrated for this host and is reported as
// exactly 1. Entries that did no memory traffic or took unmeasurably
// little time are dropped rather than emitted with junk fractions; this is
// what guarantees the report validator's (0, 1] acceptance bound.
//
// Recording is gated on metrics::enabled() (one relaxed load when off) and
// costs one mutex-protected map update per kernel call when on — fine for
// per-level solver kernels, not for inner loops.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "perfmodel/machine.hpp"
#include "support/counters.hpp"
#include "support/report.hpp"
#include "support/timer.hpp"

namespace hpamg {
// Forward-declared (perfmodel/network.hpp) so including this header from
// solver code does not drag in the simmpi layer.
struct NetworkModel;
}  // namespace hpamg

namespace hpamg::attrib {

/// Accumulated measurements for one (kernel, level) cell.
struct KernelStats {
  long calls = 0;
  double seconds = 0.0;
  WorkCounters work;
};

/// Adds one invocation's measurements. `level` is -1 for unleveled kernels.
void record(std::string_view kernel, int level, double seconds,
            const WorkCounters& wc);

/// Clears the registry (bench harness calls this between timed repeats so
/// warmup work does not pollute the attribution).
void reset();

/// The machine the rooflines are computed against. Defaults to
/// endeavor_rank(); bench mains override it via --machine calibration.
void set_machine(const MachineModel& m);
MachineModel machine();

/// Joins the registry with `m`'s rooflines. Sorted by total seconds,
/// largest first; entries with zero bytes or zero measured time omitted.
std::vector<RooflineEntry> snapshot(const MachineModel& m);
std::vector<RooflineEntry> snapshot();  ///< against machine()

/// Publishes perf.kernel.<name>.{seconds,bw_fraction,efficiency} gauges
/// for each snapshot entry (level-summed). No-op when metrics are off.
void publish_metrics(const std::vector<RooflineEntry>& entries);

/// Parses a calibration file ({"machine": {...}, "network": {...}}, both
/// blocks optional) as emitted by bench_stream. Unknown keys ignored so
/// calibrations stay forward-compatible. Returns false and sets `err` on
/// malformed input; models are only written on success.
bool load_calibration_json(std::string_view json_text, MachineModel* mm,
                           NetworkModel* nm, std::string* err);

/// The one timing probe: every timed phase of a setup or solve is one
/// Probe scope. It reads `clock` once at entry and once at exit (wall time
/// on the serial paths, this thread's CPU time on simmpi ranks) and feeds
/// that one measurement s to every sink it was given:
///   - pt->add(phase, s), the Fig 5 / Fig 7 breakdown;
///   - *level_seconds += s, a loaned CycleTelemetryHook's level slot;
///   - record(kernel, level, s, work) when metrics::enabled() at entry and
///     the probe has work: the delta of *wc over the scope, or set_work();
///   - one trace span named `kernel` when trace::enabled() at entry (a kCpu
///     probe reads the wall clock for it too, only then).
/// With no sink on it reads no clock. `kernel` and `phase` must outlive the
/// trace (string literals); `level` is -1 for unleveled kernels.
class Probe {
 public:
  Probe(const char* kernel, int level, const char* phase, PhaseTimes* pt,
        double* level_seconds, const WorkCounters* wc,
        Clock clock = Clock::kWall);
  /// An unleveled probe that feeds only `pt` (and the trace).
  Probe(const char* kernel, const char* phase, PhaseTimes& pt,
        Clock clock = Clock::kWall)
      : Probe(kernel, -1, phase, &pt, nullptr, nullptr, clock) {}
  ~Probe() { finish(); }
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  /// Analytic work for kernels that do not thread WorkCounters (the
  /// distributed ones estimate bytes/flops from matrix shape); ignored
  /// when a live counter pointer was given.
  void set_work(const WorkCounters& wc);
  /// Ends the probe now instead of at scope exit (sequential phases that
  /// share one scope). The destructor then does nothing.
  void finish();

 private:
  const char* kernel_;
  const char* phase_;
  PhaseTimes* pt_;
  double* level_seconds_;
  const WorkCounters* wc_;
  WorkCounters start_;     ///< *wc_ at entry
  WorkCounters analytic_;  ///< set_work() value
  int level_;
  Clock clock_;
  bool active_ = false;
  bool record_ = false;  ///< metrics on at entry
  bool analytic_set_ = false;
  bool trace_ = false;   ///< tracing on at entry
  std::uint64_t t0_ = 0;       ///< clock_ns(clock_) at entry
  std::uint64_t wall0_ = 0;    ///< clock_ns(kWall) at entry, for the span
};

}  // namespace hpamg::attrib

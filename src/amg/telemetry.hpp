// Per-iteration solve telemetry.
//
// A CycleTelemetryHook is a small sampling buffer the solver loans to the
// cycle for the duration of one V-cycle: the cycle's probes
// (attrib::Probe) deposit per-level time from the same clock reads that
// fill the phase breakdown and the roofline, and, when asked, the cycle
// records the fine-level residual norm right after pre-smoothing.
// The solver turns each cycle's sample into an IterationReportEntry —
// residual, convergence factor, per-level time split, and how much of the
// contraction the fine smoother alone delivered — emitted as the report's
// `iterations` array.
//
// Recording is opt-in (the solver only attaches a hook when the metrics
// registry is enabled, i.e. a --json bench run) and deliberately cheap:
// the only extra numerical work is the optional post-pre-smooth residual,
// which runs with null WorkCounters and no phase attribution so the
// deterministic counters and phase sums baselines compare against are
// untouched.
#pragma once

#include <vector>

#include "support/common.hpp"
#include "support/report.hpp"

namespace hpamg {

struct CycleTelemetryHook {
  /// Seconds this cycle spent on each level (smooth + residual +
  /// transfer + coarse solve), indexed by level.
  std::vector<double> level_seconds;
  /// Ask the cycle to record the finest-level residual 2-norm right after
  /// pre-smoothing (costs one extra fused residual pass per cycle).
  bool measure_smoother = false;
  /// ||b - Ax||^2 on the finest level after pre-smoothing; negative until
  /// the cycle deposits it.
  double presmooth_norm2 = -1.0;

  /// Resets the buffer for the next cycle.
  void begin_cycle(std::size_t nlevels);
  /// Level `l`'s accumulator, or null for an out-of-range level (so a
  /// hierarchy rebuilt mid-loan cannot write past the buffer).
  double* level_slot(std::size_t l) {
    return l < level_seconds.size() ? &level_seconds[l] : nullptr;
  }
};

/// Attaches `hook` to a hierarchy's telemetry slot for one solve and
/// detaches it on every exit path (the hook lives on the solve's stack
/// frame; the hierarchy outlives it).
template <typename Hierarchy>
class TelemetryLoan {
 public:
  TelemetryLoan(Hierarchy& h, CycleTelemetryHook* hook) : h_(h) {
    h_.telemetry = hook;
  }
  ~TelemetryLoan() { h_.telemetry = nullptr; }
  TelemetryLoan(const TelemetryLoan&) = delete;
  TelemetryLoan& operator=(const TelemetryLoan&) = delete;

 private:
  Hierarchy& h_;
};

/// Builds one report entry from a completed cycle: convergence factor is
/// relres / prev_relres, smoother fields are filled when the hook measured
/// the pre-smooth residual (left negative -> omitted from JSON otherwise).
IterationReportEntry make_iteration_entry(Int iteration, double relres,
                                          double prev_relres, double seconds,
                                          double normb,
                                          const CycleTelemetryHook* hook);

}  // namespace hpamg

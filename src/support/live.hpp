// Live observability: in-flight progress streams, heartbeats + watchdog,
// and a flight recorder — the online counterpart of the post-mortem stack
// (trace / metrics / report), built for long-lived solver processes.
//
// Everything the repo's observability layers produce today is readable
// only after the process exits. This layer answers the operational
// questions while the solve is still running:
//
//   - A background **sampler thread** (start()/stop()) periodically
//     snapshots the metrics registry and the per-rank heartbeats into an
//     append-only JSONL *progress stream* (progress.jsonl, one JSON object
//     per line) and a Prometheus-style *text exposition file*
//     (metrics.prom, written to a temp file and atomically renamed per
//     scrape, so external tooling never reads a torn file). `hpamg top`
//     tails the stream and renders it live.
//
//   - A per-rank **heartbeat**: solver drivers publish (iteration, level,
//     phase, residual) beats from their main loops (beat_iteration /
//     beat_phase). A configurable **watchdog** in the sampler thread
//     declares a stall when an *active* rank's heartbeat goes quiet past
//     the deadline, dumps the flight recorder, invokes registered stall
//     handlers (simmpi::run installs one that captures the PR-5 state dump
//     and deadlock-poisons the world, so a hung collective unwinds as
//     DeadlockError attributed to the rank whose heartbeat stopped), and
//     latches a Status (watchdog_verdict()) instead of timing out
//     silently. Deadlines are scaled by sanitizer_scale() so TSan/ASan
//     slowdowns cannot cause false stall reports.
//
//   - A **flight recorder**: a bounded per-thread ring of recent
//     structured events (log records, trace instants, fault-injection
//     trips) dumped on fault trips, fatal signals, and watchdog firings —
//     "what happened in the last 500 ms before that crash".
//
// Overhead discipline matches trace/metrics/fault: everything is always
// compiled in, off by default, and every publish site costs exactly one
// relaxed atomic load while live observability is disabled. Heartbeat
// `phase` strings must be string literals (the slot stores the pointer).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace hpamg::live {

namespace detail {
extern std::atomic<bool> g_enabled;
/// Slot index the calling thread publishes to: 0 = host (outside simmpi),
/// r + 1 = simmpi rank r. Set by set_rank(); inherited default is host.
extern thread_local int t_slot;
void beat_iteration_slow(std::int64_t iteration, double relres);
void beat_phase_slow(const char* phase, std::int64_t level);
void add_blocked_ns_slow(std::uint64_t ns);
void set_waiting_slow(bool waiting);
void activity_begin_slow();
void activity_end_slow();
}  // namespace detail

/// One relaxed load; every disabled publish site reduces to this.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

// ------------------------------------------------------------------------
// Configuration and lifecycle
// ------------------------------------------------------------------------

/// Heartbeat slots: slot 0 is the host thread, slots 1..kSlots-1 carry
/// simmpi ranks 0..kSlots-2. Ranks beyond that are not tracked (beats are
/// dropped, never misattributed).
constexpr int kSlots = 64;

struct Options {
  /// Output directory for progress.jsonl + metrics.prom; empty disables
  /// the file outputs (heartbeats/watchdog/flight recorder still run).
  std::string dir;
  /// Sampler period. The sampler also drives the watchdog, so the
  /// effective stall-detection resolution is one interval.
  double interval_s = 0.05;
  /// Heartbeat deadline in (unscaled) seconds; 0 disables the watchdog.
  /// The effective deadline is watchdog_deadline_s * sanitizer_scale().
  double watchdog_deadline_s = 0.0;
  /// Dump the flight recorder when a fault-injection site fires.
  bool dump_on_fault = true;
  /// Install best-effort fatal-signal handlers (SIGSEGV/SIGABRT/SIGBUS)
  /// that write the flight recorder to stderr before re-raising.
  bool signal_handlers = false;
  /// Per-thread flight-recorder ring capacity (entries).
  std::size_t flight_capacity = 256;
};

/// Starts the sampler thread and flips enabled(); false if already
/// running. Not thread-safe against itself (call from one control thread,
/// like trace::enable).
bool start(const Options& opts);
/// Writes one final sample, joins the sampler, flips enabled() off.
/// Progress/exposition files are left on disk for post-run inspection.
void stop();
bool running();

/// TSan/ASan deadline multiplier (compile-time sanitizer detection,
/// overridable with the HPAMG_WATCHDOG_SCALE environment variable): a
/// sanitized build runs the same solve 5-20x slower, so wall-clock stall
/// deadlines must stretch with it or every slow-but-alive solve becomes a
/// false stall report (tests/test_live.cpp pins this).
double sanitizer_scale();

// ------------------------------------------------------------------------
// Rank binding and heartbeat publishing
// ------------------------------------------------------------------------

/// Binds the calling thread to simmpi rank r (slot r + 1); rank < 0 means
/// the host slot. simmpi::run calls this on every rank thread; threads
/// that never call it publish as the host.
void set_rank(int rank);
/// Rank the calling thread is bound to (-1 = host).
int current_rank();

/// RAII activity scope: marks the calling thread's slot active for the
/// watchdog while a solver driver is inside its main loop, and inactive
/// again on exit — a slot that is idle *between* solves must never trip
/// the stall deadline. Nests (depth-counted); solver entry points open one.
class ActivityScope {
 public:
  ActivityScope() : on_(enabled()) {
    if (on_) detail::activity_begin_slow();
  }
  ~ActivityScope() {
    if (on_) detail::activity_end_slow();
  }
  ActivityScope(const ActivityScope&) = delete;
  ActivityScope& operator=(const ActivityScope&) = delete;

 private:
  bool on_;  ///< enabled() at entry, so begin/end always pair
};

/// Driver-loop beat: iteration finished with this relative residual.
/// Updates the slot's epoch, iteration, residual, and per-iteration
/// convergence factor (relres / previous beat's relres).
inline void beat_iteration(std::int64_t iteration, double relres) {
  if (enabled()) detail::beat_iteration_slow(iteration, relres);
}

/// Phase/level beat from inside a cycle or setup: `phase` MUST be a string
/// literal (the slot stores the pointer, exactly like trace events).
inline void beat_phase(const char* phase, std::int64_t level = -1) {
  if (enabled()) detail::beat_phase_slow(phase, level);
}

/// Blocked-time accounting (simmpi bounded waits feed this): nanoseconds
/// the calling thread's rank just spent blocked. The sampler differences
/// successive values into the per-interval blocked fraction `hpamg top`
/// shows.
inline void add_blocked_ns(std::uint64_t ns) {
  if (enabled()) detail::add_blocked_ns_slow(ns);
}

/// Marks the calling thread's rank as sitting inside a simmpi wait. A
/// waiting rank that misses the deadline is a *victim* (it is blocked on
/// someone); the watchdog attributes the stall to a non-waiting stale rank
/// when one exists.
inline void set_waiting(bool waiting) {
  if (enabled()) detail::set_waiting_slow(waiting);
}

/// One slot's published state, as sampled by the watchdog / progress
/// stream / tests.
struct HeartbeatSample {
  int rank = -1;  ///< -1 = host slot
  std::uint64_t epoch = 0;
  double age_s = 0.0;  ///< seconds since the last beat
  std::int64_t iteration = -1;
  std::int64_t level = -1;
  const char* phase = nullptr;
  double relres = -1.0;       ///< last beat_iteration residual; <0 = none
  double conv_factor = 0.0;   ///< relres / previous beat's relres; 0 = n/a
  bool waiting = false;       ///< inside a simmpi bounded wait
  double blocked_s = 0.0;     ///< cumulative blocked time
};

/// Snapshot of every *active* slot (ActivityScope depth > 0).
std::vector<HeartbeatSample> heartbeat_snapshot();

// ------------------------------------------------------------------------
// Watchdog
// ------------------------------------------------------------------------

/// What the watchdog latched when it declared a stall.
struct StallInfo {
  int rank = -1;           ///< culprit slot's rank (-1 = host)
  double stalled_s = 0.0;  ///< heartbeat age when declared
  double deadline_s = 0.0; ///< effective (scaled) deadline
  std::int64_t iteration = -1;
  const char* phase = nullptr;
  bool waiting = false;    ///< true when every stale rank was in a wait
                           ///< (a genuine cross-rank deadlock cycle)
};

/// kOk until the watchdog latches a stall, kDeadlock afterwards — the
/// caller-facing verdict, same taxonomy the solvers report.
Status watchdog_verdict();
/// Details of the latched stall (valid once watchdog_verdict() != kOk).
StallInfo stall_info();
/// Re-arms the watchdog latch (tests; a production service would restart
/// the live layer instead).
void reset_watchdog();

/// Stall handlers run on the sampler thread when the watchdog fires, after
/// the flight-recorder dump. simmpi::run registers one per world that
/// captures the per-rank state dump and deadlock-poisons the world.
/// Returns a token for unregister_stall_handler, which blocks until any
/// in-flight invocation of that handler returns (safe teardown).
using StallHandler = std::function<void(const StallInfo&)>;
int register_stall_handler(StallHandler handler);
void unregister_stall_handler(int token);

// ------------------------------------------------------------------------
// Flight recorder
// ------------------------------------------------------------------------

/// Event classes kept in the per-thread rings.
enum class EventKind : std::uint8_t {
  kLog = 0,    ///< a log::logf record at or above the recorder threshold
  kInstant,    ///< a trace::instant marker
  kFault,      ///< a fault-injection site fired
  kWatchdog,   ///< watchdog declared a stall
};

/// Records one event into the calling thread's ring (bounded; oldest
/// entries are overwritten). `text` is copied (truncated to the entry
/// size), so dynamic strings are safe here, unlike heartbeat phases.
void record(EventKind kind, const char* name, const char* text);

/// Fault layer hook: records the trip and, when Options::dump_on_fault is
/// set, writes a flight dump (once per site name, so a chaos schedule that
/// fires hundreds of times does not flood the dump directory).
void note_fault(const char* site);

/// Merges every thread's ring into one chronologically sorted text report
/// (newest events last), annotated with each event's rank and age.
std::string flight_dump();
/// Writes flight_dump() to `path`; false (errno intact) on I/O failure.
bool write_flight_dump(const std::string& path);
/// Writes a numbered flightrec_<n>.txt into the live dir (or
/// $HPAMG_STATE_DUMP_DIR when no live dir is set); empty string when
/// neither destination exists or the write fails. `reason` is stamped
/// into the dump header.
std::string dump_flight_recorder(const char* reason);

/// Events currently held / overwritten across all rings (tests).
struct FlightStats {
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
};
FlightStats flight_stats();

}  // namespace hpamg::live

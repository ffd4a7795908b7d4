// Always-compiled, off-by-default event tracer (SC'15 §5 methodology: the
// per-phase / per-rank timelines that drive the paper's breakdown figures).
//
// Each thread records into its own fixed-capacity ring buffer (newest
// events win on overflow), so recording is lock-free after the first event
// a thread emits: one relaxed atomic load when tracing is disabled, a
// bump-pointer store when enabled. Nothing on the solve path allocates
// while tracing is off.
//
// Event kinds map onto the Chrome trace-event format (load the exported
// file in Perfetto / chrome://tracing):
//   - spans     ("X" complete events)  — TRACE_SPAN("spgemm.rap", level);
//   - instants  ("i")                  — point-in-time markers;
//   - counters  ("C")                  — sampled WorkCounters series;
//   - flows     ("s"/"f")             — tie a simmpi send to its matching
//     receive so cross-rank message dependencies render as arrows.
// Spans recorded while a rank waits inside simmpi carry the "blocked"
// category, which keeps wait time separable from compute in
// bench/trace_summary.cpp.
//
// Tracks: simmpi rank r records as Chrome process r+1 ("rank r"); threads
// outside a rank (single-node benches) record under process 0 ("host").
//
// Lifecycle: enable() / disable() / reset() and export must not race with
// threads that are actively recording — benches toggle tracing outside
// simmpi::run and export after it returns.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace hpamg::trace {

/// Maximum per-event argument pairs (kept small so Event stays POD-sized).
constexpr int kMaxArgs = 2;

/// One recorded event. `name` / `cat` / arg names must point to storage
/// that outlives the trace (string literals in practice) — events store
/// the pointers, never copies.
struct Event {
  enum class Kind : std::uint8_t {
    kSpan,     ///< Chrome "X": ts + dur
    kInstant,  ///< Chrome "i"
    kCounter,  ///< Chrome "C": args are the sampled series
    kFlowOut,  ///< Chrome "s": flow start (message sent)
    kFlowIn,   ///< Chrome "f": flow end (message received)
  };
  Kind kind = Kind::kInstant;
  std::uint8_t nargs = 0;
  const char* name = nullptr;
  const char* cat = nullptr;
  std::uint64_t ts_ns = 0;   ///< relative to the enable() epoch
  std::uint64_t dur_ns = 0;  ///< spans only
  std::uint64_t flow_id = 0; ///< flow events only (nonzero)
  const char* arg_name[kMaxArgs] = {nullptr, nullptr};
  std::int64_t arg_val[kMaxArgs] = {0, 0};
};

namespace detail {
extern std::atomic<bool> g_enabled;
/// Records into the calling thread's ring buffer (creates it on first use).
void emit(const Event& e);
}  // namespace detail

/// True while tracing is on. One relaxed load — the only cost every
/// instrumentation site pays when tracing is disabled.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Turns tracing on. `events_per_thread` sets the ring capacity applied to
/// buffers created afterwards (0 keeps the current/default capacity,
/// 32768). Idempotent; the timestamp epoch is set on the first enable
/// after a reset().
void enable(std::size_t events_per_thread = 0);
void disable();
/// Drops all recorded events, tracks, and metadata and restores the
/// default ring capacity (tracing stays in its current on/off state; the
/// epoch re-arms on the next enable()).
void reset();

/// Nanoseconds since the enable() epoch (monotonic clock).
std::uint64_t now_ns();

/// Process-unique id for tying a flow's "s" and "f" ends together.
std::uint64_t next_flow_id();

/// Binds the calling thread to a (pid, name) track — simmpi::run calls
/// this with pid = rank + 1 so every rank renders as its own process row.
/// No-op while tracing is disabled.
void set_thread_track(int pid, const std::string& process_name,
                      const std::string& thread_name);

/// Key/value recorded into the exported file's "otherData" block so traces
/// are self-describing (build config, bench name, machine-model params).
void set_metadata(const std::string& key, const std::string& value);

// ---- direct emitters (no-ops while disabled) ----
void instant(const char* name, const char* cat = "marker");
/// Counter sample: up to two named series per event (e.g. flops + bytes).
void counter(const char* name, const char* series0, std::int64_t value0,
             const char* series1 = nullptr, std::int64_t value1 = 0);
void flow_out(const char* name, std::uint64_t id, int peer,
              std::int64_t bytes);
void flow_in(const char* name, std::uint64_t id, int peer,
             std::int64_t bytes);
/// Records a finished span from two clock_ns(Clock::kWall) readings
/// (support/timer.hpp) the caller already took — attrib::Probe's one clock
/// read. A nonnegative `level` is attached as the "level" arg. Records even
/// if tracing was disabled after `begin_ns`, like a Span.
void complete(const char* name, std::uint64_t begin_ns, std::uint64_t end_ns,
              std::int64_t level);

/// RAII scoped duration event. Construction snapshots the clock; the
/// destructor records one complete ("X") event. When tracing is disabled
/// the constructor is a single relaxed load and no event is recorded.
class Span {
 public:
  explicit Span(const char* name, const char* cat = "kernel") {
    if (enabled()) begin(name, cat);
  }
  /// TRACE_SPAN("spgemm.rap", level) convenience: attaches a "level" arg.
  Span(const char* name, std::int64_t level) : Span(name) {
    arg("level", level);
  }
  Span(const char* name, const char* cat, const char* a0, std::int64_t v0)
      : Span(name, cat) {
    arg(a0, v0);
  }
  Span(const char* name, const char* cat, const char* a0, std::int64_t v0,
       const char* a1, std::int64_t v1)
      : Span(name, cat) {
    arg(a0, v0);
    arg(a1, v1);
  }
  ~Span() {
    if (active_) end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches an argument after construction (e.g. bytes known only once
  /// a receive completes). Ignored beyond kMaxArgs or while inactive.
  void arg(const char* name, std::int64_t value) {
    if (active_ && e_.nargs < kMaxArgs) {
      e_.arg_name[e_.nargs] = name;
      e_.arg_val[e_.nargs] = value;
      ++e_.nargs;
    }
  }

 private:
  void begin(const char* name, const char* cat);
  void end();
  bool active_ = false;
  Event e_;
};

/// Aggregate recording statistics (for tests and the export footer).
struct TraceStats {
  std::size_t tracks = 0;
  std::uint64_t recorded = 0;  ///< events currently held in ring buffers
  std::uint64_t dropped = 0;   ///< overwritten by ring wraparound
};
TraceStats stats();

/// Merges every thread's ring buffer into one Chrome trace-event JSON
/// document: per-track events sorted by timestamp, process/thread name
/// metadata events, and set_metadata() pairs under "otherData".
std::string export_chrome_json();
/// Writes export_chrome_json() to `path`; false (errno intact) on I/O
/// failure.
bool write_chrome_json(const std::string& path);

}  // namespace hpamg::trace

// Scoped span with an automatically unique local name.
#define HPAMG_TRACE_CONCAT2(a, b) a##b
#define HPAMG_TRACE_CONCAT(a, b) HPAMG_TRACE_CONCAT2(a, b)
#define TRACE_SPAN(...) \
  ::hpamg::trace::Span HPAMG_TRACE_CONCAT(hpamg_trace_span_, \
                                          __LINE__)(__VA_ARGS__)

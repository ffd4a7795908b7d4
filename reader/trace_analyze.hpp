// Chrome-trace reader and wait-state classification (Scalasca-style).
//
// parse_timeline() reads the trace-event JSON that support/trace.cpp
// exports and records every schema or consistency violation it meets in
// Timeline::problems (`hpamg trace --check` fails on any). analyze() then
// runs the one self-time walk (nested span durations subtracted from the
// innermost enclosing span) and answers "why was this rank blocked": every
// microsecond of "blocked"-category self time is classified as
//
//   late_sender       recv posted before the matching send happened —
//                     the receiver waited for a late sender
//                     (flow_out ts inside the recv span's window);
//   late_receiver     a blocking send waited for its receiver to arrive
//                     (matched flow_in ts inside the send span's window);
//   wait_collective   time between this rank entering a collective and the
//                     LAST rank entering the same instance of it;
//   transfer          the matched remainder: data in flight, or the
//                     collective's own operation after all ranks arrived;
//   unattributed      blocked spans whose flow arrow is unmatched (lost to
//                     ring wraparound) or whose collective instance cannot
//                     be aligned across ranks — reported explicitly instead
//                     of skewing the other buckets.
//
// The five buckets partition the rank's blocked self time exactly, which
// `hpamg perf --check` enforces.
//
// Also derived: per-kernel self/total time over all tracks, per-kernel
// load imbalance (max/avg self time across ranks) and an approximate
// cross-rank critical path (backward replay from the latest-finishing
// rank, hopping send->recv flow arrows).
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace hpamg::trace_analyze {

/// One completed span lifted out of the trace JSON.
struct SpanRec {
  std::string name;
  std::string cat;
  int pid = 0;
  int tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
  double self_us = 0.0;  ///< dur minus nested spans (filled by analyze)
};

/// One flow endpoint ("s" = send side, "f" = recv side).
struct FlowEnd {
  int pid = 0;
  int tid = 0;
  double ts_us = 0.0;
  long long bytes = -1;  ///< args.bytes; -1 when the event carries none
  bool present = false;
};

/// Parsed timeline: everything analyze() needs, separated from the JSON.
struct Timeline {
  /// Violations met while parsing, in the order found: a missing
  /// displayTimeUnit or otherData, an event without ts, a timestamp going
  /// backwards within a track, a span without dur or with a negative one,
  /// a flow event without id, dropped_by_track not summing to
  /// dropped_events, a duplicate flow id, and unmatched flow arrows in a
  /// trace that reports zero drops (with drops, a half-arrow is expected
  /// ring wraparound).
  std::vector<std::string> problems;
  std::map<int, std::string> process_names;
  std::vector<SpanRec> spans;
  /// flow id -> (send endpoint, recv endpoint); a half-arrow leaves the
  /// other endpoint's `present` false.
  std::map<long long, std::pair<FlowEnd, FlowEnd>> flows;
  /// Ids seen more than once on a side — always a tracer bug.
  long long duplicate_flow_ids = 0;
  long long dropped_total = 0;  ///< otherData.dropped_events
  std::map<std::string, long long> dropped_by_track;
};

/// Parses an exported Chrome trace document. Throws std::invalid_argument
/// on malformed JSON or JSON that is not a trace (no traceEvents array).
Timeline parse_timeline(std::string_view json_text);

/// Per-rank (per-pid) wait-state classification, all in microseconds.
/// Invariant: late_sender + late_receiver + wait_collective + transfer +
/// unattributed == blocked (up to FP rounding).
struct RankWait {
  int pid = 0;
  std::string name;        ///< process name ("rank 3", "host")
  double compute_us = 0.0;  ///< non-"blocked" self time
  double blocked_us = 0.0;  ///< "blocked" self time
  double late_sender_us = 0.0;
  double late_receiver_us = 0.0;
  double wait_collective_us = 0.0;
  double transfer_us = 0.0;
  double unattributed_us = 0.0;
};

/// Cross-rank load imbalance of one kernel: max/avg of per-rank self time.
struct KernelImbalance {
  std::string kernel;
  int ranks = 0;       ///< pids the kernel appeared on
  double max_us = 0.0;
  double avg_us = 0.0;
  double imbalance = 0.0;  ///< max / avg (1.0 = perfectly balanced)
  int max_pid = 0;         ///< the slowest rank
};

/// One segment of the reconstructed critical path (walked backward).
struct CriticalSegment {
  int pid = 0;
  double start_us = 0.0;
  double end_us = 0.0;
};

/// One kernel's time over all tracks. self_us is not clamped at 0.
struct KernelTime {
  long count = 0;
  double total_us = 0.0;  ///< sum of span durations (children included)
  double self_us = 0.0;   ///< durations minus time in nested spans
};

struct Analysis {
  std::map<std::string, KernelTime> kernel_times;  ///< by span name
  std::vector<RankWait> ranks;             ///< sorted by pid
  std::vector<KernelImbalance> kernels;    ///< sorted worst-first
  std::vector<CriticalSegment> critical_path;  ///< in time order
  double critical_path_us = 0.0;      ///< end of last span - path transfers
  double critical_transfer_us = 0.0;  ///< flow-hop time on the path
  long long unmatched_flows = 0;      ///< half-arrows seen
};

/// Runs the full classification. Pure function of the timeline.
Analysis analyze(const Timeline& t);

}  // namespace hpamg::trace_analyze

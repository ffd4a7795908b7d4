// Clocks, a stopwatch, and the named-phase registry behind the per-kernel
// breakdowns of Fig 5 / Fig 7 (attrib::Probe, perfmodel/attrib.hpp, is
// what fills it).
#pragma once

#include <ctime>

#include <cstdint>
#include <map>
#include <string>

#include "support/common.hpp"

namespace hpamg {

/// The clocks phases are timed in. kWall is monotonic wall time (the clock
/// the tracer stamps events with). kCpu is the calling thread's CPU time:
/// inside simmpi (many rank-threads timesharing the host's cores) it
/// measures a rank's actual compute work, excluding time spent blocked on
/// receives or descheduled — the quantity a dedicated node would spend.
enum class Clock { kWall, kCpu };

/// Nanoseconds on `c` from an arbitrary origin; only differences of two
/// readings on the same clock (and, for kCpu, the same thread) mean
/// anything.
inline std::uint64_t clock_ns(Clock c) {
  timespec ts;
  clock_gettime(c == Clock::kCpu ? CLOCK_THREAD_CPUTIME_ID : CLOCK_MONOTONIC,
                &ts);
  return std::uint64_t(ts.tv_sec) * 1000000000u + std::uint64_t(ts.tv_nsec);
}

/// Stopwatch on one clock (wall time unless told otherwise).
class Timer {
 public:
  explicit Timer(Clock c = Clock::kWall) : clock_(c) { reset(); }
  void reset() { start_ = clock_ns(clock_); }
  /// Seconds since construction or last reset().
  double seconds() const { return double(clock_ns(clock_) - start_) * 1e-9; }

 private:
  Clock clock_;
  std::uint64_t start_ = 0;
};

/// Accumulates seconds per named phase (e.g. "RAP", "Interp", "GS").
class PhaseTimes {
 public:
  void add(const std::string& phase, double sec) { times_[phase] += sec; }
  double get(const std::string& phase) const {
    auto it = times_.find(phase);
    return it == times_.end() ? 0.0 : it->second;
  }
  double total() const {
    double t = 0;
    for (auto& [k, v] : times_) t += v;
    return t;
  }
  const std::map<std::string, double>& all() const { return times_; }
  void clear() { times_.clear(); }
  /// Merges another breakdown into this one.
  void merge(const PhaseTimes& other) {
    for (auto& [k, v] : other.times_) times_[k] += v;
  }

 private:
  std::map<std::string, double> times_;
};

}  // namespace hpamg

// Solver status taxonomy and structured failure types.
//
// Production AMG libraries treat "why did the solve stop" as first-class
// API surface (XAMG's status codes, AMGCL's convergence reports); a bare
// bool converged cannot distinguish "reached rtol" from "went NaN at
// iteration 12" from "a rank timed out inside a barrier". Every solver
// entry point (AMGSolver, DistHierarchy, the Krylov drivers) reports a
// Status, the simmpi runtime raises the structured errors below instead of
// hanging, and the JSON report layer carries the result as a `status`
// block so CI can gate on failure modes (support/report.hpp).
#pragma once

#include <cmath>
#include <new>
#include <stdexcept>
#include <string>
#include <string_view>

#include "support/common.hpp"

namespace hpamg {

/// Terminal outcome of a solve (or setup) — the error-code taxonomy
/// threaded through SolveResult (= DistSolveResult) / KrylovResult and the
/// report's `status` block. Names are schema-stable (status_name).
/// [[nodiscard]] on the enum makes every Status-returning call site a
/// -Wunused-result warning when the verdict is dropped — enforced as an
/// error in CI builds and audited by tools/hpamg_lint (nodiscard-status).
enum class [[nodiscard]] Status : int {
  kOk = 0,              ///< converged within tolerance, no incident
  kRecovered,           ///< converged after >= 1 recovery (scrub/restart)
  kMaxIterations,       ///< iteration budget exhausted, residual finite
  kStagnated,           ///< budget exhausted with no progress over a window
  kDiverged,            ///< residual grew past the divergence threshold
  kNonFinite,           ///< NaN/Inf residual, recovery exhausted
  kInvalidInput,        ///< input validation rejected the matrix/vectors
  kAllocFailure,        ///< allocation failed during setup or solve
  kDeadlock,            ///< bounded wait timed out inside simmpi
  kCollectiveMismatch,  ///< ranks entered different collectives
  kPeerFailure,         ///< released from a wait because a peer failed
  // Service-layer verdicts (src/service): the error contract of the
  // session layer. Requests that never reach a solver still resolve to a
  // specific Status, never silence.
  kRejected,            ///< admission control refused the request
  kDeadlineExceeded,    ///< deadline expired (in queue or mid-solve)
  kCircuitOpen,         ///< per-operator circuit breaker is open
  kUnknown,             ///< unclassified exception
};

/// Schema-stable snake_case name ("ok", "non_finite", ...).
inline const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kRecovered: return "recovered";
    case Status::kMaxIterations: return "max_iterations";
    case Status::kStagnated: return "stagnated";
    case Status::kDiverged: return "diverged";
    case Status::kNonFinite: return "non_finite";
    case Status::kInvalidInput: return "invalid_input";
    case Status::kAllocFailure: return "alloc_failure";
    case Status::kDeadlock: return "deadlock";
    case Status::kCollectiveMismatch: return "collective_mismatch";
    case Status::kPeerFailure: return "peer_failure";
    case Status::kRejected: return "rejected";
    case Status::kDeadlineExceeded: return "deadline_exceeded";
    case Status::kCircuitOpen: return "circuit_open";
    case Status::kUnknown: break;
  }
  return "unknown";
}

/// Inverse of status_name; kUnknown for unrecognized text.
inline Status status_from_name(std::string_view name) {
  for (int s = int(Status::kOk); s <= int(Status::kUnknown); ++s)
    if (name == status_name(Status(s))) return Status(s);
  return Status::kUnknown;
}

/// True for outcomes that count as a successful solve.
[[nodiscard]] inline bool status_ok(Status s) {
  return s == Status::kOk || s == Status::kRecovered;
}

/// Base class for structured solver/runtime failures: an exception that
/// carries its Status classification.
class SolverError : public std::runtime_error {
 public:
  SolverError(Status status, const std::string& what)
      : std::runtime_error(what), status_(status) {}
  Status status() const { return status_; }

 private:
  Status status_;
};

/// A bounded wait inside simmpi expired: the run is considered deadlocked.
/// `state_dump()` is the per-rank blocked-state report captured at the
/// moment of the timeout (who waits where, mailbox depths) — also embedded
/// in what().
class DeadlockError : public SolverError {
 public:
  DeadlockError(const std::string& what, std::string dump)
      : SolverError(Status::kDeadlock, what + "\n" + dump),
        dump_(std::move(dump)) {}
  const std::string& state_dump() const { return dump_; }

 private:
  std::string dump_;
};

/// Ranks entered collectives with different signatures (op/count/dtype).
class CollectiveMismatchError : public SolverError {
 public:
  explicit CollectiveMismatchError(const std::string& what)
      : SolverError(Status::kCollectiveMismatch, what) {}
};

/// This rank was released from a blocking wait because another rank
/// failed (threw or deadlocked); the peer's error is the root cause.
class PeerFailureError : public SolverError {
 public:
  explicit PeerFailureError(const std::string& what)
      : SolverError(Status::kPeerFailure, what) {}
};

/// Maps an in-flight exception to the Status taxonomy (for catch blocks
/// that must report a terminal status rather than rethrow).
inline Status status_from_exception(const std::exception& e) {
  if (const auto* se = dynamic_cast<const SolverError*>(&e))
    return se->status();
  if (dynamic_cast<const std::bad_alloc*>(&e)) return Status::kAllocFailure;
  if (dynamic_cast<const std::invalid_argument*>(&e))
    return Status::kInvalidInput;
  return Status::kUnknown;
}

// ------------------------------------------------------------------------
// Convergence monitor
// ------------------------------------------------------------------------

/// Recovery budget per solve, shared by every solve loop (AMG iteration
/// and (F)GMRES, serial and distributed): after this many scrub-and-restart
/// attempts the solve stops with the failure status instead of retrying.
inline constexpr Int kMaxRecoveries = 3;

/// Classifies a residual history as it streams in and tells the driver
/// when to trigger recovery. Used by the standalone AMG loop
/// (amg/solve_loop.hpp); decisions depend only on the (globally reduced)
/// relative residual, so every rank reaches the same verdict.
class ConvergenceMonitor {
 public:
  /// `div_factor`: relres above div_factor * best counts as divergence.
  /// `stall_window` / `stall_eps`: no relative improvement better than
  /// stall_eps over stall_window consecutive iterations counts as
  /// stagnation (reported only at budget exhaustion — stagnating solves
  /// are left to run, diverging ones are stopped).
  explicit ConvergenceMonitor(double div_factor = 1e4, Int stall_window = 25,
                              double stall_eps = 1e-4)
      : div_factor_(div_factor), stall_window_(stall_window),
        stall_eps_(stall_eps) {}

  /// Feeds one iteration's relative residual; returns the classification:
  /// kOk (keep iterating), kNonFinite, or kDiverged (both: recover or
  /// stop). Stagnation never stops a solve mid-flight — query stagnated()
  /// when the budget runs out.
  [[nodiscard]] Status observe(double relres) {
    if (!std::isfinite(relres)) return Status::kNonFinite;
    if (best_ >= 0.0 && relres > div_factor_ * (best_ > 0.0 ? best_ : 1.0))
      return Status::kDiverged;
    if (best_ < 0.0 || relres < best_ * (1.0 - stall_eps_)) {
      best_ = relres;
      since_improvement_ = 0;
    } else {
      ++since_improvement_;
    }
    return Status::kOk;
  }

  /// Resets the improvement window after a recovery (the restored iterate
  /// re-earns its progress; best stays).
  void note_recovery() { since_improvement_ = 0; }

  bool stagnated() const { return since_improvement_ >= stall_window_; }

 private:
  double div_factor_;
  Int stall_window_;
  double stall_eps_;
  double best_ = -1.0;  ///< smallest finite residual; negative before any
  Int since_improvement_ = 0;
};

}  // namespace hpamg

// AMG hierarchy: options, per-level data, and the setup phase.
//
// The hierarchy is built in one of two variants that mirror the paper's
// comparison (SC'15 §5.2):
//
//  kBaseline ("HYPRE_base"): serial strength assembly, sequential-RNG PMIS,
//    extended+i built fully then truncated in a separate pass, HYPRE-style
//    fused RAP (Fig 1b) on the full triple product, no CF reordering, full
//    P kept and transposed again on every restriction, branchy hybrid GS.
//
//  kOptimized ("HYPRE_opt"): prefix-sum strength, parallel-RNG PMIS,
//    CF-reordered operators (coarse points first), interpolation built with
//    fused truncation, identity-block RAP touching only the F x F block
//    (Fig 1a fusion inside), R = P^T kept from setup, partitioned hybrid GS.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "amg/interp_extpi.hpp"
#include "amg/interp_multipass.hpp"
#include "amg/pmis.hpp"
#include "amg/smoother.hpp"
#include "amg/strength.hpp"
#include "amg/truncate.hpp"
#include "matrix/csr.hpp"
#include "matrix/dense.hpp"
#include "matrix/permute.hpp"
#include "support/counters.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace hpamg {

struct CycleTelemetryHook;  // amg/telemetry.hpp

enum class Variant { kBaseline, kOptimized };
enum class InterpKind { kDirect, kExtPI, kExtPI2Stage, kMultipass };
enum class SmootherKind { kHybridGS, kJacobi, kLexGS, kMultiColorGS };

struct AMGOptions {
  Variant variant = Variant::kOptimized;
  Int max_levels = 7;        ///< Table 3 single-node; 16 for multi-node
  Int coarse_size = 64;      ///< direct LU below this many rows
  StrengthOptions strength;  ///< alpha = 0.25/0.6, max_row_sum = 0.8
  InterpKind interp = InterpKind::kExtPI;
  /// Optimized variant only: build extended+i on 3-way partitioned rows
  /// (§3.1.2) instead of the generic merge-walk builder. Same operator;
  /// fewer classification branches.
  bool partitioned_interp = true;
  /// Aggressive (distance-2 PMIS) coarsening on this many top levels,
  /// paired with multipass or 2-stage extended+i interpolation (Table 4:
  /// mp and 2s-ei schemes use 1).
  Int num_aggressive_levels = 0;
  TruncationOptions truncation;  ///< trunc_fact = 0.1, max_elmts = 4
  SmootherKind smoother = SmootherKind::kHybridGS;
  /// Hybrid-GS partition count (Jacobi boundaries across partitions);
  /// 0 = OpenMP thread count. Set to 14 to emulate the paper's socket on
  /// any host — convergence depends on the partitioning only.
  Int gs_partitions = 0;
  Int num_sweeps = 1;
  /// Cycle index gamma: 1 = V-cycle (the paper's configuration), 2 =
  /// W-cycle (more coarse-grid work per cycle, sometimes fewer cycles).
  Int cycle_gamma = 1;
  bool cf_smoothing = true;  ///< C-then-F pre-smoothing, F-then-C post
  std::uint64_t seed = 1234;
  RngKind rng = RngKind::kParallelCounter;
};

/// One multigrid level. The coarsest level holds only A (and the LU).
struct Level {
  CSRMatrix A;    ///< level operator (CF-permuted in kOptimized)
  Int n = 0;      ///< rows of A
  Int nc = 0;     ///< coarse points (rows of the next level)

  // --- baseline representation ---
  CSRMatrix P;   ///< full interpolation (rows in A's ordering)
  CFMarker cf;   ///< CF marker in A's ordering (for branchy CF smoothing)

  // --- optimized representation ---
  CSRMatrix Pf;        ///< fine block of P = [I; Pf]
  CSRMatrix PfT;       ///< its transpose, kept from setup (R reuse)
  CFPermutation perm;  ///< this level's CF permutation (new -> old)

  // --- smoother plans ---
  std::unique_ptr<HybridGSBaseline> gs_base;
  std::unique_ptr<HybridGSOptimized> gs_opt;  ///< reads A in place
  std::unique_ptr<LexGS> lexgs;
  std::unique_ptr<MultiColorGS> mcgs;

  // --- solve-phase workspace: n x m row-major blocks (rc_pre: nc x m),
  // sized for m = 1 at setup and grown to the widest m a batched solve has
  // asked for (ensure_multi_workspace, cycle.hpp); no allocation per cycle.
  Vector b, x, temp, r, rc_pre;
};

struct LevelStats {
  Int rows = 0;
  Long nnz = 0;
  Int coarse = 0;
  Long interp_nnz = 0;
};

/// Analytic memory footprint of one level, by category (the report's
/// Table 2 columns): operator = A, interp = P (baseline) or Pf + kept
/// P^T (optimized), smoother = GS plans (plus the coarse LU on the last
/// level), workspace = the per-cycle solve vectors.
struct LevelMemory {
  std::uint64_t operator_bytes = 0;
  std::uint64_t interp_bytes = 0;
  std::uint64_t smoother_bytes = 0;
  std::uint64_t workspace_bytes = 0;
};

struct Hierarchy {
  AMGOptions opts;
  std::vector<Level> levels;
  LUSolver coarse_lu;
  PhaseTimes setup_times;   ///< Strength+Coarsen / Interp / RAP / Setup_etc
  WorkCounters setup_work;
  std::vector<LevelStats> stats;
  /// Setup incidents (degenerate coarse operator -> level cap, regularized
  /// coarse solve, ...) — merged into the report's `status` block.
  std::vector<std::string> events;
  /// Non-owning per-cycle telemetry sink (amg/telemetry.hpp), loaned by the
  /// solver for the duration of one solve; null when telemetry is off.
  CycleTelemetryHook* telemetry = nullptr;

  Int num_levels() const { return Int(levels.size()); }
  /// Σ_l nnz(A_l) / nnz(A_0) — the paper's operator complexity metric.
  double operator_complexity() const;
  /// Σ_l n_l / n_0.
  double grid_complexity() const;
  /// Per-level footprint split by category (includes the coarse LU and the
  /// solve workspace).
  std::vector<LevelMemory> memory_by_level() const;
};

/// Runs the full setup phase on A.
Hierarchy build_hierarchy(const CSRMatrix& A, const AMGOptions& opts);

/// Structural consistency of a built hierarchy (support/check.hpp
/// invariant layer): every level operator well-formed and square, the
/// interpolation operators' shapes agreeing with their level's (n, nc),
/// every optimized GS plan viewing its own level's operator, and the
/// Galerkin size chain levels[l+1].n == levels[l].nc intact.
/// Returns kOk or kInvalidInput with the diagnosis in check::last_error().
/// Always compiled (tests call it directly); build_hierarchy invokes it at
/// full checking depth in -DHPAMG_CHECK=ON builds.
Status check_hierarchy(const Hierarchy& h);

/// Rows of A whose diagonal entry is missing, zero, or non-finite — such
/// rows break the smoothers (divide by diag) and the dense coarse LU.
/// Optionally reports the largest healthy |diagonal| for shift scaling.
Int count_degenerate_diag(const CSRMatrix& A,
                          double* max_abs_diag = nullptr);

/// Returns A with every degenerate diagonal replaced by `shift`
/// (structurally inserted when absent) and non-finite off-diagonals
/// zeroed — the regularized-coarse-solve fallback shared by the
/// single-node and distributed setups.
CSRMatrix regularize_diagonal(const CSRMatrix& A, double shift);

/// Numeric re-setup for new values on the pattern h was built from: every
/// level keeps its C/F split, permutation and transfers, and setup's own
/// per-level step (Galerkin product, smoother plans) and coarsest-level
/// step (regularization, LU or smoother plans) rebuild the rest.
/// Throws std::invalid_argument when A's size or pattern differs from
/// setup's.
void refresh_hierarchy(Hierarchy& h, const CSRMatrix& A);

/// Human-readable hierarchy table (one line per level).
std::string hierarchy_summary(const Hierarchy& h);

}  // namespace hpamg

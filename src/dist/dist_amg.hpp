// Distributed AMG: setup and V-cycle over simmpi (the multi-node solver of
// SC'15 §4/§5.3-5.4, Table 4 configurations).
//
// Scheme selection reproduces the paper's three interpolation settings:
//   ei(N)       — extended+i on every level;
//   2s-ei(444)  — aggressive PMIS + 2-stage extended+i on the top level(s);
//   mp          — aggressive PMIS + multipass on the top level(s).
//
// The baseline/optimized split carries every multi-node optimization:
// sequential vs parallel column renumbering (§4.2), full vs filtered
// interpolation row exchange (§4.3), per-exchange request setup vs
// persistent communication (§4.4), plus the node-level kernel differences.
#pragma once

#include <memory>

#include "amg/hierarchy.hpp"
#include "dist/dist_coarsen.hpp"
#include "dist/dist_interp.hpp"
#include "dist/dist_matrix.hpp"
#include "dist/dist_spgemm.hpp"
#include "dist/halo.hpp"
#include "matrix/dense.hpp"
#include "support/report.hpp"
#include "support/timer.hpp"

namespace hpamg {

struct SolveResult;  // amg/solver.hpp (DistSolveResult)

struct DistAMGOptions {
  Variant variant = Variant::kOptimized;
  Int max_levels = 16;          ///< Table 4
  Long coarse_size = 64;        ///< global rows triggering direct solve
  StrengthOptions strength;
  InterpKind interp = InterpKind::kExtPI;
  Int num_aggressive_levels = 0;  ///< 1 for 2s-ei / mp schemes
  TruncationOptions truncation;
  Int num_sweeps = 1;
  std::uint64_t seed = 1234;
};

struct DistLevel {
  DistMatrix A;
  DistMatrix P;
  DistMatrix R;   ///< kept transpose (optimized variant only)
  bool has_R = false;
  CFMarker cf;
  std::vector<Int> c_rows, f_rows;  ///< optimized: branch-free CF sweeps
  std::vector<double> inv_diag;
  std::unique_ptr<HaloExchange> halo_A;  ///< x halo for SpMV/smoothing
  std::unique_ptr<HaloExchange> halo_P;  ///< coarse-vector halo for interp
  std::unique_ptr<HaloExchange> halo_R;  ///< fine-vector halo for restrict
  // Solve workspace.
  Vector b, x, r, x_ext, temp;
};

struct DistHierarchy {
  DistAMGOptions opts;
  std::vector<DistLevel> levels;
  LUSolver coarse_lu;            ///< factorization of the gathered coarsest A
  std::vector<Long> coarse_starts;  ///< partition of the coarsest level
  PhaseTimes setup_times;
  WorkCounters setup_work;
  simmpi::CommStats setup_comm;  ///< delta of comm stats over setup
  /// Comm-stat deltas per setup phase (Interp / RAP / Strength+Coarsen) —
  /// inputs to the network model for the Fig 7/8 breakdowns.
  std::map<std::string, simmpi::CommStats> phase_comm;
  std::uint64_t interp_exchange_bytes = 0;  ///< §4.3 volume metric
  std::vector<LevelStats> stats;
  /// Setup incidents (regularized coarse solve, ...) — merged into the
  /// report's `status` block. Identical on every rank (the triggering
  /// checks run on the gathered coarsest operator).
  std::vector<std::string> events;
  /// Non-owning per-cycle telemetry sink (amg/telemetry.hpp), loaned by
  /// the rank's solve driver; null when telemetry is off. Each rank owns
  /// its hierarchy, so the hook is rank-local.
  CycleTelemetryHook* telemetry = nullptr;

  double operator_complexity() const;
  /// Σ_l n_l / n_0 over the global level sizes.
  double grid_complexity() const;

  /// Machine-readable report of this rank's view of the setup (global
  /// hierarchy stats + local phase/counter/comm breakdowns) and, when `sr`
  /// is given, the solve (see support/report.hpp for the JSON schema).
  /// The solve-phase comm delta is not tracked here — callers that want
  /// it populate `solve_comm` on the returned report themselves.
  SolveReport report(const SolveResult* sr = nullptr) const;
};

/// Collective: every rank calls with its piece of A.
DistHierarchy dist_amg_setup(simmpi::Comm& comm, const DistMatrix& A,
                             const DistAMGOptions& opts);

/// One distributed V-cycle: x <- x + B(b - Ax). Collective.
void dist_vcycle(simmpi::Comm& comm, DistHierarchy& h, const Vector& b,
                 Vector& x, PhaseTimes* pt = nullptr);

// --- distributed matrix kernels (shared with dist_krylov) ---

/// y = A x with halo exchange of x.
void dist_spmv(simmpi::Comm& comm, const DistMatrix& A, HaloExchange& halo,
               const Vector& x, Vector& x_ext, Vector& y);

/// Y = A X for all columns, with ONE batched halo exchange (all m values
/// per boundary row in a single message per peer — per-RHS message count
/// is 1/m of calling dist_spmv per column). Same body as the Vector form,
/// which is its compiled m = 1 instance.
void dist_spmv(simmpi::Comm& comm, const DistMatrix& A, HaloExchange& halo,
               const MultiVector& X, MultiVector& X_ext, MultiVector& Y);

/// r = b - A x with a caller-provided halo pattern and scratch x_ext.
void dist_residual(simmpi::Comm& comm, const DistMatrix& A,
                   HaloExchange& halo, const Vector& x, Vector& x_ext,
                   const Vector& b, Vector& r);

/// y = A^T x via partial-sum scatter + triplet exchange (the baseline
/// restriction path: no stored transpose).
void dist_spmv_transpose(simmpi::Comm& comm, const DistMatrix& A,
                         const Vector& x, Vector& y);

}  // namespace hpamg

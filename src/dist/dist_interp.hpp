// Distributed interpolation operators.
//
// Extended+i is a distance-two interpolation, so building it needs matrix
// rows owned by other ranks (SC'15 §4.1): the rows of A for strong fine
// neighbors, and the strong-C adjacency of those neighbors. The optimized
// path filters the exchanged A rows on the sender (§4.3): only the
// diagonal, opposite-sign coarse columns, and opposite-sign fine columns
// the sender knows it strongly influences can ever be used by a receiver —
// the paper measures a >3x communication-volume reduction from this.
// Each rank then builds its rows as serial extended+i does (§3.1): in one
// local index space (owned points, A.colmap, then the distance-two C
// points of the gathered rows) with a marker array for Ĉ, and b_ik walks
// only each distributing row's opposite-sign coarse entries (§3.1.2).
//
// Multipass interpolation needs one additional gather of remote
// interpolation rows per pass (its long-range weights are compositions of
// neighbors' rows).
#pragma once

#include "amg/truncate.hpp"
#include "dist/dist_coarsen.hpp"
#include "dist/dist_matrix.hpp"

namespace hpamg {

struct DistInterpOptions {
  TruncationOptions truncation;
  bool fused_truncation = true;
  bool filtered_exchange = true;  ///< §4.3 sender-side filter
  bool persistent = false;
};

struct DistInterpInfo {
  std::uint64_t gathered_bytes = 0;  ///< row-exchange volume (Fig 8 claim)
};

/// Distributed extended+i interpolation. `ST` is the distributed transpose
/// of S (needed by the §4.3 filter; pass the one computed for PMIS).
/// Returns P row-partitioned like A, column-partitioned by `cn.starts`.
DistMatrix dist_extpi_interp(simmpi::Comm& comm, const DistMatrix& A,
                             const DistMatrix& S, const DistMatrix& ST,
                             const CFMarker& cf, const CoarseNumbering& cn,
                             const DistInterpOptions& opt = {},
                             WorkCounters* wc = nullptr,
                             DistInterpInfo* info = nullptr);

/// Distributed multipass interpolation (Table 4 `mp` scheme).
DistMatrix dist_multipass_interp(simmpi::Comm& comm, const DistMatrix& A,
                                 const DistMatrix& S, const CFMarker& cf,
                                 const CoarseNumbering& cn,
                                 const DistInterpOptions& opt = {},
                                 WorkCounters* wc = nullptr,
                                 DistInterpInfo* info = nullptr);

/// Truncates every F row of P (cf <= 0) with truncate_row, in each row's
/// [diag | offd] column order: the baseline's whole-operator pass and the
/// final stage of 2-stage interpolation.
DistMatrix truncate_dist_interp(simmpi::Comm& comm, const DistMatrix& P,
                                const CFMarker& cf,
                                const TruncationOptions& opt);

}  // namespace hpamg

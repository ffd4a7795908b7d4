// Distributed sparse products (SC'15 §4.1 Fig 3c) over each rank's local
// index space. A rank stacks its own rows of the right operand over the
// rows it gathers from their owners, renumbers the gathered global
// columns into its compressed local space (§4.2, the step the paper
// parallelizes), runs a serial §3.1.1 kernel on the stacked operands, and
// maps the local result back to global columns once.
#pragma once

#include "amg/hierarchy.hpp"
#include "dist/dist_matrix.hpp"
#include "dist/simmpi.hpp"
#include "support/counters.hpp"

namespace hpamg {

struct DistSpgemmOptions {
  /// Optimized: one-pass SpGEMM, row-wise fused RAP (Fig 1a) and
  /// persistent row-gather sends (§4.4). Baseline: two-pass SpGEMM,
  /// HYPRE's fused RAP (Fig 1b), per-exchange request setup.
  Variant variant = Variant::kOptimized;
  bool parallel_renumber = true;  ///< §4.2 scheme vs sequential ordered map
};

struct DistSpgemmInfo {
  std::uint64_t gathered_rows = 0;
  std::uint64_t gathered_bytes = 0;
  double renumber_seconds = 0.0;
  double local_seconds = 0.0;
};

/// C = A * B: B's rows for A.colmap are gathered and stacked under B's own
/// rows, and A's diag|offd blocks multiply the stack.
DistMatrix dist_spgemm(simmpi::Comm& comm, const DistMatrix& A,
                       const DistMatrix& B, const DistSpgemmOptions& opt = {},
                       WorkCounters* wc = nullptr,
                       DistSpgemmInfo* info = nullptr);

/// Galerkin product R A P with R = dist_transpose(P), as one serial fused
/// RAP kernel call on the rank's local index space (no distributed R·A):
/// R's diag|offd blocks times A's rows stacked over A's rows for R.colmap,
/// times P's rows stacked over P's rows for the external columns that R's
/// rows reach through A. If `R_out` is non-null it receives R (the
/// optimized hierarchy keeps it for the solve phase).
DistMatrix dist_rap(simmpi::Comm& comm, const DistMatrix& A,
                    const DistMatrix& P, const DistSpgemmOptions& opt = {},
                    WorkCounters* wc = nullptr, DistSpgemmInfo* info = nullptr,
                    DistMatrix* R_out = nullptr);

}  // namespace hpamg

// Distributed matrix transpose over the serial kernel: the diag block's
// transpose is T's diag block as it stands, and the offd block's transpose
// has one row per colmap slot, which goes to the owner of that column. Each
// receiver concatenates its peers' rows in rank order into T's offd block
// over a sorted colmap, so every row of T comes out column-sorted.
#pragma once

#include "dist/dist_matrix.hpp"
#include "support/counters.hpp"

namespace hpamg {

/// Returns A^T, row-partitioned by A's column partition. `parallel` selects
/// transpose_parallel (parallel counting sort, §3.3) or transpose_serial
/// for the local blocks, as build_hierarchy does.
DistMatrix dist_transpose(simmpi::Comm& comm, const DistMatrix& A,
                          bool parallel = true, WorkCounters* wc = nullptr);

}  // namespace hpamg

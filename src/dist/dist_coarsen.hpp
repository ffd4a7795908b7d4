// Distributed strength-of-connection and PMIS coarsening: the serial
// kernels run on each rank's diag/offd blocks, and only the exchange
// points are distributed.
//
// Strength is row-local: strength_blocks visits each row of diag and then
// of offd, and the result shares A's colmap. PMIS is pmis_rounds with two
// halo exchanges (markers and measures over S's and ST's colmaps) and an
// allreduce of the changed count, BoomerAMG's communication structure. The
// aggressive variant is serial pmis_aggressive's construction over global
// first-pass C ids: distance-two rows from the gathered strong-C rows of
// remote F neighbors, then a second dist_pmis on that graph, so its result
// equals the serial one at every partition.
#pragma once

#include "amg/pmis.hpp"
#include "amg/strength.hpp"
#include "dist/dist_matrix.hpp"
#include "dist/halo.hpp"

namespace hpamg {

/// Distributed strength matrix; same row partition and colmap as A
/// (entries are a subset of A's pattern). `parallel_assembly` selects the
/// prefix-sum assembly, as for strength_matrix vs strength_matrix_serial.
DistMatrix dist_strength(const DistMatrix& A, const StrengthOptions& opt,
                         bool parallel_assembly = true,
                         WorkCounters* wc = nullptr);

/// Distributed PMIS. S is the distributed strength matrix, ST its
/// distributed transpose (dist_transpose(S)). Returns the local CF marker.
CFMarker dist_pmis(simmpi::Comm& comm, const DistMatrix& S,
                   const DistMatrix& ST, const PmisOptions& opt = {},
                   WorkCounters* wc = nullptr);

/// Distributed aggressive (distance-two) PMIS; optionally returns the
/// first-pass marker for 2-stage interpolation.
CFMarker dist_pmis_aggressive(simmpi::Comm& comm, const DistMatrix& S,
                              const DistMatrix& ST,
                              const PmisOptions& opt = {},
                              CFMarker* first_pass_out = nullptr,
                              WorkCounters* wc = nullptr);

/// Global coarse numbering: every rank numbers its C points consecutively;
/// rank p's C points occupy [starts[p], starts[p+1]).
struct CoarseNumbering {
  std::vector<Long> starts;       ///< size nranks + 1
  std::vector<Long> local_to_global;  ///< per local point; -1 for F points
  Long global_coarse = 0;
};

CoarseNumbering coarse_numbering(simmpi::Comm& comm, const CFMarker& cf);

/// C markers and global coarse ids over a rank's local index space: owned
/// points at [0, n), A.colmap slot j at n + j (one halo exchange each).
struct LocalCoarseIds {
  std::vector<signed char> is_c;
  std::vector<Long> cgid;  ///< -1 for F points
};

LocalCoarseIds local_coarse_ids(simmpi::Comm& comm, const DistMatrix& A,
                                const CFMarker& cf, const CoarseNumbering& cn,
                                bool persistent);

/// S restricted to its C columns, each valued by the C point's global
/// coarse id: the strong-C rows that seed Ĉ (and distance-two coarsening
/// paths). Keeps S's column space; `ids` is over S's local index space.
DistMatrix strong_coarse_rows(const DistMatrix& S, const LocalCoarseIds& ids);

}  // namespace hpamg

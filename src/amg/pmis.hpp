// PMIS coarsening (Parallel Modified Independent Set, De Sterck/Yang) and
// the aggressive (distance-two) variant used on top levels in the paper's
// multi-node runs (Table 4).
//
// Each point gets measure w(i) = |{j : i strongly influences j}| + rand(i).
// Points that influence no one become F immediately; then repeatedly the
// set of points whose measure beats every undecided strong neighbor's is
// promoted to C, and everything strongly connected to a new C point becomes
// F. The random tie-breaker uses the counter-based parallel RNG by default
// (the paper switches from HYPRE's sequential RNG to the MKL parallel RNG,
// observing a ~2% iteration-count drift); the sequential RNG is available
// to reproduce the baseline.
#pragma once

#include <functional>

#include "matrix/csr.hpp"
#include "matrix/permute.hpp"
#include "support/counters.hpp"

namespace hpamg {

enum class RngKind { kParallelCounter, kSequential };

struct PmisOptions {
  std::uint64_t seed = 1234;
  RngKind rng = RngKind::kParallelCounter;
};

/// Computes the CF splitting. `S` is the strength matrix (S(i,j) = j
/// strongly influences i); `ST` its transpose. Returns marker: >0 coarse,
/// <0 fine.
CFMarker pmis_coarsen(const CSRMatrix& S, const CSRMatrix& ST,
                      const PmisOptions& opt = {}, WorkCounters* wc = nullptr);

/// The distributed side of the PMIS round loop. A rank's rows of S and ST
/// add offd blocks whose columns name external points; w_s/w_st and
/// cf_s/cf_st hold those points' measures and markers, which the hooks
/// keep current. Serial runs have none of it.
struct PmisHalo {
  const CSRMatrix* S_offd = nullptr;
  const CSRMatrix* ST_offd = nullptr;
  Long first_row = 0;  ///< global id of row 0: keys the counter RNG
  std::vector<double> w_s, w_st;
  std::vector<signed char> cf_s, cf_st;
  /// Called once with the local measures: fills w_s and w_st.
  std::function<void(const std::vector<double>& w)> share_measures;
  /// Refreshes cf_s, and cf_st too if `both`, from the local markers.
  std::function<void(const CFMarker& cf, bool both)> refresh;
  /// Sums a round's changed count over all ranks.
  std::function<Long(Long)> reduce;
};

/// The one PMIS round loop over the diag blocks S and ST and, if `halo`
/// is given, its offd blocks and hooks. pmis_coarsen is the instance with
/// no halo; dist_pmis passes a rank's blocks, its two halo exchanges and
/// its allreduce. The sequential RNG is serial-only: with a halo the
/// counter RNG is keyed by global row.
CFMarker pmis_rounds(const CSRMatrix& S, const CSRMatrix& ST,
                     const PmisOptions& opt, PmisHalo* halo,
                     WorkCounters* wc = nullptr);

/// Aggressive coarsening: PMIS followed by a second PMIS pass over the
/// first-pass C points using the distance-two strength graph (paths C-C and
/// C-F-C). Produces far fewer C points; pairs with multipass or 2-stage
/// extended+i interpolation (SC'15 Table 4).
/// If `first_pass_out` is non-null it receives the first-pass (standard
/// PMIS) marker — 2-stage extended+i interpolation needs both stages.
CFMarker pmis_aggressive(const CSRMatrix& S, const CSRMatrix& ST,
                         const PmisOptions& opt = {},
                         CFMarker* first_pass_out = nullptr,
                         WorkCounters* wc = nullptr);

/// Number of coarse points in a marker.
Int count_coarse(const CFMarker& cf);

}  // namespace hpamg

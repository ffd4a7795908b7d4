#include "amg/pmis.hpp"

#include "support/hash.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/trace.hpp"

namespace hpamg {

namespace {

constexpr signed char kUndecided = 0;
constexpr signed char kCoarse = 1;
constexpr signed char kFine = -1;

/// w(i) = |ST row i| + rand(i), with ST's row split over its diag and
/// offd blocks and the counter RNG keyed by the global row.
std::vector<double> pmis_measures(const CSRMatrix& ST,
                                  const CSRMatrix* ST_offd, Long first_row,
                                  const PmisOptions& opt) {
  const Int n = ST.nrows;
  std::vector<double> w(n);
  if (opt.rng == RngKind::kParallelCounter || ST_offd) {
    CounterRng rng(opt.seed);
    parallel_for(0, n, [&](Int i) {
      const Int deg = ST.row_nnz(i) + (ST_offd ? ST_offd->row_nnz(i) : 0);
      w[i] = double(deg) + rng.uniform(std::uint64_t(first_row + i));
    });
  } else {
    SequentialRng rng(opt.seed);
    for (Int i = 0; i < n; ++i) w[i] = double(ST.row_nnz(i)) + rng.next();
  }
  return w;
}

}  // namespace

// lint: counted-no-span(shared body; pmis_coarsen and dist_pmis open the span)
CFMarker pmis_rounds(const CSRMatrix& S, const CSRMatrix& ST,
                     const PmisOptions& opt, PmisHalo* halo,
                     WorkCounters* wc) {
  const Int n = S.nrows;
  const CSRMatrix* So = halo ? halo->S_offd : nullptr;
  const CSRMatrix* STo = halo ? halo->ST_offd : nullptr;
  std::vector<double> w =
      pmis_measures(ST, STo, halo ? halo->first_row : 0, opt);
  CFMarker cf(n, kUndecided);
  if (halo) halo->share_measures(w);
  const auto refresh = [&](bool both) {
    if (halo) halo->refresh(cf, both);
  };

  // Points that strongly influence nobody (w < 1) can never be useful C
  // points. Points with no strong connections at all in either direction
  // stay out of the C/F game entirely — PMIS makes them F.
  parallel_for(0, n, [&](Int i) {
    if (w[i] < 1.0) cf[i] = kFine;
  });

  std::vector<signed char> next(cf);
  while (true) {
    // Phase 1: select the distributed independent set — an undecided point
    // becomes C if its measure beats all undecided strong neighbors (in
    // both directions of the strength graph).
    refresh(true);
    std::int64_t promoted = 0;
    // lint: no-span(shared body; pmis_coarsen and dist_pmis open the span)
#pragma omp parallel for schedule(dynamic, 256) reduction(+ : promoted)
    for (Int i = 0; i < n; ++i) {
      if (cf[i] != kUndecided) continue;
      // i wins iff its measure beats every undecided neighbor in the
      // symmetrized strength graph. Measures are distinct w.p. 1 thanks to
      // the random tie-breaker.
      bool best = true;
      for (Int k = S.rowptr[i]; k < S.rowptr[i + 1] && best; ++k) {
        const Int j = S.colidx[k];
        if (j != i && cf[j] == kUndecided && w[j] >= w[i]) best = false;
      }
      for (Int k = ST.rowptr[i]; k < ST.rowptr[i + 1] && best; ++k) {
        const Int j = ST.colidx[k];
        if (j != i && cf[j] == kUndecided && w[j] >= w[i]) best = false;
      }
      if (So)
        for (Int k = So->rowptr[i]; k < So->rowptr[i + 1] && best; ++k) {
          const Int j = So->colidx[k];
          if (halo->cf_s[j] == kUndecided && halo->w_s[j] >= w[i])
            best = false;
        }
      if (STo)
        for (Int k = STo->rowptr[i]; k < STo->rowptr[i + 1] && best; ++k) {
          const Int j = STo->colidx[k];
          if (halo->cf_st[j] == kUndecided && halo->w_st[j] >= w[i])
            best = false;
        }
      if (best) {
        next[i] = kCoarse;
        ++promoted;
      }
    }
    parallel_for(0, n, [&](Int i) { cf[i] = next[i]; });

    // Phase 2: every undecided point strongly influenced by a new C point
    // becomes F (it will interpolate from that C point).
    refresh(false);
    std::int64_t demoted = 0;
    // lint: no-span(shared body; pmis_coarsen and dist_pmis open the span)
#pragma omp parallel for schedule(dynamic, 256) reduction(+ : demoted)
    for (Int i = 0; i < n; ++i) {
      if (cf[i] != kUndecided) continue;
      bool fine = false;
      for (Int k = S.rowptr[i]; k < S.rowptr[i + 1] && !fine; ++k)
        fine = cf[S.colidx[k]] == kCoarse;
      if (So)
        for (Int k = So->rowptr[i]; k < So->rowptr[i + 1] && !fine; ++k)
          fine = halo->cf_s[So->colidx[k]] == kCoarse;
      if (fine) {
        next[i] = kFine;
        ++demoted;
      }
    }
    parallel_for(0, n, [&](Int i) { cf[i] = next[i]; });

    Long changed = Long(promoted + demoted);
    if (halo) changed = halo->reduce(changed);
    if (changed == 0) break;
  }
  // Anything still undecided has no undecided strong neighbors and no C
  // influencer; make it C if it influences someone, F otherwise.
  parallel_for(0, n, [&](Int i) {
    if (cf[i] == kUndecided)
      cf[i] = ST.row_nnz(i) + (STo ? STo->row_nnz(i) : 0) > 0 ? kCoarse
                                                              : kFine;
  });
  if (wc) {
    const Long nnz = S.nnz() + ST.nnz() + (So ? So->nnz() : 0) +
                     (STo ? STo->nnz() : 0);
    wc->bytes_read += 4 * nnz * sizeof(Int);
  }
  return cf;
}

CFMarker pmis_coarsen(const CSRMatrix& S, const CSRMatrix& ST,
                      const PmisOptions& opt, WorkCounters* wc) {
  TRACE_SPAN("pmis", "kernel", "rows", std::int64_t(S.nrows));
  require(S.nrows == S.ncols && ST.nrows == S.nrows,
          "pmis_coarsen: bad shapes");
  return pmis_rounds(S, ST, opt, nullptr, wc);
}

CFMarker pmis_aggressive(const CSRMatrix& S, const CSRMatrix& ST,
                         const PmisOptions& opt, CFMarker* first_pass_out,
                         WorkCounters* wc) {
  TRACE_SPAN("pmis.aggressive", "kernel", "rows", std::int64_t(S.nrows));
  CFMarker cf1 = pmis_coarsen(S, ST, opt, wc);
  if (first_pass_out) *first_pass_out = cf1;
  const Int n = S.nrows;

  // Map first-pass C points to a compact index space.
  std::vector<Int> cmap(n, -1);
  Int nc1 = 0;
  for (Int i = 0; i < n; ++i)
    if (cf1[i] > 0) cmap[i] = nc1++;
  if (nc1 == 0) return cf1;

  // Distance-two strength graph among C1 points: c -> c' if S(c, c') or
  // S(c, f) and S(f, c') for some F point f. Built row-wise with a hash set.
  std::vector<std::vector<Int>> s2_rows(nc1);
  parallel_for_dynamic(0, n, [&](Int i) {
    if (cf1[i] <= 0) return;
    HashSet<Int> seen(16);
    for (Int k = S.rowptr[i]; k < S.rowptr[i + 1]; ++k) {
      const Int j = S.colidx[k];
      if (j == i) continue;
      if (cf1[j] > 0) {
        seen.insert(cmap[j]);
      } else {
        for (Int k2 = S.rowptr[j]; k2 < S.rowptr[j + 1]; ++k2) {
          const Int j2 = S.colidx[k2];
          if (j2 != i && cf1[j2] > 0) seen.insert(cmap[j2]);
        }
      }
    }
    seen.collect(s2_rows[cmap[i]]);
  });
  std::vector<Triplet> trip;
  for (Int c = 0; c < nc1; ++c)
    for (Int c2 : s2_rows[c]) trip.push_back({c, c2, 1.0});
  CSRMatrix S2 = CSRMatrix::from_triplets(nc1, nc1, std::move(trip));
  CSRMatrix S2T = S2;  // symmetrized by construction below
  {
    // S2 is not symmetric in general; build the transpose pattern.
    std::vector<Triplet> tt;
    for (Int i = 0; i < S2.nrows; ++i)
      for (Int k = S2.rowptr[i]; k < S2.rowptr[i + 1]; ++k)
        tt.push_back({S2.colidx[k], i, 1.0});
    S2T = CSRMatrix::from_triplets(nc1, nc1, std::move(tt));
  }
  PmisOptions opt2 = opt;
  opt2.seed = opt.seed ^ 0x9e3779b97f4a7c15ull;
  CFMarker cf2 = pmis_coarsen(S2, S2T, opt2, wc);

  // Final marker: C only if coarse in both passes.
  CFMarker out(n, kFine);
  parallel_for(0, n, [&](Int i) {
    if (cf1[i] > 0 && cf2[cmap[i]] > 0) out[i] = kCoarse;
  });
  return out;
}

Int count_coarse(const CFMarker& cf) {
  Int nc = 0;
  for (signed char c : cf)
    if (c > 0) ++nc;
  return nc;
}

}  // namespace hpamg

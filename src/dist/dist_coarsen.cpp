#include "dist/dist_coarsen.hpp"

#include "dist/dist_transpose.hpp"
#include "support/check.hpp"
#include "support/hash.hpp"
#include "support/parallel.hpp"
#include "support/trace.hpp"

namespace hpamg {

namespace {
constexpr signed char kCoarse = 1;
constexpr signed char kFine = -1;
}  // namespace

DistMatrix dist_strength(const DistMatrix& A, const StrengthOptions& opt,
                         bool parallel_assembly, WorkCounters* wc) {
  TRACE_SPAN("strength.dist", "kernel", "rows",
             std::int64_t(A.local_rows()));
  DistMatrix S;
  S.global_rows = A.global_rows;
  S.global_cols = A.global_cols;
  S.row_starts = A.row_starts;
  S.col_starts = A.col_starts;
  S.my_rank = A.my_rank;
  S.colmap = A.colmap;  // shared compressed column space
  strength_blocks(A.diag, &A.offd, opt, parallel_assembly, S.diag, &S.offd,
                  wc);
  return S;
}

CFMarker dist_pmis(simmpi::Comm& comm, const DistMatrix& S,
                   const DistMatrix& ST, const PmisOptions& opt,
                   WorkCounters* wc) {
  TRACE_SPAN("pmis.dist", "kernel", "rows", std::int64_t(S.local_rows()));
  HaloExchange halo_s(comm, S.colmap, S.row_starts, true);
  HaloExchange halo_st(comm, ST.colmap, ST.row_starts, true);
  PmisHalo h;
  h.S_offd = &S.offd;
  h.ST_offd = &ST.offd;
  h.first_row = S.first_row();
  h.share_measures = [&](const std::vector<double>& w) {
    halo_s.exchange(w, h.w_s);
    halo_st.exchange(w, h.w_st);
  };
  h.refresh = [&](const CFMarker& cf, bool both) {
    halo_s.exchange(cf, h.cf_s);
    if (both) halo_st.exchange(cf, h.cf_st);
  };
  h.reduce = [&](Long changed) { return comm.allreduce_sum(changed); };
  return pmis_rounds(S.diag, ST.diag, opt, &h, wc);
}

CFMarker dist_pmis_aggressive(simmpi::Comm& comm, const DistMatrix& S,
                              const DistMatrix& ST, const PmisOptions& opt,
                              CFMarker* first_pass_out, WorkCounters* wc) {
  TRACE_SPAN("pmis.aggressive", "kernel", "rows",
             std::int64_t(S.local_rows()));
  CFMarker cf1 = dist_pmis(comm, S, ST, opt, wc);
  if (first_pass_out) *first_pass_out = cf1;
  // Global C1 ids number the first-pass C points in global order: serial
  // pmis_aggressive's compact C1 index at every partition.
  const CoarseNumbering cn1 = coarse_numbering(comm, cf1);
  if (cn1.global_coarse == 0) return cf1;
  const Int n = S.local_rows();
  const Int m = Int(S.colmap.size());

  // Strong-C1 rows valued by C1 id: the rank's own, and those of the remote
  // F points its C1 points strongly depend on.
  const LocalCoarseIds ids = local_coarse_ids(comm, S, cf1, cn1, true);
  const DistMatrix SC = strong_coarse_rows(S, ids);
  std::vector<Int> ext_row(m, -1);
  std::vector<Long> need_f;
  for (Int i = 0; i < n; ++i) {
    if (cf1[i] <= 0) continue;
    for (Int k = S.offd.rowptr[i]; k < S.offd.rowptr[i + 1]; ++k)
      if (!ids.is_c[n + S.offd.colidx[k]]) ext_row[S.offd.colidx[k]] = 0;
  }
  for (Int j = 0; j < m; ++j) {
    if (ext_row[j] < 0) continue;
    ext_row[j] = Int(need_f.size());
    need_f.push_back(S.colmap[j]);
  }
  const GatheredRows sc_rows = gather_rows(comm, SC, need_f);

  // Distance-two strength graph among C1 points, in global C1 ids: c -> c'
  // if S(c, c') or S(c, f) and S(f, c') for some F point f.
  const Long c0 = cn1.starts[comm.rank()];
  std::vector<std::vector<Long>> s2_rows(cn1.starts[comm.rank() + 1] - c0);
  parallel_for_dynamic(0, n, [&](Int i) {
    if (cf1[i] <= 0) return;
    const Long self = ids.cgid[i];
    HashSet<Long> seen(16);
    // Strong-C rows carry C1 ids as values.
    const auto visit = [&](const std::vector<double>& cid, Int lo, Int hi) {
      for (Int k = lo; k < hi; ++k)
        if (Long(cid[k]) != self) seen.insert(Long(cid[k]));
    };
    const auto visit_local = [&](Int r) {
      visit(SC.diag.values, SC.diag.rowptr[r], SC.diag.rowptr[r + 1]);
      visit(SC.offd.values, SC.offd.rowptr[r], SC.offd.rowptr[r + 1]);
    };
    visit_local(i);
    for (Int k = S.diag.rowptr[i]; k < S.diag.rowptr[i + 1]; ++k)
      if (!ids.is_c[S.diag.colidx[k]]) visit_local(S.diag.colidx[k]);
    for (Int k = S.offd.rowptr[i]; k < S.offd.rowptr[i + 1]; ++k) {
      const Int j = S.offd.colidx[k];
      if (ids.is_c[n + j]) continue;
      const Int e = ext_row[j];
      visit(sc_rows.values, sc_rows.rowptr[e], sc_rows.rowptr[e + 1]);
    }
    seen.collect(s2_rows[self - c0]);
  });
  GlobalRows rows;
  for (const std::vector<Long>& row : s2_rows) {
    for (Long g : row) rows.add(g, 1.0);
    rows.end_row();
  }
  const DistMatrix S2 =
      dist_matrix_from_rows(comm, cn1.starts, cn1.starts, rows);
  HPAMG_CHECK_INVARIANT(check::Depth::kCheap, S2.check_partition(comm.size()));
  const DistMatrix S2T = dist_transpose(comm, S2, true, wc);
  PmisOptions opt2 = opt;
  opt2.seed = opt.seed ^ 0x9e3779b97f4a7c15ull;
  const CFMarker cf2 = dist_pmis(comm, S2, S2T, opt2, wc);

  // Final marker: C only if coarse in both passes.
  CFMarker out(n, kFine);
  parallel_for(0, n, [&](Int i) {
    if (cf1[i] > 0 && cf2[ids.cgid[i] - c0] > 0) out[i] = kCoarse;
  });
  return out;
}

CoarseNumbering coarse_numbering(simmpi::Comm& comm, const CFMarker& cf) {
  CoarseNumbering cn;
  Long local_nc = 0;
  for (signed char c : cf)
    if (c > 0) ++local_nc;
  std::vector<Long> counts = comm.allgather(local_nc);
  cn.starts.assign(comm.size() + 1, 0);
  for (int r = 0; r < comm.size(); ++r)
    cn.starts[r + 1] = cn.starts[r] + counts[r];
  cn.global_coarse = cn.starts.back();
  cn.local_to_global.assign(cf.size(), -1);
  Long next = cn.starts[comm.rank()];
  for (std::size_t i = 0; i < cf.size(); ++i)
    if (cf[i] > 0) cn.local_to_global[i] = next++;
  return cn;
}

LocalCoarseIds local_coarse_ids(simmpi::Comm& comm, const DistMatrix& A,
                                const CFMarker& cf, const CoarseNumbering& cn,
                                bool persistent) {
  HaloExchange halo(comm, A.colmap, A.row_starts, persistent);
  std::vector<signed char> cf_ext;
  halo.exchange(cf, cf_ext);
  std::vector<Long> cid_ext;
  halo.exchange(cn.local_to_global, cid_ext);
  const Int n = A.local_rows();
  const Int m = Int(A.colmap.size());
  LocalCoarseIds ids;
  ids.is_c.resize(n + m);
  ids.cgid.resize(n + m);
  for (Int i = 0; i < n; ++i) {
    ids.is_c[i] = cf[i] > 0;
    ids.cgid[i] = cn.local_to_global[i];
  }
  for (Int j = 0; j < m; ++j) {
    ids.is_c[n + j] = cf_ext[j] > 0;
    ids.cgid[n + j] = cid_ext[j];
  }
  return ids;
}

DistMatrix strong_coarse_rows(const DistMatrix& S, const LocalCoarseIds& ids) {
  const auto restrict_to_c = [&](const CSRMatrix& B, Int offset) {
    CSRMatrix R(B.nrows, B.ncols);
    for (Int i = 0; i < B.nrows; ++i) {
      for (Int k = B.rowptr[i]; k < B.rowptr[i + 1]; ++k) {
        const Int l = offset + B.colidx[k];
        if (!ids.is_c[l]) continue;
        R.colidx.push_back(B.colidx[k]);
        R.values.push_back(double(ids.cgid[l]));
      }
      R.rowptr[i + 1] = Int(R.colidx.size());
    }
    return R;
  };
  DistMatrix SC;
  SC.global_rows = S.global_rows;
  SC.global_cols = S.global_cols;
  SC.row_starts = S.row_starts;
  SC.col_starts = S.col_starts;
  SC.my_rank = S.my_rank;
  SC.colmap = S.colmap;
  SC.diag = restrict_to_c(S.diag, 0);
  SC.offd = restrict_to_c(S.offd, S.local_cols());
  return SC;
}

}  // namespace hpamg

#include "dist/dist_interp.hpp"

#include <algorithm>

#include "dist/halo.hpp"
#include "dist/renumber.hpp"
#include "support/parallel.hpp"
#include "support/sort.hpp"
#include "support/trace.hpp"

namespace hpamg {

namespace {

constexpr int kTagMp = 7401;

inline double sign_of(double v) { return v >= 0 ? 1.0 : -1.0; }
inline double abar(double a_kk, double a_kl) {
  return sign_of(a_kk) == sign_of(a_kl) ? 0.0 : a_kl;
}

/// Sorted-vector membership/index helper.
inline Int sorted_find(const std::vector<Long>& v, Long g) {
  auto it = std::lower_bound(v.begin(), v.end(), g);
  return (it != v.end() && *it == g) ? Int(it - v.begin()) : -1;
}

/// Visits row i of A in [diag | offd] order as (local index, value): the
/// rank's local index space puts owned columns at [0, n) and A.colmap
/// slot j at n + j.
template <typename Fn>
void for_each_local(const DistMatrix& A, Int i, Fn&& fn) {
  const Int n = A.local_cols();
  for (Int k = A.diag.rowptr[i]; k < A.diag.rowptr[i + 1]; ++k)
    fn(A.diag.colidx[k], A.diag.values[k]);
  for (Int k = A.offd.rowptr[i]; k < A.offd.rowptr[i + 1]; ++k)
    fn(n + A.offd.colidx[k], A.offd.values[k]);
}

/// Stamped membership over a local index space: next() forgets every mark
/// at once.
struct Marker {
  std::vector<Int> at;
  Int stamp = 0;
  explicit Marker(std::size_t n) : at(n, -1) {}
  void next() { ++stamp; }
  void set(Int j) { at[j] = stamp; }
  bool has(Int j) const { return at[j] == stamp; }
};

/// One row's sparse accumulator over a local index space (the §3.1.1
/// marker array): column j holds slot pos[j] - base of (cols, acc) while
/// pos[j] >= base. clear() forgets the row by moving base past its slots.
/// Slots keep first-insertion order.
struct RowAccumulator {
  std::vector<Int> pos;
  std::vector<Int> cols;
  std::vector<double> acc;
  Int base = 0;
  explicit RowAccumulator(std::size_t n) : pos(n, -1) {}
  void clear() {
    base += Int(cols.size());
    cols.clear();
    acc.clear();
  }
  Int slot(Int j) const { return pos[j] >= base ? pos[j] - base : -1; }
  Int insert(Int j) {
    if (pos[j] < base) {
      pos[j] = base + Int(cols.size());
      cols.push_back(j);
      acc.push_back(0.0);
    }
    return pos[j] - base;
  }
};

/// Ends the row that starts at `start`, truncating it in place first when
/// `opt` is given (truncate_row's tie-breaks follow the entry order).
void end_row_truncated(GlobalRows& rows, std::size_t start,
                       const TruncationOptions* opt) {
  if (opt) {
    const Int len = truncate_row(rows.cols.data() + start,
                                 rows.vals.data() + start,
                                 Int(rows.cols.size() - start), *opt);
    rows.cols.resize(start + len);
    rows.vals.resize(start + len);
  }
  rows.end_row();
}

}  // namespace

DistMatrix truncate_dist_interp(simmpi::Comm& comm, const DistMatrix& P,
                                const CFMarker& cf,
                                const TruncationOptions& opt) {
  GlobalRows rows;
  for (Int i = 0; i < P.local_rows(); ++i) {
    const std::size_t start = rows.cols.size();
    for (Int k = P.diag.rowptr[i]; k < P.diag.rowptr[i + 1]; ++k)
      rows.add(P.first_col() + P.diag.colidx[k], P.diag.values[k]);
    for (Int k = P.offd.rowptr[i]; k < P.offd.rowptr[i + 1]; ++k)
      rows.add(P.colmap[P.offd.colidx[k]], P.offd.values[k]);
    end_row_truncated(rows, start, cf[i] <= 0 ? &opt : nullptr);
  }
  return dist_matrix_from_rows(comm, P.row_starts, P.col_starts, rows);
}

DistMatrix dist_extpi_interp(simmpi::Comm& comm, const DistMatrix& A,
                             const DistMatrix& S, const DistMatrix& ST,
                             const CFMarker& cf, const CoarseNumbering& cn,
                             const DistInterpOptions& opt, WorkCounters* wc,
                             DistInterpInfo* info) {
  TRACE_SPAN("interp.extpi_dist", "kernel", "rows",
             std::int64_t(A.local_rows()));
  const Int n = A.local_rows();
  const Int m = Int(A.colmap.size());
  const Long r0 = A.first_row();

  // P is built in one local index space: owned points [0, n), A.colmap
  // [n, n + m), then the distance-two C points that only the gathered SC
  // rows name (appended below). is_c / cgid give each point's C marker and
  // global coarse id.
  LocalCoarseIds ids = local_coarse_ids(comm, A, cf, cn, opt.persistent);
  std::vector<signed char>& is_c = ids.is_c;
  std::vector<Long>& cgid = ids.cgid;

  // Local diagonal values (needed by the sender-side filter and by b_ik).
  std::vector<double> adiag(n, 0.0);
  parallel_for(0, n, [&](Int i) {
    for (Int k = A.diag.rowptr[i]; k < A.diag.rowptr[i + 1]; ++k)
      if (A.diag.colidx[k] == i) adiag[i] = A.diag.values[k];
  });

  // --- Remote data: rows of strong F boundary points, requested in
  // A.colmap order; ext_row[j] is colmap slot j's gathered row (or -1;
  // 0 marks a wanted slot until the second loop numbers it). ---
  std::vector<Int> ext_row(m, -1);
  std::vector<Long> needF;
  for (Int i = 0; i < n; ++i) {
    if (cf[i] > 0) continue;
    for (Int k = S.offd.rowptr[i]; k < S.offd.rowptr[i + 1]; ++k)
      if (!is_c[n + S.offd.colidx[k]]) ext_row[S.offd.colidx[k]] = 0;
  }
  for (Int j = 0; j < m; ++j) {
    if (ext_row[j] < 0) continue;
    ext_row[j] = Int(needF.size());
    needF.push_back(A.colmap[j]);
  }

  // Coarse-adjacency rows ("SC"): serve Ĉ construction, locally and for
  // remote strong F neighbors.
  const DistMatrix SC = strong_coarse_rows(S, ids);
  GatheredRows sc_rows = gather_rows(comm, SC, needF, nullptr, opt.persistent);

  // The §4.3 sender-side filter for A rows: keep the diagonal, keep
  // opposite-sign C columns, keep opposite-sign F columns the sender
  // strongly influences (candidates for the requester's own point i).
  // Membership in ST row k is a stamp over the local index space.
  RowFilter filter = nullptr;
  Marker st_mark(n + m);
  Int st_row = -1;
  std::vector<Int> st_local(ST.colmap.size(), -1);  // ST.colmap -> local
  if (opt.filtered_exchange) {
    for (std::size_t c = 0; c < ST.colmap.size(); ++c)
      if (Int j = sorted_find(A.colmap, ST.colmap[c]); j >= 0)
        st_local[c] = n + j;
    filter = [&](Int k, Int l, Long, double v) -> bool {
      if (l == k) return true;  // diagonal (carries the sign)
      if (sign_of(v) == sign_of(adiag[k])) return false;  // ā_kl would be 0
      if (is_c[l]) return true;
      // F point: keep only if k strongly influences it (it may be the
      // requesting row i).
      if (st_row != k) {
        st_mark.next();
        for (Int kk = ST.diag.rowptr[k]; kk < ST.diag.rowptr[k + 1]; ++kk)
          st_mark.set(ST.diag.colidx[kk]);
        for (Int kk = ST.offd.rowptr[k]; kk < ST.offd.rowptr[k + 1]; ++kk)
          if (Int s = st_local[ST.offd.colidx[kk]]; s >= 0) st_mark.set(s);
        st_row = k;
      }
      return st_mark.has(l);
    };
  }
  GatheredRows a_rows = gather_rows(comm, A, needF, filter, opt.persistent);
  if (info) info->gathered_bytes += a_rows.bytes_received +
                                    sc_rows.bytes_received;

  // Renumber the gathered SC columns once: the new distance-two C points
  // extend the local index space at n + m.
  RenumberInput rin;
  rin.gcol = &sc_rows.gcol;
  rin.own_first = r0;
  rin.own_last = A.last_row();
  rin.existing = &A.colmap;
  rin.nloc = n;
  const RenumberResult far = renumber_columns_parallel(rin, wc);
  const Int nloc = n + m + Int(far.new_entries.size());
  is_c.resize(nloc, 1);
  cgid.resize(nloc);
  for (std::size_t t = 0; t < far.local.size(); ++t)
    if (far.local[t] >= n + m) cgid[far.local[t]] = Long(sc_rows.values[t]);
  const auto local_of = [&](Long g) -> Int {
    if (g >= r0 && g < r0 + n) return Int(g - r0);
    if (Int j = sorted_find(A.colmap, g); j >= 0) return n + j;
    if (Int j = sorted_find(far.new_entries, g); j >= 0) return n + m + j;
    return -1;  // in no Ĉ of this rank
  };

  // --- §3.1.2 coarse segments of the distributing rows: local F row k is
  // row k, gathered row e is row n + e. A segment keeps the row's
  // opposite-sign C entries (ā != 0) in their original row order, each with
  // its offset in the row, so b_ik can add ā_ki at its original position.
  const Int ne = Int(needF.size());
  std::vector<double> kdiag(adiag);
  kdiag.resize(n + ne, 0.0);
  std::vector<Int> seg_ptr(n + ne + 1, 0);
  std::vector<Int> seg_loc, seg_off;
  std::vector<double> seg_val;
  const auto seg_push = [&](Int l, double v, Int off) {
    seg_loc.push_back(l);
    seg_val.push_back(v);
    seg_off.push_back(off);
  };
  for (Int k = 0; k < n; ++k) {
    if (cf[k] <= 0) {
      Int off = 0;
      for_each_local(A, k, [&](Int l, double v) {
        if (is_c[l] && abar(kdiag[k], v) != 0.0) seg_push(l, v, off);
        ++off;
      });
    }
    seg_ptr[k + 1] = Int(seg_loc.size());
  }
  for (Int e = 0; e < ne; ++e) {
    const Int lo = a_rows.rowptr[e], hi = a_rows.rowptr[e + 1];
    for (Int t = lo; t < hi; ++t)
      if (a_rows.gcol[t] == needF[e]) kdiag[n + e] = a_rows.values[t];
    for (Int t = lo; t < hi; ++t) {
      if (a_rows.gcol[t] == needF[e]) continue;
      const Int l = local_of(a_rows.gcol[t]);
      if (l >= 0 && is_c[l] && abar(kdiag[n + e], a_rows.values[t]) != 0.0)
        seg_push(l, a_rows.values[t], t - lo);
    }
    seg_ptr[n + e + 1] = Int(seg_loc.size());
  }
  // ā_ki of distributing row r and its offset in that row; a zero ā_ki
  // adds no term.
  const auto abar_back = [&](Int r, Int i) -> std::pair<double, Int> {
    if (r < n) {
      const Int lo = A.diag.rowptr[r], hi = A.diag.rowptr[r + 1];
      const Int* cols = A.diag.colidx.data();
      const Int k = Int(std::lower_bound(cols + lo, cols + hi, i) - cols);
      if (k < hi && cols[k] == i)
        return {abar(kdiag[r], A.diag.values[k]), k - lo};
      return {0.0, 0};
    }
    const Int e = r - n;
    for (Int t = a_rows.rowptr[e]; t < a_rows.rowptr[e + 1]; ++t)
      if (a_rows.gcol[t] == r0 + i)
        return {abar(kdiag[r], a_rows.values[t]), t - a_rows.rowptr[e]};
    return {0.0, 0};
  };

  // --- Row construction. ---
  WorkCounters cnt;
  Marker strong(n + m);
  RowAccumulator row(nloc);
  std::vector<std::pair<Int, double>> dist_rows;  // (row, a_ik), row order
  GlobalRows out;
  for (Int i = 0; i < n; ++i) {
    if (cf[i] > 0) {
      out.add(cgid[i], 1.0);
      out.end_row();
      continue;
    }
    strong.next();
    for (Int k = S.diag.rowptr[i]; k < S.diag.rowptr[i + 1]; ++k)
      strong.set(S.diag.colidx[k]);
    for (Int k = S.offd.rowptr[i]; k < S.offd.rowptr[i + 1]; ++k)
      strong.set(n + S.offd.colidx[k]);
    row.clear();
    dist_rows.clear();
    const auto chat_insert = [&](Int l) {
      row.insert(l);
      ++cnt.branches;
    };

    // Seed Ĉ_i from strong neighbors and their strong C sets, in row order.
    for_each_local(A, i, [&](Int l, double v) {
      if (!strong.has(l)) return;
      if (is_c[l]) {
        chat_insert(l);
      } else if (l < n) {
        dist_rows.push_back({l, v});
        for (Int ks = SC.diag.rowptr[l]; ks < SC.diag.rowptr[l + 1]; ++ks)
          chat_insert(SC.diag.colidx[ks]);
        for (Int ks = SC.offd.rowptr[l]; ks < SC.offd.rowptr[l + 1]; ++ks)
          chat_insert(n + SC.offd.colidx[ks]);
        cnt.bytes_read +=
            (SC.diag.row_nnz(l) + SC.offd.row_nnz(l)) * sizeof(Int);
      } else {
        const Int e = ext_row[l - n];
        dist_rows.push_back({n + e, v});
        for (Int ks = sc_rows.rowptr[e]; ks < sc_rows.rowptr[e + 1]; ++ks)
          chat_insert(far.local[ks]);
        cnt.bytes_read +=
            (sc_rows.rowptr[e + 1] - sc_rows.rowptr[e]) * sizeof(Int);
      }
    });
    if (row.cols.empty()) {  // no interpolatory set
      out.end_row();
      continue;
    }

    // Numerator seeds + weak lumping into the diagonal.
    double atilde = 0.0;
    for_each_local(A, i, [&](Int l, double v) {
      if (l == i)
        atilde += v;
      else if (const Int s = row.slot(l); s >= 0)
        row.acc[s] += v;
      else if (!(strong.has(l) && !is_c[l]))
        atilde += v;
    });

    // Distance-two distribution through strong F neighbors: b_ik and the
    // scatter walk only row k's coarse segment, plus ā_ki.
    for (const auto& [r, a_ik] : dist_rows) {
      const auto [a_ki, off_ki] = abar_back(r, i);
      double b_ik = 0.0;
      bool ki_pending = a_ki != 0.0;
      for (Int t = seg_ptr[r]; t < seg_ptr[r + 1]; ++t) {
        if (ki_pending && seg_off[t] > off_ki) {
          b_ik += a_ki;
          ki_pending = false;
        }
        if (row.slot(seg_loc[t]) >= 0) b_ik += seg_val[t];
      }
      if (ki_pending) b_ik += a_ki;
      cnt.branches += seg_ptr[r + 1] - seg_ptr[r];
      cnt.bytes_read +=
          (seg_ptr[r + 1] - seg_ptr[r]) * (2 * sizeof(Int) + sizeof(double));
      if (b_ik == 0.0) {
        atilde += a_ik;
        continue;
      }
      const double scale = a_ik / b_ik;
      cnt.flops += 1;
      if (a_ki != 0.0) {
        atilde += scale * a_ki;
        cnt.flops += 2;
      }
      for (Int t = seg_ptr[r]; t < seg_ptr[r + 1]; ++t) {
        if (const Int s = row.slot(seg_loc[t]); s >= 0) {
          row.acc[s] += scale * seg_val[t];
          cnt.flops += 2;
        }
      }
    }

    // Finalize and (fused) truncate.
    const std::size_t start = out.cols.size();
    if (atilde != 0.0) {
      const double inv = -1.0 / atilde;
      for (std::size_t s = 0; s < row.cols.size(); ++s) {
        if (row.acc[s] == 0.0) continue;
        out.add(cgid[row.cols[s]], inv * row.acc[s]);
        cnt.flops += 1;
      }
    }
    end_row_truncated(out, start,
                      opt.fused_truncation ? &opt.truncation : nullptr);
  }
  cnt.bytes_written += out.cols.size() * (sizeof(Long) + sizeof(double));
  if (wc) *wc += cnt;

  DistMatrix P = dist_matrix_from_rows(comm, A.row_starts, cn.starts, out);
  // Baseline: whole-operator truncation as a second pass over P.
  if (!opt.fused_truncation)
    P = truncate_dist_interp(comm, P, cf, opt.truncation);
  return P;
}

DistMatrix dist_multipass_interp(simmpi::Comm& comm, const DistMatrix& A,
                                 const DistMatrix& S, const CFMarker& cf,
                                 const CoarseNumbering& cn,
                                 const DistInterpOptions& opt,
                                 WorkCounters* wc, DistInterpInfo* info) {
  TRACE_SPAN("interp.multipass_dist", "kernel", "rows",
             std::int64_t(A.local_rows()));
  const Int n = A.local_rows();
  const Int m = Int(A.colmap.size());
  const Long r0 = A.first_row();
  const Long c0 = cn.starts[comm.rank()], c1 = cn.starts[comm.rank() + 1];
  HaloExchange halo(comm, A.colmap, A.row_starts, opt.persistent);
  std::vector<signed char> cf_ext;
  halo.exchange(cf, cf_ext);
  std::vector<Long> cid_ext;
  halo.exchange(cn.local_to_global, cid_ext);
  const auto is_c = [&](Int l) {
    return l < n ? cf[l] > 0 : cf_ext[l - n] > 0;
  };

  // Rows of P as spans of one append-only pool (global coarse columns): a
  // row is final once its point is done.
  std::vector<Int> row_at(n, 0), row_len(n, 0);
  std::vector<Long> pcols;
  std::vector<double> pvals;
  const auto close_row = [&](Int i, Int at) {
    row_at[i] = at;
    row_len[i] = Int(pcols.size()) - at;
  };
  std::vector<signed char> done(n, 0);
  Marker strong(n + m);
  const auto mark_strong = [&](Int i) {
    strong.next();
    for (Int k = S.diag.rowptr[i]; k < S.diag.rowptr[i + 1]; ++k)
      strong.set(S.diag.colidx[k]);
    for (Int k = S.offd.rowptr[i]; k < S.offd.rowptr[i + 1]; ++k)
      strong.set(n + S.offd.colidx[k]);
  };

  // Pass 1: C identity + direct interpolation where a strong C neighbor
  // exists (needs only local rows + halo markers).
  for (Int i = 0; i < n; ++i) {
    const Int at = Int(pcols.size());
    if (cf[i] > 0) {
      pcols.push_back(cn.local_to_global[i]);
      pvals.push_back(1.0);
      close_row(i, at);
      done[i] = 1;
      continue;
    }
    mark_strong(i);
    double diag = 0.0, sum_all = 0.0, sum_c = 0.0;
    for_each_local(A, i, [&](Int l, double v) {
      if (l == i)
        diag = v;
      else
        sum_all += v;
      if (strong.has(l) && is_c(l)) sum_c += v;
    });
    if (sum_c == 0.0 || diag == 0.0) continue;
    // Direct interpolation pushing the full off-diagonal row mass onto the
    // strong C set (same formula as the sequential multipass pass 1).
    const double alpha = sum_all / sum_c;
    for_each_local(A, i, [&](Int l, double v) {
      if (!(strong.has(l) && is_c(l))) return;
      pcols.push_back(l < n ? cn.local_to_global[l] : cid_ext[l - n]);
      pvals.push_back(-alpha * v / diag);
    });
    close_row(i, at);
    done[i] = 1;
  }

  // Later passes: substitute done strong neighbors' rows; remote rows are
  // gathered per pass.
  for (int pass = 2; pass <= 10; ++pass) {
    Long undone = 0;
    for (Int i = 0; i < n; ++i)
      if (!done[i]) ++undone;
    if (comm.allreduce_sum(undone) == 0) break;

    std::vector<signed char> done_ext;
    halo.exchange(done, done_ext);

    // Which remote rows do we need? Done strong neighbors of undone points,
    // requested in A.colmap order.
    const int nranks = comm.size();
    std::vector<std::vector<Long>> req(nranks);
    std::vector<std::vector<Int>> req_slot(nranks);  // A.colmap slot
    {
      std::vector<char> wanted(m, 0);
      for (Int i = 0; i < n; ++i) {
        if (done[i]) continue;
        for (Int k = S.offd.rowptr[i]; k < S.offd.rowptr[i + 1]; ++k)
          if (done_ext[S.offd.colidx[k]]) wanted[S.offd.colidx[k]] = 1;
      }
      for (Int j = 0; j < m; ++j) {
        if (!wanted[j]) continue;
        auto it = std::upper_bound(A.row_starts.begin(), A.row_starts.end(),
                                   A.colmap[j]);
        const int owner = int(it - A.row_starts.begin()) - 1;
        req[owner].push_back(A.colmap[j]);
        req_slot[owner].push_back(j);
      }
    }
    // Mini row gather from the dynamic structure (a DistMatrix would be
    // rebuilt every pass otherwise).
    for (int r = 0; r < nranks; ++r)
      if (r != comm.rank()) comm.send_vec(r, kTagMp + pass, req[r]);
    for (int r = 0; r < nranks; ++r) {
      if (r == comm.rank()) continue;
      std::vector<Long> theirs = comm.recv_vec<Long>(r, kTagMp + pass);
      std::vector<Int> lens;
      std::vector<Long> cols;
      std::vector<double> vals;
      for (Long g : theirs) {
        const Int i = Int(g - r0);
        lens.push_back(row_len[i]);
        cols.insert(cols.end(), pcols.begin() + row_at[i],
                    pcols.begin() + row_at[i] + row_len[i]);
        vals.insert(vals.end(), pvals.begin() + row_at[i],
                    pvals.begin() + row_at[i] + row_len[i]);
      }
      if (!theirs.empty()) {
        comm.send_vec(r, kTagMp + 20 + pass, lens, opt.persistent);
        comm.send_vec(r, kTagMp + 40 + pass, cols, opt.persistent);
        comm.send_vec(r, kTagMp + 60 + pass, vals, opt.persistent);
      }
    }
    // Received rows, indexed by their A.colmap slot.
    std::vector<Int> got_at(m, -1), got_len(m, 0);
    std::vector<Long> gcols;
    std::vector<double> gvals;
    for (int r = 0; r < nranks; ++r) {
      if (r == comm.rank() || req[r].empty()) continue;
      std::vector<Int> lens = comm.recv_vec<Int>(r, kTagMp + 20 + pass);
      std::vector<Long> cols = comm.recv_vec<Long>(r, kTagMp + 40 + pass);
      std::vector<double> vals = comm.recv_vec<double>(r, kTagMp + 60 + pass);
      if (info)
        info->gathered_bytes += cols.size() * sizeof(Long) +
                                vals.size() * sizeof(double);
      Int pos = Int(gcols.size());
      for (std::size_t k = 0; k < lens.size(); ++k) {
        got_at[req_slot[r][k]] = pos;
        got_len[req_slot[r][k]] = lens[k];
        pos += lens[k];
      }
      gcols.insert(gcols.end(), cols.begin(), cols.end());
      gvals.insert(gvals.end(), vals.begin(), vals.end());
    }

    // Coarse columns in a local index space: owned [0, c1 - c0), then the
    // other coarse ids the pool and the received rows name.
    const Int ncl = Int(c1 - c0);
    std::vector<Long> others;
    for (const std::vector<Long>* v : {&pcols, &gcols})
      for (Long g : *v)
        if (g < c0 || g >= c1) others.push_back(g);
    others = parallel_sort_unique(std::move(others));
    const auto coarse_local = [&](Long g) {
      return g >= c0 && g < c1 ? Int(g - c0) : ncl + sorted_find(others, g);
    };
    RowAccumulator row(ncl + others.size());

    Long progressed = 0;
    std::vector<signed char> newly(n, 0);
    for (Int i = 0; i < n; ++i) {
      if (done[i]) continue;
      mark_strong(i);
      row.clear();
      double diag = 0.0, lump = 0.0;
      bool any = false;
      const auto substitute = [&](double a_ij, const Long* cols,
                                  const double* w, Int len) {
        any = true;
        for (Int e = 0; e < len; ++e) {
          const Int s = row.insert(coarse_local(cols[e]));
          row.acc[s] += a_ij * w[e];
        }
      };
      for_each_local(A, i, [&](Int l, double v) {
        if (l == i) {
          diag = v;
        } else if (l < n) {
          if (strong.has(l) && done[l])
            substitute(v, pcols.data() + row_at[l], pvals.data() + row_at[l],
                       row_len[l]);
          else
            lump += v;
        } else {
          const Int j = l - n;
          if (strong.has(l) && done_ext[j] && got_at[j] >= 0)
            substitute(v, gcols.data() + got_at[j], gvals.data() + got_at[j],
                       got_len[j]);
          else
            lump += v;
        }
      });
      const double dd = diag + lump;
      if (!any || dd == 0.0) continue;
      const double inv = -1.0 / dd;
      const Int at = Int(pcols.size());
      for (std::size_t s = 0; s < row.cols.size(); ++s) {
        if (row.acc[s] == 0.0) continue;
        const Int c = row.cols[s];
        pcols.push_back(c < ncl ? c0 + c : others[c - ncl]);
        pvals.push_back(inv * row.acc[s]);
      }
      close_row(i, at);
      newly[i] = 1;
      ++progressed;
    }
    for (Int i = 0; i < n; ++i)
      if (newly[i]) done[i] = 1;
    if (comm.allreduce_sum(progressed) == 0) break;
  }

  // Fused truncation per F row.
  GlobalRows rows;
  for (Int i = 0; i < n; ++i) {
    const std::size_t start = rows.cols.size();
    for (Int k = row_at[i]; k < row_at[i] + row_len[i]; ++k)
      rows.add(pcols[k], pvals[k]);
    end_row_truncated(rows, start, cf[i] <= 0 ? &opt.truncation : nullptr);
  }
  return dist_matrix_from_rows(comm, A.row_starts, cn.starts, rows);
}

}  // namespace hpamg

#include "dist/dist_interp.hpp"

#include <algorithm>
#include <cmath>

#include "dist/halo.hpp"
#include "support/hash.hpp"
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

/// Merge-walk strongness: builds the set of strong in-row offsets of the
/// (sorted) diag/offd rows of A against the strength rows of S.
struct StrongWalk {
  std::vector<Int> diag;  ///< offsets into A.diag row
  std::vector<Int> offd;  ///< offsets into A.offd row
  void compute(const DistMatrix& A, const DistMatrix& S, Int i) {
    diag.clear();
    offd.clear();
    Int ks = S.diag.rowptr[i];
    const Int ks_end = S.diag.rowptr[i + 1];
    for (Int k = A.diag.rowptr[i]; k < A.diag.rowptr[i + 1]; ++k) {
      const Int j = A.diag.colidx[k];
      while (ks < ks_end && S.diag.colidx[ks] < j) ++ks;
      if (ks < ks_end && S.diag.colidx[ks] == j) diag.push_back(k);
    }
    Int ko = S.offd.rowptr[i];
    const Int ko_end = S.offd.rowptr[i + 1];
    for (Int k = A.offd.rowptr[i]; k < A.offd.rowptr[i + 1]; ++k) {
      const Int j = A.offd.colidx[k];
      while (ko < ko_end && S.offd.colidx[ko] < j) ++ko;
      if (ko < ko_end && S.offd.colidx[ko] == j) offd.push_back(k);
    }
  }
};

}  // namespace

DistMatrix assemble_dist_from_rows(
    simmpi::Comm& comm, const std::vector<Long>& row_starts,
    const std::vector<Long>& col_starts,
    const std::vector<std::vector<std::pair<Long, double>>>& rows) {
  DistMatrix P;
  P.global_rows = row_starts.back();
  P.global_cols = col_starts.back();
  P.row_starts = row_starts;
  P.col_starts = col_starts;
  P.my_rank = comm.rank();
  const Int n = Int(rows.size());
  const Long c0 = P.first_col(), c1 = P.last_col();
  P.diag = CSRMatrix(n, P.local_cols());
  P.offd = CSRMatrix(n, 0);
  std::vector<Long> offd_cols;
  for (Int i = 0; i < n; ++i) {
    for (auto& [g, v] : rows[i]) {
      if (g >= c0 && g < c1)
        ++P.diag.rowptr[i + 1];
      else {
        ++P.offd.rowptr[i + 1];
        offd_cols.push_back(g);
      }
    }
  }
  exclusive_scan(P.diag.rowptr);
  exclusive_scan(P.offd.rowptr);
  P.colmap = parallel_sort_unique(std::move(offd_cols));
  P.offd.ncols = Int(P.colmap.size());
  P.diag.colidx.resize(P.diag.rowptr[n]);
  P.diag.values.resize(P.diag.rowptr[n]);
  P.offd.colidx.resize(P.offd.rowptr[n]);
  P.offd.values.resize(P.offd.rowptr[n]);
  parallel_for(0, n, [&](Int i) {
    Int pd = P.diag.rowptr[i], po = P.offd.rowptr[i];
    for (auto& [g, v] : rows[i]) {
      if (g >= c0 && g < c1) {
        P.diag.colidx[pd] = Int(g - c0);
        P.diag.values[pd] = v;
        ++pd;
      } else {
        P.offd.colidx[po] = sorted_find(P.colmap, g);
        P.offd.values[po] = v;
        ++po;
      }
    }
  });
  P.diag.sort_rows();
  P.offd.sort_rows();
  return P;
}

DistMatrix dist_extpi_interp(simmpi::Comm& comm, const DistMatrix& A,
                             const DistMatrix& S, const DistMatrix& ST,
                             const CFMarker& cf, const CoarseNumbering& cn,
                             const DistInterpOptions& opt, WorkCounters* wc,
                             DistInterpInfo* info) {
  TRACE_SPAN("interp.extpi_dist", "kernel", "rows",
             std::int64_t(A.local_rows()));
  const Int n = A.local_rows();
  const Long r0 = A.first_row();

  // Halo data on A's colmap: CF markers and coarse ids of boundary points.
  HaloExchange halo(comm, A.colmap, A.row_starts, opt.persistent);
  std::vector<signed char> cf_ext;
  halo.exchange(cf, cf_ext);
  std::vector<Long> cid_ext;
  halo.exchange(cn.local_to_global, cid_ext);

  // Local diagonal values (needed by the sender-side filter and by b_ik).
  std::vector<double> adiag(n, 0.0);
  parallel_for(0, n, [&](Int i) {
    for (Int k = A.diag.rowptr[i]; k < A.diag.rowptr[i + 1]; ++k)
      if (A.diag.colidx[k] == i) adiag[i] = A.diag.values[k];
  });

  // --- Remote data: rows of strong F boundary points. ---
  std::vector<Long> needF;
  {
    StrongWalk sw;
    std::vector<char> wanted(A.colmap.size(), 0);
    for (Int i = 0; i < n; ++i) {
      if (cf[i] > 0) continue;
      sw.compute(A, S, i);
      for (Int k : sw.offd)
        if (cf_ext[A.offd.colidx[k]] <= 0) wanted[A.offd.colidx[k]] = 1;
    }
    for (std::size_t j = 0; j < wanted.size(); ++j)
      if (wanted[j]) needF.push_back(A.colmap[j]);
  }

  // Coarse-adjacency rows ("SC"): strength entries restricted to C points,
  // value = the C point's global coarse id. Serves Ĉ construction for
  // remote strong F neighbors.
  DistMatrix SC = S;
  {
    std::vector<std::vector<std::pair<Long, double>>> rows(n);
    for (Int i = 0; i < n; ++i) {
      for (Int k = S.diag.rowptr[i]; k < S.diag.rowptr[i + 1]; ++k) {
        const Int c = S.diag.colidx[k];
        if (cf[c] > 0)
          rows[i].push_back({r0 + c, double(cn.local_to_global[c])});
      }
      for (Int k = S.offd.rowptr[i]; k < S.offd.rowptr[i + 1]; ++k) {
        const Int j = S.offd.colidx[k];
        if (cf_ext[j] > 0)
          rows[i].push_back({S.colmap[j], double(cid_ext[j])});
      }
    }
    SC = assemble_dist_from_rows(comm, A.row_starts, A.row_starts, rows);
  }
  GatheredRows sc_rows = gather_rows(comm, SC, needF, nullptr, opt.persistent);

  // The §4.3 sender-side filter for A rows: keep the diagonal, keep
  // opposite-sign C columns, keep opposite-sign F columns the sender
  // strongly influences (candidates for the requester's own point i).
  RowFilter filter = nullptr;
  if (opt.filtered_exchange) {
    // Per-row cache of the sender's ST-row membership set.
    auto st_set = std::make_shared<HashSet<Long>>(16);
    auto cached_row = std::make_shared<Int>(-1);
    filter = [&, st_set, cached_row](Int k, Long gcol, double v) -> bool {
      if (gcol == r0 + k) return true;  // diagonal (carries the sign)
      if (sign_of(v) == sign_of(adiag[k])) return false;  // ā_kl would be 0
      // C point?
      if (gcol >= r0 && gcol < A.last_row()) {
        if (cf[Int(gcol - r0)] > 0) return true;
      } else if (Int j = sorted_find(A.colmap, gcol); j >= 0) {
        if (cf_ext[j] > 0) return true;
      }
      // F point: keep only if k strongly influences it (it may be the
      // requesting row i).
      if (*cached_row != k) {
        *st_set = HashSet<Long>(16);
        for (Int kk = ST.diag.rowptr[k]; kk < ST.diag.rowptr[k + 1]; ++kk)
          st_set->insert(ST.first_col() + ST.diag.colidx[kk]);
        for (Int kk = ST.offd.rowptr[k]; kk < ST.offd.rowptr[k + 1]; ++kk)
          st_set->insert(ST.colmap[ST.offd.colidx[kk]]);
        *cached_row = k;
      }
      return st_set->contains(gcol);
    };
  }
  GatheredRows a_rows = gather_rows(comm, A, needF, filter, opt.persistent);
  if (info) info->gathered_bytes += a_rows.bytes_received +
                                    sc_rows.bytes_received;

  // --- Row construction. ---
  std::vector<std::vector<std::pair<Long, double>>> rows(n);
  const auto ext_row_of = [&](Long g) { return sorted_find(needF, g); };

  // Memory traffic as serial extpi_interp counts it: the strong-F rows
  // walked for Ĉ_i, two passes over each distributing row, the output.
  const auto count_read = [wc](Long entries, std::size_t entry_bytes) {
    if (wc) wc->bytes_read += std::uint64_t(entries) * entry_bytes;
  };
  StrongWalk sw;
  HashMap<Long> chat(64);           // fine gid -> slot
  std::vector<Long> chat_fine;      // slot -> fine gid
  std::vector<Long> chat_coarse;    // slot -> coarse gid
  std::vector<double> acc;

  for (Int i = 0; i < n; ++i) {
    if (cf[i] > 0) {
      rows[i].push_back({cn.local_to_global[i], 1.0});
      continue;
    }
    sw.compute(A, S, i);
    chat = HashMap<Long>(64);
    chat_fine.clear();
    chat_coarse.clear();
    acc.clear();
    auto chat_insert = [&](Long fine_gid, Long coarse_gid) {
      const Int slot = Int(chat_fine.size());
      if (chat.insert_or_get(fine_gid, slot) == slot &&
          Int(chat_fine.size()) == slot) {
        chat_fine.push_back(fine_gid);
        chat_coarse.push_back(coarse_gid);
        acc.push_back(0.0);
      }
      if (wc) ++wc->hash_probes;
    };

    // Seed Ĉ_i from strong neighbors and their strong C sets.
    for (Int k : sw.diag) {
      const Int j = A.diag.colidx[k];
      if (cf[j] > 0) {
        chat_insert(r0 + j, cn.local_to_global[j]);
      } else {
        for (Int ks = S.diag.rowptr[j]; ks < S.diag.rowptr[j + 1]; ++ks) {
          const Int j2 = S.diag.colidx[ks];
          if (j2 != i && cf[j2] > 0)
            chat_insert(r0 + j2, cn.local_to_global[j2]);
        }
        for (Int ks = S.offd.rowptr[j]; ks < S.offd.rowptr[j + 1]; ++ks) {
          const Int j2 = S.offd.colidx[ks];
          if (cf_ext[j2] > 0) chat_insert(S.colmap[j2], cid_ext[j2]);
        }
        count_read(S.diag.row_nnz(j) + S.offd.row_nnz(j), sizeof(Int));
      }
    }
    for (Int k : sw.offd) {
      const Int j = A.offd.colidx[k];
      if (cf_ext[j] > 0) {
        chat_insert(A.colmap[j], cid_ext[j]);
      } else {
        const Int e = ext_row_of(A.colmap[j]);
        for (Int ks = sc_rows.rowptr[e]; ks < sc_rows.rowptr[e + 1]; ++ks) {
          if (sc_rows.gcol[ks] != r0 + i)
            chat_insert(sc_rows.gcol[ks], Long(sc_rows.values[ks]));
        }
        count_read(sc_rows.rowptr[e + 1] - sc_rows.rowptr[e],
                   sizeof(Long) + sizeof(double));
      }
    }
    if (chat_fine.empty()) continue;  // no interpolatory set

    // Numerator seeds + weak lumping into the diagonal.
    double atilde = 0.0;
    {
      std::size_t sp = 0;
      for (Int k = A.diag.rowptr[i]; k < A.diag.rowptr[i + 1]; ++k) {
        const Int j = A.diag.colidx[k];
        const double v = A.diag.values[k];
        if (j == i) {
          atilde += v;
          continue;
        }
        while (sp < sw.diag.size() && sw.diag[sp] < k) ++sp;
        const bool strong = sp < sw.diag.size() && sw.diag[sp] == k;
        const Int slot = chat.get(r0 + j, -1);
        if (slot >= 0)
          acc[slot] += v;
        else if (!(strong && cf[j] <= 0))
          atilde += v;
      }
      std::size_t so = 0;
      for (Int k = A.offd.rowptr[i]; k < A.offd.rowptr[i + 1]; ++k) {
        const Int j = A.offd.colidx[k];
        const double v = A.offd.values[k];
        while (so < sw.offd.size() && sw.offd[so] < k) ++so;
        const bool strong = so < sw.offd.size() && sw.offd[so] == k;
        const Int slot = chat.get(A.colmap[j], -1);
        if (slot >= 0)
          acc[slot] += v;
        else if (!(strong && cf_ext[j] <= 0))
          atilde += v;
      }
    }

    // Distance-two distribution through strong F neighbors.
    auto distribute = [&](double a_ik, double a_kk, auto&& for_each_entry) {
      // Pass 1: b_ik over Ĉ_i ∪ {i}.
      double b_ik = 0.0;
      for_each_entry([&](Long l, double v) {
        const double ab = abar(a_kk, v);
        if (ab == 0.0) return;
        if (l == r0 + i || chat.get(l, -1) >= 0) b_ik += ab;
      });
      if (b_ik == 0.0) {
        atilde += a_ik;
        return;
      }
      const double scale = a_ik / b_ik;
      for_each_entry([&](Long l, double v) {
        const double ab = abar(a_kk, v);
        if (ab == 0.0) return;
        if (l == r0 + i) {
          atilde += scale * ab;
        } else if (Int slot = chat.get(l, -1); slot >= 0) {
          acc[slot] += scale * ab;
        }
        if (wc) wc->flops += 2;
      });
    };
    for (Int k : sw.diag) {
      const Int j = A.diag.colidx[k];
      if (cf[j] > 0) continue;
      distribute(A.diag.values[k], adiag[j], [&](auto&& fn) {
        for (Int kk = A.diag.rowptr[j]; kk < A.diag.rowptr[j + 1]; ++kk)
          fn(r0 + A.diag.colidx[kk], A.diag.values[kk]);
        for (Int kk = A.offd.rowptr[j]; kk < A.offd.rowptr[j + 1]; ++kk)
          fn(A.colmap[A.offd.colidx[kk]], A.offd.values[kk]);
      });
      count_read(2 * (A.diag.row_nnz(j) + A.offd.row_nnz(j)),
                 sizeof(Int) + sizeof(double));
    }
    for (Int k : sw.offd) {
      const Int j = A.offd.colidx[k];
      if (cf_ext[j] > 0) continue;
      const Long gk = A.colmap[j];
      const Int e = ext_row_of(gk);
      double a_kk = 0.0;
      for (Int kk = a_rows.rowptr[e]; kk < a_rows.rowptr[e + 1]; ++kk)
        if (a_rows.gcol[kk] == gk) a_kk = a_rows.values[kk];
      distribute(A.offd.values[k], a_kk, [&](auto&& fn) {
        for (Int kk = a_rows.rowptr[e]; kk < a_rows.rowptr[e + 1]; ++kk) {
          if (a_rows.gcol[kk] == gk) continue;  // skip the diagonal
          fn(a_rows.gcol[kk], a_rows.values[kk]);
        }
      });
      count_read(2 * (a_rows.rowptr[e + 1] - a_rows.rowptr[e]),
                 sizeof(Long) + sizeof(double));
    }

    // Finalize and (fused) truncate.
    if (atilde == 0.0) continue;
    const double inv = -1.0 / atilde;
    std::vector<Long> rc;
    std::vector<double> rv;
    for (std::size_t s = 0; s < acc.size(); ++s) {
      if (acc[s] == 0.0) continue;
      rc.push_back(chat_coarse[s]);
      rv.push_back(inv * acc[s]);
    }
    Int len = Int(rc.size());
    if (opt.fused_truncation)
      len = truncate_row(rc.data(), rv.data(), len, opt.truncation);
    for (Int k = 0; k < len; ++k) rows[i].push_back({rc[k], rv[k]});
  }
  if (wc)
    for (const auto& row : rows)
      wc->bytes_written += row.size() * (sizeof(Int) + sizeof(double));

  DistMatrix P = assemble_dist_from_rows(comm, A.row_starts, cn.starts, rows);
  if (!opt.fused_truncation) {
    // Baseline: whole-operator truncation as a second pass over P.
    std::vector<std::vector<std::pair<Long, double>>> trows(n);
    std::vector<Long> rc;
    std::vector<double> rv;
    for (Int i = 0; i < n; ++i) {
      if (cf[i] > 0) {
        trows[i] = {{cn.local_to_global[i], 1.0}};
        continue;
      }
      rc.clear();
      rv.clear();
      for (Int k = P.diag.rowptr[i]; k < P.diag.rowptr[i + 1]; ++k) {
        rc.push_back(P.first_col() + P.diag.colidx[k]);
        rv.push_back(P.diag.values[k]);
      }
      for (Int k = P.offd.rowptr[i]; k < P.offd.rowptr[i + 1]; ++k) {
        rc.push_back(P.colmap[P.offd.colidx[k]]);
        rv.push_back(P.offd.values[k]);
      }
      const Int len = truncate_row(rc.data(), rv.data(), Int(rc.size()),
                                   opt.truncation);
      for (Int k = 0; k < len; ++k) trows[i].push_back({rc[k], rv[k]});
    }
    P = assemble_dist_from_rows(comm, A.row_starts, cn.starts, trows);
  }
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
  const Long r0 = A.first_row();
  HaloExchange halo(comm, A.colmap, A.row_starts, opt.persistent);
  std::vector<signed char> cf_ext;
  halo.exchange(cf, cf_ext);
  std::vector<Long> cid_ext;
  halo.exchange(cn.local_to_global, cid_ext);

  std::vector<std::vector<std::pair<Long, double>>> rows(n);
  std::vector<signed char> done(n, 0);

  // Pass 1: C identity + direct interpolation where a strong C neighbor
  // exists (needs only local rows + halo markers).
  StrongWalk sw;
  for (Int i = 0; i < n; ++i) {
    if (cf[i] > 0) {
      rows[i].push_back({cn.local_to_global[i], 1.0});
      done[i] = 1;
      continue;
    }
    sw.compute(A, S, i);
    double diag = 0.0, sum_all = 0.0, sum_c = 0.0;
    for (Int k = A.diag.rowptr[i]; k < A.diag.rowptr[i + 1]; ++k) {
      if (A.diag.colidx[k] == i)
        diag = A.diag.values[k];
      else
        sum_all += A.diag.values[k];
    }
    for (Int k = A.offd.rowptr[i]; k < A.offd.rowptr[i + 1]; ++k)
      sum_all += A.offd.values[k];
    for (Int k : sw.diag)
      if (cf[A.diag.colidx[k]] > 0) sum_c += A.diag.values[k];
    for (Int k : sw.offd)
      if (cf_ext[A.offd.colidx[k]] > 0) sum_c += A.offd.values[k];
    if (sum_c == 0.0 || diag == 0.0) continue;
    // Direct interpolation pushing the full off-diagonal row mass onto the
    // strong C set (same formula as the sequential multipass pass 1).
    const double alpha = sum_all / sum_c;
    for (Int k : sw.diag) {
      const Int j = A.diag.colidx[k];
      if (cf[j] > 0)
        rows[i].push_back(
            {cn.local_to_global[j], -alpha * A.diag.values[k] / diag});
    }
    for (Int k : sw.offd) {
      const Int j = A.offd.colidx[k];
      if (cf_ext[j] > 0)
        rows[i].push_back({cid_ext[j], -alpha * A.offd.values[k] / diag});
    }
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

    // Which remote rows do we need? Done strong neighbors of undone points.
    std::vector<Long> need;
    {
      std::vector<char> wanted(A.colmap.size(), 0);
      for (Int i = 0; i < n; ++i) {
        if (done[i] || cf[i] > 0) continue;
        sw.compute(A, S, i);
        for (Int k : sw.offd) {
          const Int j = A.offd.colidx[k];
          if (done_ext[j]) wanted[j] = 1;
        }
      }
      for (std::size_t j = 0; j < wanted.size(); ++j)
        if (wanted[j]) need.push_back(A.colmap[j]);
    }
    // Mini row gather from the dynamic structure (a DistMatrix would be
    // rebuilt every pass otherwise).
    const int nranks = comm.size();
    std::vector<std::vector<Long>> req(nranks);
    for (Long g : need) {
      auto it = std::upper_bound(A.row_starts.begin(), A.row_starts.end(), g);
      req[int(it - A.row_starts.begin()) - 1].push_back(g);
    }
    for (int r = 0; r < nranks; ++r)
      if (r != comm.rank()) comm.send_vec(r, kTagMp + pass, req[r]);
    std::vector<std::vector<Long>> got_cols(nranks);
    std::vector<std::vector<double>> got_vals(nranks);
    std::vector<std::vector<Int>> got_lens(nranks);
    for (int r = 0; r < nranks; ++r) {
      if (r == comm.rank()) continue;
      std::vector<Long> theirs = comm.recv_vec<Long>(r, kTagMp + pass);
      std::vector<Int> lens;
      std::vector<Long> cols;
      std::vector<double> vals;
      for (Long g : theirs) {
        const auto& row = rows[Int(g - r0)];
        lens.push_back(Int(row.size()));
        for (auto& [c, v] : row) {
          cols.push_back(c);
          vals.push_back(v);
        }
      }
      if (!theirs.empty()) {
        comm.send_vec(r, kTagMp + 20 + pass, lens, opt.persistent);
        comm.send_vec(r, kTagMp + 40 + pass, cols, opt.persistent);
        comm.send_vec(r, kTagMp + 60 + pass, vals, opt.persistent);
      }
    }
    // Assemble received rows keyed by global id.
    std::vector<Long> got_ids;
    std::vector<std::vector<std::pair<Long, double>>> got_rows;
    for (int r = 0; r < nranks; ++r) {
      if (r == comm.rank() || req[r].empty()) continue;
      std::vector<Int> lens = comm.recv_vec<Int>(r, kTagMp + 20 + pass);
      std::vector<Long> cols = comm.recv_vec<Long>(r, kTagMp + 40 + pass);
      std::vector<double> vals = comm.recv_vec<double>(r, kTagMp + 60 + pass);
      if (info)
        info->gathered_bytes += cols.size() * sizeof(Long) +
                                vals.size() * sizeof(double);
      Int pos = 0;
      for (std::size_t k = 0; k < lens.size(); ++k) {
        got_ids.push_back(req[r][k]);
        std::vector<std::pair<Long, double>> row;
        for (Int e = 0; e < lens[k]; ++e, ++pos)
          row.push_back({cols[pos], vals[pos]});
        got_rows.push_back(std::move(row));
      }
    }
    auto remote_row = [&](Long g) -> const std::vector<std::pair<Long, double>>* {
      for (std::size_t k = 0; k < got_ids.size(); ++k)
        if (got_ids[k] == g) return &got_rows[k];
      return nullptr;
    };

    Long progressed = 0;
    std::vector<signed char> newly(n, 0);
    for (Int i = 0; i < n; ++i) {
      if (done[i]) continue;
      sw.compute(A, S, i);
      HashMap<Long> pos(16);
      std::vector<Long> cols;
      std::vector<double> acc;
      double diag = 0.0, lump = 0.0;
      bool any = false;
      auto substitute = [&](double a_ij,
                            const std::vector<std::pair<Long, double>>& prow) {
        any = true;
        for (auto& [c, w] : prow) {
          const Int slot = Int(cols.size());
          const Int got = pos.insert_or_get(c, slot);
          if (got == slot && Int(cols.size()) == slot) {
            cols.push_back(c);
            acc.push_back(0.0);
          }
          acc[pos.get(c)] += a_ij * w;
        }
      };
      std::size_t sd = 0, so = 0;
      for (Int k = A.diag.rowptr[i]; k < A.diag.rowptr[i + 1]; ++k) {
        const Int j = A.diag.colidx[k];
        const double v = A.diag.values[k];
        if (j == i) {
          diag = v;
          continue;
        }
        while (sd < sw.diag.size() && sw.diag[sd] < k) ++sd;
        const bool strong = sd < sw.diag.size() && sw.diag[sd] == k;
        if (strong && done[j])
          substitute(v, rows[j]);
        else
          lump += v;
      }
      for (Int k = A.offd.rowptr[i]; k < A.offd.rowptr[i + 1]; ++k) {
        const Int j = A.offd.colidx[k];
        const double v = A.offd.values[k];
        while (so < sw.offd.size() && sw.offd[so] < k) ++so;
        const bool strong = so < sw.offd.size() && sw.offd[so] == k;
        const auto* prow =
            (strong && done_ext[j]) ? remote_row(A.colmap[j]) : nullptr;
        if (prow)
          substitute(v, *prow);
        else
          lump += v;
      }
      const double dd = diag + lump;
      if (!any || dd == 0.0) continue;
      const double inv = -1.0 / dd;
      for (std::size_t s = 0; s < cols.size(); ++s)
        if (acc[s] != 0.0) rows[i].push_back({cols[s], inv * acc[s]});
      newly[i] = 1;
      ++progressed;
    }
    for (Int i = 0; i < n; ++i)
      if (newly[i]) done[i] = 1;
    if (comm.allreduce_sum(progressed) == 0) break;
  }

  // Fused truncation per F row.
  std::vector<Long> rc;
  std::vector<double> rv;
  for (Int i = 0; i < n; ++i) {
    if (cf[i] > 0) continue;
    rc.clear();
    rv.clear();
    for (auto& [c, v] : rows[i]) {
      rc.push_back(c);
      rv.push_back(v);
    }
    const Int len =
        truncate_row(rc.data(), rv.data(), Int(rc.size()), opt.truncation);
    rows[i].clear();
    for (Int k = 0; k < len; ++k) rows[i].push_back({rc[k], rv[k]});
  }
  return assemble_dist_from_rows(comm, A.row_starts, cn.starts, rows);
}

}  // namespace hpamg

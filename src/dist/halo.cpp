#include "dist/halo.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "support/trace.hpp"

namespace hpamg {

namespace {
// Fixed protocol tags; must stay below simmpi::Comm::kDynamicTagBase (the
// per-instance exchange tags come from Comm::next_tag_block()).
constexpr int kTagNeed = 7101;
constexpr int kTagRowReq = 7120;
constexpr int kTagRowLen = 7130;
constexpr int kTagRowCol = 7140;
constexpr int kTagRowVal = 7150;

int owner_of(const std::vector<Long>& starts, Long g) {
  auto it = std::upper_bound(starts.begin(), starts.end(), g);
  return int(it - starts.begin()) - 1;
}
}  // namespace

HaloExchange::HaloExchange(simmpi::Comm& comm,
                           const std::vector<Long>& colmap,
                           const std::vector<Long>& starts, bool persistent)
    : comm_(comm), persistent_(persistent), ext_size_(Int(colmap.size())),
      tag_base_(comm.next_tag_block()) {
  TRACE_SPAN("halo.setup", "comm", "ext_size", std::int64_t(colmap.size()));
  const int nranks = comm.size();
  const int me = comm.rank();
  // colmap is sorted, so elements owned by one peer form one contiguous
  // segment — walk it once to build recv peers.
  std::vector<std::vector<Long>> need(nranks);
  {
    std::size_t j = 0;
    while (j < colmap.size()) {
      const int owner = owner_of(starts, colmap[j]);
      require(owner != me, "HaloExchange: colmap contains owned element");
      RecvPeer rp;
      rp.rank = owner;
      rp.offset = Int(j);
      while (j < colmap.size() && owner_of(starts, colmap[j]) == owner) {
        need[owner].push_back(colmap[j]);
        ++j;
      }
      rp.count = Int(j) - rp.offset;
      recv_peers_.push_back(rp);
    }
  }
  // Handshake: an alltoall of counts tells every rank who actually needs
  // something from it, then need-lists flow only between real peers. The
  // old protocol sent a (mostly empty) list to every rank, posting
  // O(nranks^2) zero-length messages that skewed per-peer CommStats and
  // the message-size histogram's zero bucket.
  std::vector<Long> need_counts(nranks, 0);
  for (int r = 0; r < nranks; ++r) need_counts[r] = Long(need[r].size());
  const std::vector<Long> peer_needs = comm.alltoall(need_counts);
  for (int r = 0; r < nranks; ++r)
    if (r != me && !need[r].empty()) comm.send_vec(r, kTagNeed, need[r]);
  for (int r = 0; r < nranks; ++r) {
    if (r == me || peer_needs[r] == 0) continue;
    std::vector<Long> theirs = comm.recv_vec<Long>(r, kTagNeed);
    require(Long(theirs.size()) == peer_needs[r],
            "HaloExchange: need-list size disagrees with count handshake");
    SendPeer sp;
    sp.rank = r;
    sp.local_idx.reserve(theirs.size());
    const Long base = starts[me];
    for (Long g : theirs) sp.local_idx.push_back(Int(g - base));
    send_peers_.push_back(sp);
  }
  // Cross-rank audit that the freshly built send/recv lists mirror.
  // Collective, so it must run on every rank or none: the guard depends
  // only on build flags and the process-wide HPAMG_CHECK_LEVEL, which all
  // rank-threads share.
  HPAMG_CHECK_INVARIANT(check::Depth::kFull, check_symmetry());
}

Status HaloExchange::check_symmetry() {
  const int nranks = comm_.size();
  const int me = comm_.rank();
  // One alltoall of ship counts (zeros carried by the collective, never as
  // point-to-point messages) — symmetric by construction, so an asymmetric
  // pattern yields a mismatch, never a missing-message hang. A rank with an
  // empty boundary participates in the collective but posts no messages,
  // keeping CommStats and the size histogram free of zero-byte artifacts.
  std::vector<Long> ships_to(nranks, 0);
  for (const SendPeer& sp : send_peers_)
    ships_to[sp.rank] += Long(sp.local_idx.size());
  const std::vector<Long> peer_sends = comm_.alltoall(ships_to);
  std::vector<Long> recv_counts(nranks, 0);
  for (const RecvPeer& rp : recv_peers_) recv_counts[rp.rank] += rp.count;
  return check::halo_counts_mirror(peer_sends, recv_counts, me,
                                   "HaloExchange");
}

template <typename T>
void HaloExchange::exchange_impl(const T* local, T* ext, int tag, Int width) {
  TRACE_SPAN("halo.exchange", "comm", "ext_size", std::int64_t(ext_size_),
             "width", std::int64_t(width));
  // All `width` values of a boundary row travel together: one message per
  // peer whatever the width (a multi-RHS exchange costs 1/m messages per
  // right-hand side), with an m-proportional byte volume.
  const std::size_t w = std::size_t(width);
  std::vector<T> buf;
  for (const SendPeer& sp : send_peers_) {
    buf.resize(sp.local_idx.size() * w);
    for (std::size_t k = 0; k < sp.local_idx.size(); ++k) {
      const T* row = local + std::size_t(sp.local_idx[k]) * w;
      for (std::size_t j = 0; j < w; ++j) buf[k * w + j] = row[j];
    }
    comm_.send(sp.rank, tag, buf.data(), buf.size() * sizeof(T), persistent_);
  }
  for (const RecvPeer& rp : recv_peers_) {
    std::vector<T> in = comm_.recv_vec<T>(rp.rank, tag);
    require(in.size() == std::size_t(rp.count) * w,
            "HaloExchange: size mismatch");
    std::copy(in.begin(), in.end(), ext + std::size_t(rp.offset) * w);
  }
}

void HaloExchange::exchange(const Vector& x_local, Vector& x_ext) {
  x_ext.resize(ext_size_);
  exchange_impl(x_local.data(), x_ext.data(), tag_base_, 1);
}

void HaloExchange::exchange(const std::vector<signed char>& local,
                            std::vector<signed char>& ext) {
  ext.resize(ext_size_);
  exchange_impl(local.data(), ext.data(), tag_base_ + 1, 1);
}

void HaloExchange::exchange(const std::vector<Long>& local,
                            std::vector<Long>& ext) {
  ext.resize(ext_size_);
  exchange_impl(local.data(), ext.data(), tag_base_ + 2, 1);
}

void HaloExchange::exchange(const MultiVector& x_local, MultiVector& x_ext) {
  x_ext.resize(ext_size_, x_local.m);
  exchange_impl(x_local.data.data(), x_ext.data.data(), tag_base_,
                x_local.m);
}

GatheredRows gather_rows(simmpi::Comm& comm, const DistMatrix& B,
                         const std::vector<Long>& needed_rows,
                         const RowFilter& filter, bool persistent) {
  TRACE_SPAN("halo.gather_rows", "comm", "rows",
             std::int64_t(needed_rows.size()));
  const int nranks = comm.size();
  const int me = comm.rank();
  GatheredRows out;
  out.rows = needed_rows;
  out.rowptr.assign(needed_rows.size() + 1, 0);

  // Group requested rows by owner (needed_rows need not be sorted).
  std::vector<std::vector<Long>> req(nranks);
  std::vector<std::vector<Int>> req_slot(nranks);  // position in needed_rows
  for (std::size_t j = 0; j < needed_rows.size(); ++j) {
    const int owner = owner_of(B.row_starts, needed_rows[j]);
    require(owner != me, "gather_rows: requested an owned row");
    req[owner].push_back(needed_rows[j]);
    req_slot[owner].push_back(Int(j));
  }
  // Count handshake first (one collective), then request lists flow only
  // between real peers — no zero-length request messages skewing per-peer
  // CommStats and the message-size histogram.
  std::vector<Long> req_counts(nranks, 0);
  for (int r = 0; r < nranks; ++r) req_counts[r] = Long(req[r].size());
  const std::vector<Long> peer_reqs = comm.alltoall(req_counts);
  for (int r = 0; r < nranks; ++r)
    if (r != me && !req[r].empty()) comm.send_vec(r, kTagRowReq, req[r]);

  // Serve peers: serialize requested rows (lengths, global cols, values),
  // applying the sender-side filter (§4.3) if given.
  for (int r = 0; r < nranks; ++r) {
    if (r == me || peer_reqs[r] == 0) continue;
    std::vector<Long> theirs = comm.recv_vec<Long>(r, kTagRowReq);
    std::vector<Int> lens;
    std::vector<Long> cols;
    std::vector<double> vals;
    lens.reserve(theirs.size());
    const Long base = B.first_row();
    for (Long grow : theirs) {
      const Int i = Int(grow - base);
      Int len = 0;
      auto emit = [&](Int lc, Long gc, double v) {
        if (filter && !filter(i, lc, gc, v)) return;
        cols.push_back(gc);
        vals.push_back(v);
        ++len;
      };
      for (Int k = B.diag.rowptr[i]; k < B.diag.rowptr[i + 1]; ++k)
        emit(B.diag.colidx[k], B.first_col() + B.diag.colidx[k],
             B.diag.values[k]);
      for (Int k = B.offd.rowptr[i]; k < B.offd.rowptr[i + 1]; ++k)
        emit(B.local_cols() + B.offd.colidx[k], B.colmap[B.offd.colidx[k]],
             B.offd.values[k]);
      lens.push_back(len);
    }
    if (!theirs.empty()) {
      comm.send_vec(r, kTagRowLen, lens, persistent);
      comm.send_vec(r, kTagRowCol, cols, persistent);
      comm.send_vec(r, kTagRowVal, vals, persistent);
    }
  }

  // Receive our rows.
  std::vector<std::vector<Int>> got_lens(nranks);
  std::vector<std::vector<Long>> got_cols(nranks);
  std::vector<std::vector<double>> got_vals(nranks);
  for (int r = 0; r < nranks; ++r) {
    if (r == me || req[r].empty()) continue;
    got_lens[r] = comm.recv_vec<Int>(r, kTagRowLen);
    got_cols[r] = comm.recv_vec<Long>(r, kTagRowCol);
    got_vals[r] = comm.recv_vec<double>(r, kTagRowVal);
    out.bytes_received += got_cols[r].size() * sizeof(Long) +
                          got_vals[r].size() * sizeof(double) +
                          got_lens[r].size() * sizeof(Int);
    for (std::size_t k = 0; k < got_lens[r].size(); ++k)
      out.rowptr[req_slot[r][k] + 1] = got_lens[r][k];
  }
  for (std::size_t j = 0; j < needed_rows.size(); ++j)
    out.rowptr[j + 1] += out.rowptr[j];
  out.gcol.resize(out.rowptr.back());
  out.values.resize(out.rowptr.back());
  for (int r = 0; r < nranks; ++r) {
    if (got_lens[r].empty()) continue;
    Int src = 0;
    for (std::size_t k = 0; k < got_lens[r].size(); ++k) {
      const Int dst = out.rowptr[req_slot[r][k]];
      std::copy_n(got_cols[r].begin() + src, got_lens[r][k],
                  out.gcol.begin() + dst);
      std::copy_n(got_vals[r].begin() + src, got_lens[r][k],
                  out.values.begin() + dst);
      src += got_lens[r][k];
    }
  }
  return out;
}

}  // namespace hpamg

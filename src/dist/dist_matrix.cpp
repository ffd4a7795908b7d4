#include "dist/dist_matrix.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "support/parallel.hpp"
#include "support/sort.hpp"

namespace hpamg {

int DistMatrix::col_owner(Long gcol) const {
  auto it = std::upper_bound(col_starts.begin(), col_starts.end(), gcol);
  return int(it - col_starts.begin()) - 1;
}

void DistMatrix::validate() const {
  require(diag.nrows == local_rows() && offd.nrows == local_rows(),
          "DistMatrix: local row count mismatch");
  require(diag.ncols == local_cols(), "DistMatrix: diag col count mismatch");
  require(offd.ncols == Int(colmap.size()),
          "DistMatrix: offd/colmap size mismatch");
  diag.validate();
  offd.validate();
  for (std::size_t j = 0; j < colmap.size(); ++j) {
    require(colmap[j] < first_col() || colmap[j] >= last_col(),
            "DistMatrix: colmap entry points into own range");
    if (j > 0)
      require(colmap[j - 1] < colmap[j], "DistMatrix: colmap not sorted");
  }
}

Status DistMatrix::check_partition(int nranks) const {
  using check::detail::fail;
  if (my_rank < 0 || my_rank >= nranks)
    return fail(Status::kInvalidInput,
                "check: DistMatrix: my_rank " + std::to_string(my_rank) +
                    " outside [0, " + std::to_string(nranks) + ")");
  if (Status s = check::partition(row_starts, nranks, global_rows,
                                  "DistMatrix row partition");
      s != Status::kOk)
    return s;
  if (Status s = check::partition(col_starts, nranks, global_cols,
                                  "DistMatrix col partition");
      s != Status::kOk)
    return s;
  if (diag.nrows != local_rows() || offd.nrows != local_rows())
    return fail(Status::kInvalidInput,
                "check: DistMatrix: diag/offd row counts " +
                    std::to_string(diag.nrows) + "/" +
                    std::to_string(offd.nrows) + ", expected " +
                    std::to_string(local_rows()));
  if (diag.ncols != local_cols())
    return fail(Status::kInvalidInput,
                "check: DistMatrix: diag has " + std::to_string(diag.ncols) +
                    " columns, expected " + std::to_string(local_cols()));
  if (offd.ncols != Int(colmap.size()))
    return fail(Status::kInvalidInput,
                "check: DistMatrix: offd has " + std::to_string(offd.ncols) +
                    " columns, expected colmap size " +
                    std::to_string(colmap.size()));
  if (Status s = check::csr_well_formed(diag, "DistMatrix diag",
                                        /*require_sorted_unique=*/false);
      s != Status::kOk)
    return s;
  if (Status s = check::csr_well_formed(offd, "DistMatrix offd",
                                        /*require_sorted_unique=*/false);
      s != Status::kOk)
    return s;
  return check::colmap_ownership(colmap, first_col(), last_col(),
                                 global_cols, "DistMatrix colmap");
}

std::vector<Long> even_partition(Long n, int nranks) {
  std::vector<Long> starts(nranks + 1);
  for (int r = 0; r <= nranks; ++r) starts[r] = n * r / nranks;
  return starts;
}

DistMatrix dist_matrix_from_rows(simmpi::Comm& comm,
                                 const std::vector<Long>& row_starts,
                                 const std::vector<Long>& col_starts,
                                 const GlobalRows& rows) {
  DistMatrix M;
  M.global_rows = row_starts.back();
  M.global_cols = col_starts.back();
  M.row_starts = row_starts;
  M.col_starts = col_starts;
  M.my_rank = comm.rank();
  const Int n = M.local_rows();
  require(rows.nrows() == n, "dist_matrix_from_rows: row count mismatch");
  const Long c0 = M.first_col(), c1 = M.last_col();
  const auto own = [&](Long g) { return g >= c0 && g < c1; };

  M.diag = CSRMatrix(n, M.local_cols());
  M.offd = CSRMatrix(n, 0);
  std::vector<Long> offd_cols;
  for (Int i = 0; i < n; ++i) {
    for (Int k = rows.rowptr[i]; k < rows.rowptr[i + 1]; ++k) {
      if (own(rows.cols[k])) {
        ++M.diag.rowptr[i + 1];
      } else {
        ++M.offd.rowptr[i + 1];
        offd_cols.push_back(rows.cols[k]);
      }
    }
  }
  exclusive_scan(M.diag.rowptr);
  exclusive_scan(M.offd.rowptr);
  M.colmap = parallel_sort_unique(std::move(offd_cols));
  M.offd.ncols = Int(M.colmap.size());
  M.diag.colidx.resize(M.diag.rowptr[n]);
  M.diag.values.resize(M.diag.rowptr[n]);
  M.offd.colidx.resize(M.offd.rowptr[n]);
  M.offd.values.resize(M.offd.rowptr[n]);
  parallel_for(0, n, [&](Int i) {
    Int pd = M.diag.rowptr[i], po = M.offd.rowptr[i];
    for (Int k = rows.rowptr[i]; k < rows.rowptr[i + 1]; ++k) {
      const Long g = rows.cols[k];
      if (own(g)) {
        M.diag.colidx[pd] = Int(g - c0);
        M.diag.values[pd++] = rows.vals[k];
      } else {
        const auto it = std::lower_bound(M.colmap.begin(), M.colmap.end(), g);
        M.offd.colidx[po] = Int(it - M.colmap.begin());
        M.offd.values[po++] = rows.vals[k];
      }
    }
  });
  M.diag.sort_rows();
  M.offd.sort_rows();
  return M;
}

DistMatrix build_dist_matrix(simmpi::Comm& comm, Long global_rows,
                             Long global_cols, const RowBuilder& rows,
                             const std::vector<Long>* row_starts) {
  const std::vector<Long> rs =
      row_starts ? *row_starts : even_partition(global_rows, comm.size());
  const std::vector<Long> cs = global_rows == global_cols
                                   ? rs
                                   : even_partition(global_cols, comm.size());
  GlobalRows local;
  std::vector<std::pair<Long, double>> row;
  for (Long g = rs[comm.rank()]; g < rs[comm.rank() + 1]; ++g) {
    row.clear();
    rows(g, row);
    for (const auto& [gc, v] : row) local.add(gc, v);
    local.end_row();
  }
  return dist_matrix_from_rows(comm, rs, cs, local);
}

DistMatrix distribute_csr(simmpi::Comm& comm, const CSRMatrix& A) {
  require(A.nrows == A.ncols, "distribute_csr: matrix must be square");
  return build_dist_matrix(
      comm, A.nrows, A.ncols,
      [&A](Long grow, std::vector<std::pair<Long, double>>& out) {
        const Int i = Int(grow);
        for (Int k = A.rowptr[i]; k < A.rowptr[i + 1]; ++k)
          out.push_back({Long(A.colidx[k]), A.values[k]});
      });
}

CSRMatrix gather_csr(simmpi::Comm& comm, const DistMatrix& A) {
  // Serialize local rows as global triplets, circulate via send/recv.
  std::vector<Triplet> trip;
  const Long r0 = A.first_row();
  const Long c0 = A.first_col();
  for (Int i = 0; i < A.local_rows(); ++i) {
    for (Int k = A.diag.rowptr[i]; k < A.diag.rowptr[i + 1]; ++k)
      trip.push_back({Int(r0 + i), Int(c0 + A.diag.colidx[k]),
                      A.diag.values[k]});
    for (Int k = A.offd.rowptr[i]; k < A.offd.rowptr[i + 1]; ++k)
      trip.push_back({Int(r0 + i), Int(A.colmap[A.offd.colidx[k]]),
                      A.offd.values[k]});
  }
  constexpr int kTag = 7001;
  for (int r = 0; r < comm.size(); ++r)
    if (r != comm.rank()) comm.send_vec(r, kTag, trip);
  for (int r = 0; r < comm.size(); ++r) {
    if (r == comm.rank()) continue;
    std::vector<Triplet> remote = comm.recv_vec<Triplet>(r, kTag);
    trip.insert(trip.end(), remote.begin(), remote.end());
  }
  return CSRMatrix::from_triplets(Int(A.global_rows), Int(A.global_cols),
                                  std::move(trip));
}

Vector gather_vector(simmpi::Comm& comm, const Vector& local,
                     const std::vector<Long>& starts) {
  constexpr int kTag = 7002;
  for (int r = 0; r < comm.size(); ++r)
    if (r != comm.rank()) comm.send_vec(r, kTag, local);
  Vector full(starts.back());
  std::copy(local.begin(), local.end(),
            full.begin() + starts[comm.rank()]);
  for (int r = 0; r < comm.size(); ++r) {
    if (r == comm.rank()) continue;
    Vector piece = comm.recv_vec<double>(r, kTag);
    std::copy(piece.begin(), piece.end(), full.begin() + starts[r]);
  }
  return full;
}

}  // namespace hpamg

// Distributed (ParCSR-style) matrix, matching HYPRE's representation
// (SC'15 §4.1, Fig 3): rows are partitioned contiguously among ranks; each
// rank stores its block-diagonal part `diag` (local column indices) and its
// block-off-diagonal part `offd` whose column indices are compressed, with
// `colmap` mapping the compressed indices back to global columns.
#pragma once

#include <functional>

#include "dist/simmpi.hpp"
#include "matrix/csr.hpp"
#include "matrix/vector_ops.hpp"
#include "support/error.hpp"

namespace hpamg {

class DistMatrix {
 public:
  Long global_rows = 0;
  Long global_cols = 0;
  std::vector<Long> row_starts;  ///< size nranks+1; rank p owns [p, p+1)
  std::vector<Long> col_starts;  ///< column partition (== row_starts if square)
  int my_rank = 0;

  CSRMatrix diag;             ///< local block-diagonal part
  CSRMatrix offd;             ///< block-off-diagonal, compressed columns
  std::vector<Long> colmap;   ///< sorted; offd col j is global colmap[j]

  Long first_row() const { return row_starts[my_rank]; }
  Long last_row() const { return row_starts[my_rank + 1]; }
  Int local_rows() const { return Int(last_row() - first_row()); }
  Long first_col() const { return col_starts[my_rank]; }
  Long last_col() const { return col_starts[my_rank + 1]; }
  Int local_cols() const { return Int(last_col() - first_col()); }

  /// Owning rank of a global column (binary search of col_starts).
  int col_owner(Long gcol) const;

  Long nnz_local() const { return diag.nnz() + offd.nnz(); }

  /// Bytes held by this rank's piece (diag + offd CSR storage, the colmap,
  /// and the replicated partition arrays).
  std::uint64_t footprint_bytes() const {
    return diag.footprint_bytes() + offd.footprint_bytes() +
           colmap.size() * sizeof(Long) +
           (row_starts.size() + col_starts.size()) * sizeof(Long);
  }

  /// Structural invariants (shapes, colmap sorted/unique/off-rank).
  void validate() const;

  /// Distributed-ownership audit (support/check.hpp invariant layer):
  /// row/col partitions contiguous over `nranks` ranks and ending at the
  /// global shape, my_rank in range, diag/offd blocks well-formed CSR, and
  /// every colmap entry sorted, unique, and owned by some *other* rank.
  /// Returns kOk or kInvalidInput with the diagnosis in
  /// check::last_error(). Rank-local (no communication).
  Status check_partition(int nranks) const;
};

/// A rank's rows in one flat buffer with global column ids: row i holds
/// (cols, vals)[rowptr[i], rowptr[i + 1]).
struct GlobalRows {
  std::vector<Int> rowptr{0};
  std::vector<Long> cols;
  std::vector<double> vals;

  void add(Long col, double v) {
    cols.push_back(col);
    vals.push_back(v);
  }
  void end_row() { rowptr.push_back(Int(cols.size())); }
  Int nrows() const { return Int(rowptr.size()) - 1; }
};

/// Splits the rank's rows into the diag block (columns in its slice of
/// col_starts) and the offd block over a sorted compressed colmap; every
/// row of both blocks comes out sorted by column.
DistMatrix dist_matrix_from_rows(simmpi::Comm& comm,
                                 const std::vector<Long>& row_starts,
                                 const std::vector<Long>& col_starts,
                                 const GlobalRows& rows);

/// One global row as (global column, value) pairs.
using RowBuilder =
    std::function<void(Long grow, std::vector<std::pair<Long, double>>& out)>;

/// Even contiguous partition of n items over nranks.
std::vector<Long> even_partition(Long n, int nranks);

/// Builds a rank's piece of a distributed matrix from a global row
/// generator. Every rank calls this with the same generator; no
/// communication (generators are deterministic functions of the row).
DistMatrix build_dist_matrix(simmpi::Comm& comm, Long global_rows,
                             Long global_cols, const RowBuilder& rows,
                             const std::vector<Long>* row_starts = nullptr);

/// Wraps a sequential CSR matrix as the rank's piece (rows
/// [row_starts[r], row_starts[r+1]) of A). For dist-vs-sequential tests.
DistMatrix distribute_csr(simmpi::Comm& comm, const CSRMatrix& A);

/// Gathers a distributed matrix to one full CSR copy on every rank
/// (test helper; O(global nnz) communication).
CSRMatrix gather_csr(simmpi::Comm& comm, const DistMatrix& A);

/// Gathers distributed vector pieces into a full vector on every rank.
Vector gather_vector(simmpi::Comm& comm, const Vector& local,
                     const std::vector<Long>& starts);

}  // namespace hpamg

// Halo exchange (SC'15 §4.1, Fig 3b) and remote-row gather (Fig 3c).
//
// HaloExchange materializes the communication pattern implied by a
// distributed matrix's colmap: which ranks own the external vector elements
// this rank reads, and which local elements each peer needs from us. The
// pattern is the analogue of MPI persistent requests (§4.4): constructing
// it once and calling exchange() repeatedly is the optimized path
// (persistent = true, one Startall per exchange); the baseline re-pays the
// per-message request setup on every call (persistent = false), which the
// perfmodel charges accordingly.
//
// gather_rows implements the matrix-row halo exchange that distributed
// SpGEMM and extended+i interpolation need; the optional sender-side
// filter is the §4.3 optimization that strips nonzeros the receiver can
// never use (>3x communication-volume reduction in the paper).
#pragma once

#include <functional>

#include "amg/multivector.hpp"
#include "dist/dist_matrix.hpp"
#include "dist/simmpi.hpp"
#include "support/error.hpp"

namespace hpamg {

class HaloExchange {
 public:
  /// Builds the pattern for external elements `colmap` (sorted global ids)
  /// over the element partition `starts`.
  HaloExchange(simmpi::Comm& comm, const std::vector<Long>& colmap,
               const std::vector<Long>& starts, bool persistent);

  /// Gathers external values: x_ext[j] <- x at global position colmap[j].
  /// x_local is this rank's partition slice.
  void exchange(const Vector& x_local, Vector& x_ext);

  /// Same for signed char payloads (CF markers in distributed PMIS).
  void exchange(const std::vector<signed char>& local,
                std::vector<signed char>& ext);

  /// Same for Long payloads (global coarse indices in dist interpolation).
  void exchange(const std::vector<Long>& local, std::vector<Long>& ext);

  /// Batched multi-RHS exchange: ships all m values of every boundary row
  /// in ONE message per peer, so the per-RHS message count drops to 1/m of
  /// the scalar exchange (x_ext is resized to ext_size() rows by x_local.m
  /// columns). Same pattern, same peers, m-fold payload.
  void exchange(const MultiVector& x_local, MultiVector& x_ext);

  Int ext_size() const { return ext_size_; }
  int num_peers() const { return int(send_peers_.size() + recv_peers_.size()); }

  /// Collective symmetry audit (support/check.hpp invariant layer): every
  /// rank tells every peer how many elements it will ship, and each rank
  /// verifies the claims mirror its own recv segments. All ranks must call
  /// this together (the constructor does, at full checking depth, in
  /// -DHPAMG_CHECK=ON builds). Returns kOk or kInvalidInput with the
  /// mismatching peer in check::last_error().
  Status check_symmetry();

 private:
  /// Ships `width` consecutive values per element (row-major blocks).
  template <typename T>
  void exchange_impl(const T* local, T* ext, int tag, Int width);

  struct SendPeer {
    int rank;
    std::vector<Int> local_idx;  ///< which of my elements to ship
  };
  struct RecvPeer {
    int rank;
    Int offset;  ///< segment start within ext
    Int count;
  };
  simmpi::Comm& comm_;
  bool persistent_;
  Int ext_size_ = 0;
  int tag_base_ = 0;  ///< per-instance tag block; construction order is
                      ///< collective, so all ranks agree on the value
  std::vector<SendPeer> send_peers_;
  std::vector<RecvPeer> recv_peers_;
};

/// Sender-side nonzero filter: (sender-local row, sender-local column,
/// global column, value) -> keep? The local column numbers the sender's
/// [diag | offd] columns: diag column c is c, offd column c is
/// local_cols() + c. Null keeps everything.
using RowFilter = std::function<bool(Int, Int, Long, double)>;

/// Remote matrix rows assembled on the requesting rank; columns remain
/// global until column-index renumbering (renumber.hpp).
struct GatheredRows {
  std::vector<Long> rows;      ///< the requested global row ids (in order)
  std::vector<Int> rowptr;     ///< size rows.size() + 1
  std::vector<Long> gcol;      ///< global column per nonzero
  std::vector<double> values;
  std::uint64_t bytes_received = 0;
};

/// Fetches the listed global rows of B from their owners. All ranks must
/// call this collectively. `filter` runs on the sender (§4.3).
GatheredRows gather_rows(simmpi::Comm& comm, const DistMatrix& B,
                         const std::vector<Long>& needed_rows,
                         const RowFilter& filter = nullptr,
                         bool persistent = false);

}  // namespace hpamg

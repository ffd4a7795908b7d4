// V-cycle execution over a built hierarchy.
//
// The optimized variant runs entirely in each level's CF-permuted
// numbering: smoothing sweeps the contiguous coarse then fine ranges (no
// per-row branch), restriction uses the kept R = P^T with the identity
// block skipped, and coarse-level pre-smoothing exploits the zero initial
// guess. The baseline variant smooths with the per-row C/F branch and
// re-transposes P on every restriction, as HYPRE 2.10.0b did.
#pragma once

#include "amg/hierarchy.hpp"
#include "support/timer.hpp"

namespace hpamg {

/// One V-cycle: x <- x + B(b - A x) where B is the multigrid operator.
/// b and x are in the ORIGINAL ordering of the input matrix; the cycle
/// permutes in/out of level-0 working order when the hierarchy is
/// optimized. Pass `pt` to accumulate the Fig 5 solve-phase breakdown
/// (GS / SpMV / BLAS1 / Solve_etc).
void vcycle(Hierarchy& h, const Vector& b, Vector& x,
            PhaseTimes* pt = nullptr, WorkCounters* wc = nullptr);

/// Grows every level's solve workspace (Level::{b,x,temp,r,rc_pre}) to
/// n x m row-major blocks; a no-op once the hierarchy has seen a width of m
/// or more. The batched entry points call this themselves; benches may call
/// it up front to keep allocation out of timed regions.
void ensure_multi_workspace(Hierarchy& h, Int m);

/// Batched V-cycle over all columns of B/X (original input ordering).
/// Column j of the result is bitwise-equal to vcycle() applied to column j
/// alone: the hybrid-GS (optimized) and Jacobi smoothers sweep the whole
/// block, the others sweep column by column.
void vcycle_multi(Hierarchy& h, const MultiVector& B, MultiVector& X,
                  PhaseTimes* pt = nullptr, WorkCounters* wc = nullptr);

/// The one V-cycle implementation behind both entry points, on n x m
/// row-major blocks (M as in with_width, matrix/vector_ops.hpp).
/// `work_order`: b and x are already in level-0 working (CF-permuted)
/// order, as the standalone solver keeps them across iterations to avoid
/// per-cycle gathers.
template <int M>
void vcycle_block(Hierarchy& h, const double* b, double* x, Int m,
                  bool work_order, PhaseTimes* pt = nullptr,
                  WorkCounters* wc = nullptr);

}  // namespace hpamg

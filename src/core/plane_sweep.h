// In-memory plane sweep (the PlaneSweep base case of Algorithm 2).
//
// Given the pieces of one slab (guaranteed to fit in memory), sweeps a
// horizontal line bottom-to-top, maintaining location-weights over the
// slab's x-extent in a segment tree, and emits one slab-file tuple
// <y, [x1,x2), sum> per distinct event y — the max-interval of the slab for
// the stratum starting at y (Def. 6). This is the external counterpart of
// Imai & Asano's optimal in-memory algorithm [11] restricted to a slab.
//
// A tuple often repeats its predecessor's interval and sum: the events at
// its y changed the slab away from the max-interval. The segment tree then
// answers from its memo without searching (core/segment_tree.h), and the
// recursion's base case forwards only the tuples that change (Algorithm 2
// line 9 needs no more, since a slab-file tuple holds until the next one).
// PlaneSweep itself returns every tuple, one per event y; VisitPlaneSweep
// hands the same tuples to a callback, so a caller that keeps only a few of
// them never holds the tuple vector.
#ifndef MAXRS_CORE_PLANE_SWEEP_H_
#define MAXRS_CORE_PLANE_SWEEP_H_

#include <functional>
#include <vector>

#include "core/records.h"
#include "geom/geometry.h"
#include "util/status.h"

namespace maxrs {

/// Objective of a sweep: the paper's MaxRS (maximize the covered weight) or
/// the MinRS extension (minimize it; see core/extensions.h).
enum class SweepObjective { kMaximize, kMinimize };

/// Computes the slab-file of `slab` for the given pieces (all x-extents must
/// lie within `slab`). Returns tuples sorted by strictly increasing y; each
/// tuple carries the extremal (max or min, per `objective`) interval of its
/// stratum. Pieces may arrive in any order — the output is a pure function
/// of the piece multiset (events are applied in a canonical total order, so
/// not even floating-point accumulation can see the input order). Purely
/// in-memory: no I/O.
///
/// Cost: set-up is one LSD radix sort of the 2n x-edges plus linear work
/// when the pieces arrive in PieceYLess order (the y pre-sort and the serve
/// shards deliver them so): the bottom and top events are then merged, not
/// sorted. Any other order, or ties the merge cannot order (such as equal
/// pieces that differ only in weight, or in height), costs one
/// O(n log n) event sort instead. The sweep is O(n log n) over the
/// SegmentTree. Scratch beyond the tree and the output is at most 88 bytes
/// per piece plus 8 KB of radix counters.
///
/// x-edges equal under == share one boundary. The only such distinct
/// values are -0.0 and +0.0; a tuple's x_lo or x_hi on that boundary is
/// -0.0 when any edge (or a slab bound) is -0.0.
std::vector<SlabTuple> PlaneSweep(
    const std::vector<PieceRecord>& pieces, const Interval& slab,
    SweepObjective objective = SweepObjective::kMaximize);

/// PlaneSweep without the output vector: calls `visit` on each tuple
/// PlaneSweep would return, in the same order and with the same bits.
/// Stops at, and returns, the first error `visit` returns.
Status VisitPlaneSweep(const std::vector<PieceRecord>& pieces,
                       const Interval& slab, SweepObjective objective,
                       const std::function<Status(const SlabTuple&)>& visit);

/// Convenience for standalone use and tests: the best tuple of a slab-file,
/// i.e. the tuple opening the stratum that contains the max-region.
/// Returns tuple index, or SIZE_MAX for an empty file.
size_t BestTupleIndex(const std::vector<SlabTuple>& tuples);

}  // namespace maxrs

#endif  // MAXRS_CORE_PLANE_SWEEP_H_

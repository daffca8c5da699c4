// Division phase of ExactMaxRS (Sec. 5.2.1).
//
// A recursion node holds two inputs: a stream of the slab's pieces (sorted
// by y_lo) and a file of the slab's real vertical-edge x-coordinates (sorted
// by x). The division cuts the edge file into m chunks of roughly equal edge
// count — Lemma 1 partitions *edges*, guaranteeing each child shrinks by a
// factor of m — and routes each piece into child pieces and at most one
// spanning record. Each child's pieces go into its own channel
// (io/record_stream.h) and inherit y-sortedness (they are subsequences of
// the parent's y-sorted stream); the edge chunks go into per-child files and
// inherit x-sortedness (they are contiguous cuts). So no re-sorting is ever
// needed after the two up-front external sorts: every level costs O(n/B)
// I/Os.
#ifndef MAXRS_CORE_DIVISION_H_
#define MAXRS_CORE_DIVISION_H_

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/records.h"
#include "geom/geometry.h"
#include "io/env.h"
#include "io/record_stream.h"
#include "io/temp_manager.h"
#include "util/cancel.h"
#include "util/status.h"

namespace maxrs {

namespace division_internal {

/// Index of the slab containing coordinate v. `bounds` holds the interior
/// boundaries s_1 < ... < s_{m-1}; slab k covers [s_k, s_{k+1}) with
/// s_0 = -inf / slab.lo and s_m = +inf / slab.hi. The caller clamps to the
/// last slab (values equal to the outer hi are legal for clipped pieces).
inline size_t IndexOf(const std::vector<double>& bounds, double v) {
  return static_cast<size_t>(
      std::upper_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
}

/// Routes one piece of a y-sorted stream across the slabs defined by
/// `bounds`/`ranges` (ranges[k] is slab k's x-interval; ranges.size() ==
/// bounds.size() + 1): emits clipped sub-pieces via emit_piece(slab, piece)
/// and at most one spanning record via emit_span(span) — the Sec. 5.2.1
/// clipping rule shared verbatim by the recursion's division pass and the
/// serve layer's per-query shard routing, so the two can never diverge.
/// Both emitters return Status.
template <typename EmitPiece, typename EmitSpan>
Status RoutePiece(const std::vector<double>& bounds,
                  const std::vector<Interval>& ranges, const PieceRecord& p,
                  EmitPiece&& emit_piece, EmitSpan&& emit_span) {
  const size_t num_slabs = ranges.size();
  // Slabs touched by the piece: i (contains x_lo) through j. A piece
  // ending exactly at a slab's lower boundary never enters that slab.
  const size_t i = std::min(IndexOf(bounds, p.x_lo), num_slabs - 1);
  size_t j = std::min(IndexOf(bounds, p.x_hi), num_slabs - 1);
  if (j > i && p.x_hi == ranges[j].lo) --j;

  // A part that covers its slab's entire x-range is *spanning* and must
  // not descend (Sec. 5.2.1: spanning rectangles would defeat Lemma 1's
  // termination argument). Slab i is fully covered iff the piece starts
  // at its lower bound; slab j iff the piece ends at its upper bound;
  // every slab strictly between i and j is always fully covered.
  const bool left_full = (p.x_lo == ranges[i].lo);
  const bool right_full = (p.x_hi == ranges[j].hi);

  if (i == j) {
    if (left_full && right_full) {
      SpanRecord span{p.y_lo, p.y_hi, p.w, static_cast<int32_t>(i),
                      static_cast<int32_t>(i)};
      return emit_span(span);
    }
    return emit_piece(i, p);
  }

  const size_t span_lo = left_full ? i : i + 1;
  const size_t span_hi = right_full ? j : j - 1;
  if (!left_full) {
    PieceRecord left = p;  // [x_lo, s_i): keeps a real edge strictly inside
    left.x_hi = ranges[i].hi;
    MAXRS_RETURN_IF_ERROR(emit_piece(i, left));
  }
  if (!right_full) {
    PieceRecord right = p;  // [s_{j-1}, x_hi)
    right.x_lo = ranges[j].lo;
    MAXRS_RETURN_IF_ERROR(emit_piece(j, right));
  }
  if (span_lo <= span_hi) {
    SpanRecord span{p.y_lo, p.y_hi, p.w, static_cast<int32_t>(span_lo),
                    static_cast<int32_t>(span_hi)};
    return emit_span(span);
  }
  return Status::OK();
}

}  // namespace division_internal

/// One child of a division: its slab x-range and its two inputs.
struct ChildSlab {
  Interval x_range;
  /// The child's y-sorted pieces, closed by the division.
  std::unique_ptr<RecordChannel<PieceRecord>> pieces;
  /// The child's x-sorted edges.
  std::string edge_file;
};

/// Computes child slab boundaries by cutting the (x-sorted) edge file into
/// at most `m` chunks at value changes, routes the edges into one file per
/// child, then drains `pieces` (y-sorted, all within `slab`), routing each
/// piece into the channels of the children it overlaps and its spanning
/// part into `span_file` (SpanRecords in y order; *num_spans is their
/// count). Each channel holds up to `channel_bytes` in memory and spills
/// the rest to one scratch file (RecordChannel): 0 passes every non-empty
/// child's pieces through exactly one file, and a child that receives no
/// piece creates none. Every channel is closed on return, with the error if
/// the routing failed. `cancel` is polled once per routed record.
///
/// Returns InvalidArgument without reading `pieces` if the edge file cannot
/// be cut into at least two chunks (all edges share one x) — callers fall
/// back to the in-memory base case in that degenerate situation.
Result<std::vector<ChildSlab>> DividePieces(
    TempFileManager& temps, RecordSource<PieceRecord>* pieces,
    const std::string& edge_file, const Interval& slab, size_t m,
    size_t channel_bytes, const std::string& span_file, uint64_t* num_spans,
    const CancelToken* cancel = nullptr);

}  // namespace maxrs

#endif  // MAXRS_CORE_DIVISION_H_

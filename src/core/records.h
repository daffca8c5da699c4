// On-disk record types used by the ExactMaxRS distribution sweep.
// All are fixed-size and trivially copyable (see io/record_io.h).
#ifndef MAXRS_CORE_RECORDS_H_
#define MAXRS_CORE_RECORDS_H_

#include <cstdint>
#include <cstring>

#include "geom/geometry.h"

namespace maxrs {

/// A (possibly x-clipped) transformed rectangle: the d1 x d2 rectangle
/// centered at an object (Sec. 5.1), restricted to the current slab.
/// Half-open extents [x_lo, x_hi) x [y_lo, y_hi); weight w(o).
/// Pieces are only ever clipped in x, so every piece keeps the original
/// height d2 — which is why both bottom (y_lo) and top (y_hi) event orders
/// coincide with the file order of a y_lo-sorted file.
struct PieceRecord {
  double x_lo;
  double x_hi;
  double y_lo;
  double y_hi;
  double w;
};

/// Canonical total order on doubles (IEEE-754 totalOrder, minus the
/// quiet/signaling distinction): numeric order on ordinary values, -0 < +0,
/// NaNs at the extremes by sign. Plain `<` is not a strict weak ordering
/// once a NaN sneaks in (NaN compares "equivalent" to everything), which
/// would make std::sort undefined behavior — and user-supplied weights
/// (e.g. via maxrs_cli CSVs) are not validated.
inline uint64_t DoubleOrderKey(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return (bits & (1ULL << 63)) ? ~bits : bits | (1ULL << 63);
}

/// True iff `a` and `b` have one bit pattern: unlike ==, tells -0.0 from
/// +0.0 and matches a NaN with itself.
inline bool SameBits(double a, double b) {
  return DoubleOrderKey(a) == DoubleOrderKey(b);
}

/// Total order on pieces for the y pre-sort: y_lo (the sweep key) first,
/// then every remaining field. A total order makes the unstable run-
/// formation sort (std::sort) and the external merge produce one canonical
/// sequence — the basis of bit-identical results at any thread count.
inline bool PieceYLess(const PieceRecord& a, const PieceRecord& b) {
  uint64_t ka = DoubleOrderKey(a.y_lo), kb = DoubleOrderKey(b.y_lo);
  if (ka != kb) return ka < kb;
  ka = DoubleOrderKey(a.x_lo), kb = DoubleOrderKey(b.x_lo);
  if (ka != kb) return ka < kb;
  ka = DoubleOrderKey(a.x_hi), kb = DoubleOrderKey(b.x_hi);
  if (ka != kb) return ka < kb;
  ka = DoubleOrderKey(a.y_hi), kb = DoubleOrderKey(b.y_hi);
  if (ka != kb) return ka < kb;
  return DoubleOrderKey(a.w) < DoubleOrderKey(b.w);
}

/// One vertical-edge x-coordinate of an original rectangle. The edge file
/// (x-sorted) provides the exact edge-count quantiles that the division
/// phase cuts on (Lemma 1 partitions edges, not rectangles).
struct EdgeRecord {
  double x;
};

/// Total order on edges (single field; the total-order key keeps the
/// comparator a strict weak ordering even for NaN input).
inline bool EdgeXLess(const EdgeRecord& a, const EdgeRecord& b) {
  return DoubleOrderKey(a.x) < DoubleOrderKey(b.x);
}

/// The spanning part of a rectangle: covers children [child_lo, child_hi]
/// (inclusive) fully in x, contributing weight w on y in [y_lo, y_hi).
/// These do not descend into the recursion (Sec. 5.2.1); they are merged
/// back in MergeSweep via the upSum counters.
struct SpanRecord {
  double y_lo;
  double y_hi;
  double w;
  int32_t child_lo;
  int32_t child_hi;
};

/// Total order on spans for the serve layer's cross-shard span merge: y_lo
/// (the MergeSweep bottom-event key) first, then every remaining field.
/// MergeSweep itself only needs y_lo order; the full total order makes the
/// k-way merge of per-shard span streams produce one canonical sequence
/// (equal-comparing spans are byte-identical), mirroring PieceYLess.
inline bool SpanYLess(const SpanRecord& a, const SpanRecord& b) {
  uint64_t ka = DoubleOrderKey(a.y_lo), kb = DoubleOrderKey(b.y_lo);
  if (ka != kb) return ka < kb;
  ka = DoubleOrderKey(a.y_hi), kb = DoubleOrderKey(b.y_hi);
  if (ka != kb) return ka < kb;
  ka = DoubleOrderKey(a.w), kb = DoubleOrderKey(b.w);
  if (ka != kb) return ka < kb;
  if (a.child_lo != b.child_lo) return a.child_lo < b.child_lo;
  return a.child_hi < b.child_hi;
}

/// The Sec. 5.1 transform: the d1 x d2 rectangle centered at object `o`,
/// carrying w(o). Both the one-shot pipeline and the serve layer's
/// per-shard derivation call THIS function — served answers are
/// bit-identical to one-shot runs only while the two sides compute
/// identical floating-point values, so keep the transform in one place.
inline PieceRecord TransformObject(const SpatialObject& o, double rect_width,
                                   double rect_height) {
  return PieceRecord{o.x - rect_width / 2.0, o.x + rect_width / 2.0,
                     o.y - rect_height / 2.0, o.y + rect_height / 2.0, o.w};
}

/// One slab-file tuple t = <y, [x1, x2], sum> (Def. 6 / Sec. 5.2.2): on any
/// horizontal line with y-coordinate in [t.y, next tuple's y), the
/// max-interval of the slab is [x_lo, x_hi) with location-weight `sum`.
struct SlabTuple {
  double y;
  double x_lo;
  double x_hi;
  double sum;
};

}  // namespace maxrs

#endif  // MAXRS_CORE_RECORDS_H_

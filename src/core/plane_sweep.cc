#include "core/plane_sweep.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <utility>

#include "core/segment_tree.h"
#include "util/check.h"

namespace maxrs {
namespace {

struct Event {
  double y;
  double w;  // +w at bottom edge, -w at top edge.
  // The piece's elementary intervals [first, last] (inclusive).
  uint32_t first;
  uint32_t last;
  uint32_t piece;  // Index of the piece; its x-edges order events tied on y.
};

/// Inverse of DoubleOrderKey.
double FromOrderKey(uint64_t key) {
  const uint64_t bits = (key & (1ULL << 63)) ? key & ~(1ULL << 63) : ~key;
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

constexpr int kDigitBits = 11;

/// Coordinate compression of the slab's x-edges. Slot 2i is pieces[i].x_lo,
/// slot 2i+1 is pieces[i].x_hi, and the last two slots are the slab bounds.
/// Fills `xs` with the distinct boundaries in increasing order (values equal
/// under == share one boundary, which keeps the one first in DoubleOrderKey
/// order: -0.0 over +0.0) and returns every slot's index into `xs`.
std::vector<uint32_t> RankXEdges(const std::vector<PieceRecord>& pieces,
                                 const Interval& slab,
                                 std::vector<double>* xs) {
  const size_t num_slots = 2 * pieces.size() + 2;
  MAXRS_CHECK(num_slots <= UINT32_MAX);
  std::vector<uint64_t> keys;
  keys.reserve(num_slots);
  for (const PieceRecord& p : pieces) {
    MAXRS_DCHECK(p.x_lo >= slab.lo && p.x_hi <= slab.hi);
    MAXRS_DCHECK(p.x_lo < p.x_hi && p.y_lo < p.y_hi);
    keys.push_back(DoubleOrderKey(p.x_lo));
    keys.push_back(DoubleOrderKey(p.x_hi));
  }
  keys.push_back(DoubleOrderKey(slab.lo));
  keys.push_back(DoubleOrderKey(slab.hi));

  // `order` ends up holding the slots sorted by key; `scratch` is the radix
  // ping-pong buffer and is reused for the ranks. Ties between equal keys
  // may land in any order: equal keys get equal ranks either way.
  std::vector<uint32_t> order(num_slots);
  std::vector<uint32_t> scratch(num_slots);
  std::iota(order.begin(), order.end(), 0u);
  // LSD radix sort, skipping every digit that all keys share.
  uint64_t differing = 0;
  for (uint64_t k : keys) differing |= k ^ keys[0];
  constexpr uint64_t kMask = (1u << kDigitBits) - 1;
  std::vector<uint32_t> bucket(kMask + 1);
  for (int shift = 0; shift < 64; shift += kDigitBits) {
    if (((differing >> shift) & kMask) == 0) continue;
    std::fill(bucket.begin(), bucket.end(), 0u);
    for (uint64_t k : keys) ++bucket[(k >> shift) & kMask];
    uint32_t start = 0;
    for (uint32_t& b : bucket) start += std::exchange(b, start);
    for (uint32_t s : order) {
      scratch[bucket[(keys[s] >> shift) & kMask]++] = s;
    }
    order.swap(scratch);
  }

  std::vector<uint32_t> rank = std::move(scratch);
  xs->reserve(num_slots);
  for (uint32_t s : order) {
    const double x = FromOrderKey(keys[s]);
    if (xs->empty() || x != xs->back()) xs->push_back(x);
    rank[s] = static_cast<uint32_t>(xs->size() - 1);
  }
  return rank;
}

}  // namespace

std::vector<SlabTuple> PlaneSweep(const std::vector<PieceRecord>& pieces,
                                  const Interval& slab,
                                  SweepObjective objective) {
  std::vector<SlabTuple> out;
  out.reserve(2 * pieces.size());  // at most one tuple per event
  const Status st =
      VisitPlaneSweep(pieces, slab, objective, [&out](const SlabTuple& t) {
        out.push_back(t);
        return Status::OK();
      });
  MAXRS_CHECK(st.ok());
  return out;
}

Status VisitPlaneSweep(
    const std::vector<PieceRecord>& pieces, const Interval& slab,
    SweepObjective objective,
    const std::function<Status(const SlabTuple&)>& visit) {
  if (pieces.empty()) return Status::OK();

  // Total order (not just by y): events tied on y are applied to the tree
  // in one canonical sequence, which makes the emitted tuples a pure
  // function of the piece *multiset* — floating-point accumulation is not
  // associative, so without this the caller's piece order could leak into
  // last-ulp differences of tied-y sums. The serve layer's bit-identity
  // contract (pieces arrive sorted there, in file order in the one-shot
  // fast path) rests on this.
  auto event_less = [&pieces](const Event& a, const Event& b) {
    uint64_t ka = DoubleOrderKey(a.y), kb = DoubleOrderKey(b.y);
    if (ka != kb) return ka < kb;
    const PieceRecord& pa = pieces[a.piece];
    const PieceRecord& pb = pieces[b.piece];
    ka = DoubleOrderKey(pa.x_lo), kb = DoubleOrderKey(pb.x_lo);
    if (ka != kb) return ka < kb;
    ka = DoubleOrderKey(pa.x_hi), kb = DoubleOrderKey(pb.x_hi);
    if (ka != kb) return ka < kb;
    return DoubleOrderKey(a.w) < DoubleOrderKey(b.w);
  };

  // Elementary interval boundaries: slab bounds plus all piece x-edges.
  std::vector<double> xs;
  std::vector<Event> events;
  {
    const std::vector<uint32_t> rank = RankXEdges(pieces, slab, &xs);
    auto bottom = [&pieces, &rank](uint32_t i) {
      const PieceRecord& p = pieces[i];
      return Event{p.y_lo, p.w, rank[2 * i], rank[2 * i + 1] - 1, i};
    };
    auto top = [&pieces, &rank](uint32_t i) {
      const PieceRecord& p = pieces[i];
      return Event{p.y_hi, -p.w, rank[2 * i], rank[2 * i + 1] - 1, i};
    };
    // Pieces in PieceYLess order (the y pre-sort, the serve shards) have
    // their bottom events and, barring ties, their top events already in
    // event order, so one merge of the two sequences yields the total
    // order. Any other input order is caught by the check below.
    const uint32_t n = static_cast<uint32_t>(pieces.size());
    events.reserve(2 * static_cast<size_t>(n));
    uint32_t b = 0, t = 0;
    while (b < n && t < n) {
      const Event eb = bottom(b), et = top(t);
      if (event_less(et, eb)) {
        events.push_back(et);
        ++t;
      } else {
        events.push_back(eb);
        ++b;
      }
    }
    for (; b < n; ++b) events.push_back(bottom(b));
    for (; t < n; ++t) events.push_back(top(t));
  }
  if (!std::is_sorted(events.begin(), events.end(), event_less)) {
    std::sort(events.begin(), events.end(), event_less);
  }
  // Elementary intervals [xs[t], xs[t+1]).
  const size_t num_elem = xs.size() - 1;

  SegmentTree tree(num_elem);
  size_t i = 0;
  while (i < events.size()) {
    const double y = events[i].y;
    // Apply every event at this h-line: with half-open [y_lo, y_hi) extents,
    // both openings and closings at y take effect for the stratum [y, next).
    while (i < events.size() && events[i].y == y) {
      tree.RangeAdd(events[i].first, events[i].last, events[i].w);
      ++i;
    }
    const MaxRun run = objective == SweepObjective::kMaximize
                           ? tree.MaxInterval()
                           : tree.MinInterval();
    MAXRS_RETURN_IF_ERROR(
        visit(SlabTuple{y, xs[run.first], xs[run.last + 1], run.value}));
  }
  return Status::OK();
}

size_t BestTupleIndex(const std::vector<SlabTuple>& tuples) {
  if (tuples.empty()) return SIZE_MAX;
  size_t best = 0;
  for (size_t i = 1; i < tuples.size(); ++i) {
    if (tuples[i].sum > tuples[best].sum) best = i;
  }
  return best;
}

}  // namespace maxrs

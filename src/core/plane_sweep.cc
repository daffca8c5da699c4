#include "core/plane_sweep.h"

#include <algorithm>
#include <cstdint>

#include "core/segment_tree.h"
#include "util/check.h"

namespace maxrs {
namespace {

struct Event {
  double y;
  double x_lo;  // x_lo and x_hi only order the events (see the sort below).
  double x_hi;
  double w;  // +w at bottom edge, -w at top edge.
  // The piece's elementary intervals [first, last] (inclusive).
  uint32_t first;
  uint32_t last;
};

}  // namespace

std::vector<SlabTuple> PlaneSweep(const std::vector<PieceRecord>& pieces,
                                  const Interval& slab,
                                  SweepObjective objective) {
  std::vector<SlabTuple> out;
  if (pieces.empty()) return out;

  // Elementary interval boundaries: slab bounds plus all piece x-edges.
  std::vector<double> xs;
  xs.reserve(2 * pieces.size() + 2);
  xs.push_back(slab.lo);
  xs.push_back(slab.hi);
  for (const PieceRecord& p : pieces) {
    MAXRS_DCHECK(p.x_lo >= slab.lo && p.x_hi <= slab.hi);
    MAXRS_DCHECK(p.x_lo < p.x_hi && p.y_lo < p.y_hi);
    xs.push_back(p.x_lo);
    xs.push_back(p.x_hi);
  }
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
  const size_t num_elem = xs.size() - 1;  // elementary intervals [xs[t], xs[t+1])

  auto index_of = [&xs](double x) {
    return static_cast<uint32_t>(
        std::lower_bound(xs.begin(), xs.end(), x) - xs.begin());
  };

  std::vector<Event> events;
  events.reserve(2 * pieces.size());
  for (const PieceRecord& p : pieces) {
    const uint32_t first = index_of(p.x_lo);
    const uint32_t last = index_of(p.x_hi) - 1;
    events.push_back({p.y_lo, p.x_lo, p.x_hi, p.w, first, last});
    events.push_back({p.y_hi, p.x_lo, p.x_hi, -p.w, first, last});
  }
  // Total order (not just by y): events tied on y are applied to the tree
  // in one canonical sequence, which makes the emitted tuples a pure
  // function of the piece *multiset* — floating-point accumulation is not
  // associative, so without this the caller's piece order could leak into
  // last-ulp differences of tied-y sums. The serve layer's bit-identity
  // contract (pieces arrive sorted there, in file order in the one-shot
  // fast path) rests on this.
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    uint64_t ka = DoubleOrderKey(a.y), kb = DoubleOrderKey(b.y);
    if (ka != kb) return ka < kb;
    ka = DoubleOrderKey(a.x_lo), kb = DoubleOrderKey(b.x_lo);
    if (ka != kb) return ka < kb;
    ka = DoubleOrderKey(a.x_hi), kb = DoubleOrderKey(b.x_hi);
    if (ka != kb) return ka < kb;
    return DoubleOrderKey(a.w) < DoubleOrderKey(b.w);
  });

  out.reserve(events.size());  // at most one tuple per event
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
    out.push_back(SlabTuple{y, xs[run.first], xs[run.last + 1], run.value});
  }
  return out;
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

// MergeSweep (Algorithm 1): merges the tuple streams of m child slabs and
// the spanning-rectangle file of the parent into the parent's tuple stream,
// in one synchronized bottom-to-top sweep costing O(K/B) I/Os (Lemma 3).
// The sweep reads each child once, in order, and emits each output tuple
// once, so neither side has to be a file: the recursion's inner levels
// merge slab-files into a slab-file, while a root merge reads in-memory
// channels and feeds the answer tracker directly.
//
// State per child i: the base sum and max-interval from its latest tuple,
// plus upSum[i] — the total weight of spanning rectangles currently covering
// child i. A tuple is emitted at *every* event y (child tuples and spanning
// bottoms/tops), carrying the best eff[i] = base[i] + upSum[i]; tied
// max-intervals of adjacent children that touch at the boundary are merged
// into one extended interval (GetMaxInterval).
//
// CPU cost is O(K log m) for K tuples over m children, plus one upSum update
// per child a span covers: a tournament over the child heads yields each
// next event y, and a second one over eff[i] yields the best child (ties to
// the lower index, as a left-to-right scan with a strict comparison picks),
// so an event touches only the children it updates plus O(log m)
// tournament nodes.
//
// Spanning tops need no separate sort: pieces are never clipped in y, so all
// spans share the original rectangle height d2 and the y_lo-sorted span file
// is also y_hi-sorted — a second sequential reader delivers top events.
// That is why the spans stay a file: two sequential readers keep the sweep
// at O(m) blocks of memory, where a single stream would need a FIFO of
// every span still active.
#ifndef MAXRS_CORE_MERGE_SWEEP_H_
#define MAXRS_CORE_MERGE_SWEEP_H_

#include <string>
#include <vector>

#include "core/plane_sweep.h"
#include "core/records.h"
#include "io/env.h"
#include "io/record_stream.h"
#include "util/cancel.h"
#include "util/status.h"

namespace maxrs {

/// Merges `children[i]` — the y-ascending tuple stream of the child slab
/// `child_ranges[i]` — plus the spanning file into `output`, the tuple
/// stream of the union slab. `child_ranges` must be adjacent ascending
/// half-open slabs; `span_file` holds the y_lo-sorted records of
/// rectangles spanning whole children (child indices into `child_ranges`).
/// An empty span file is valid. The objective must match the one the child
/// streams were built with.
///
/// A null child is *known-empty*: it costs nothing and sweeps exactly like
/// an empty stream (base 0, interval = its range), keeping the
/// adjacent-ranges contract (and span child indices) intact for a caller
/// that has no stream for some child.
///
/// Every child is read at most once, front to back, and `output` receives
/// each tuple exactly once, in y order; `output` is not closed (its owner
/// closes it with the final status). A non-null `cancel` token is polled
/// once per sweep event; an expired token aborts the merge with
/// kDeadlineExceeded.
Status MergeSweep(Env& env, const std::vector<Interval>& child_ranges,
                  const std::vector<RecordSource<SlabTuple>*>& children,
                  const std::string& span_file, RecordSink<SlabTuple>* output,
                  SweepObjective objective = SweepObjective::kMaximize,
                  const CancelToken* cancel = nullptr);

}  // namespace maxrs

#endif  // MAXRS_CORE_MERGE_SWEEP_H_

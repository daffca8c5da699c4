// ExactMaxRS (Algorithm 2): the paper's primary contribution — the first
// external-memory algorithm for the MaxRS problem, optimal at
// O((N/B) log_{M/B}(N/B)) I/Os under the EM comparison model (Theorem 2).
//
// Pipeline (Sec. 5):
//   1. Transform each object o into the d1 x d2 rectangle centered at o
//      carrying weight w(o); MaxRS becomes finding the max-region of the
//      rectangle set (Sec. 4, Def. 5).
//   2. External-sort the rectangle file by y and the vertical-edge
//      x-coordinates by x (the two up-front sorts of Theorem 2).
//   3. Stream the y-sorted rectangles into the recursion: a slab that fits
//      in memory is solved there (plane_sweep.h); a larger one divides into
//      m = Theta(M/B) sub-slabs of roughly equal edge count, routing its
//      pieces into one channel per child and separating spanning parts
//      (division.h), then solves the sub-slabs (concurrently on a pool) and
//      merges their slab-files (merge_sweep.h). Each non-empty child's
//      pieces pass through exactly one spill file.
//   4. Feed the root sweep's tuples straight to a tracker of the maximum
//      sum (no root slab-file): its stratum is the max-region; any interior
//      point is an optimal location.
//
// This header is the public entry point of the library for MaxRS.
#ifndef MAXRS_CORE_EXACT_MAXRS_H_
#define MAXRS_CORE_EXACT_MAXRS_H_

#include <functional>
#include <string>
#include <vector>

#include "core/plane_sweep.h"
#include "core/records.h"
#include "geom/geometry.h"
#include "io/env.h"
#include "io/io_stats.h"
#include "io/record_stream.h"
#include "io/temp_manager.h"
#include "util/cancel.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace maxrs {

/// Tuning knobs of one ExactMaxRS run (paper defaults in bench_common.h).
struct MaxRSOptions {
  /// Query rectangle size (paper: d1 x d2).
  double rect_width = 1000.0;
  double rect_height = 1000.0;

  /// Memory budget M in bytes. Governs the fan-out m = Theta(M/B), the
  /// external-sort fan-in, and the in-memory base-case threshold.
  size_t memory_bytes = 1 << 20;

  /// Fan-out override for tests; 0 derives max(2, M/B - 2).
  size_t fanout = 0;

  /// Base-case threshold override (#pieces) for tests; 0 derives M/|piece|.
  uint64_t base_case_max_pieces = 0;

  /// Namespace prefix for scratch files inside the Env.
  std::string work_prefix = "maxrs_work";

  /// Worker threads for the parallel execution engine. <= 1 runs the exact
  /// serial code path (no pool is created). With T > 1 threads the two
  /// up-front external sorts, the run formation / merge groups inside each
  /// sort, and the independent child sub-slabs of every recursion node
  /// execute concurrently; MergeSweep stays serial per node (O(K/B) I/Os
  /// and O(K log m) CPU for K tuples over m children). Results are
  /// bit-identical for any value, and the reported I/O counts at 1 thread
  /// match the serial engine exactly. Transient memory peaks at ~2 x T x
  /// memory_bytes during the up-front-sort phase (two concurrent sorts,
  /// each buffering a wave of T run chunks of ~memory_bytes).
  size_t num_threads = 1;

  /// kMaximize is the paper's MaxRS. kMinimize runs the MinRS extension's
  /// min-objective sweep with placements restricted to the dataset bounding
  /// box (unrestricted MinRS is trivially 0 in empty space); use RunMinRS
  /// from core/extensions.h rather than setting this directly.
  SweepObjective objective = SweepObjective::kMaximize;

  /// Optional cooperative cancellation (util/cancel.h), not owned; must
  /// outlive the run. Polled at every recursion-node entry, routing loop,
  /// and MergeSweep record loop: an expired token aborts the run with a
  /// clean kDeadlineExceeded through the ordinary error paths (scratch
  /// files released, channels closed). Null = never cancelled.
  const CancelToken* cancel = nullptr;
};

/// Execution statistics of one ExactMaxRS run.
struct MaxRSStats {
  uint64_t input_objects = 0;
  uint64_t recursion_levels = 0;  ///< Depth of the deepest recursion node.
  uint64_t base_cases = 0;        ///< In-memory PlaneSweep invocations.
  uint64_t merges = 0;            ///< MergeSweep invocations.
  uint64_t total_spans = 0;       ///< Spanning records produced overall.
  IoStatsSnapshot io;             ///< Block transfers attributed to this run.
  double wall_seconds = 0.0;
  /// Placement domain used: infinite for MaxRS, the dataset bounding box for
  /// the min objective.
  Rect domain{-kInf, kInf, -kInf, kInf};
};

/// The answer to a MaxRS query.
struct MaxRSResult {
  /// An optimal location (any point of the max-region; we return its center).
  Point location;
  /// The maximum range sum: total weight covered by the rectangle at
  /// `location` (Def. 1).
  double total_weight = 0.0;
  /// The max-region: every point in it is an optimal location (Def. 4).
  Rect region;
  MaxRSStats stats;
};

/// Validates `options` against an Env's block size without running
/// anything: the same checks every Run* entry point performs first
/// (positive finite rect, budget of at least 4 blocks, fanout and thread
/// bounds). Lets long-lived callers (the serve layer) reject a bad
/// configuration at construction time instead of paying a full derivation
/// pass per doomed query.
Status ValidateMaxRSOptions(const MaxRSOptions& options, size_t block_size);

/// Runs ExactMaxRS against a dataset stored as a record file of
/// SpatialObject in `env`. This is the scalable external-memory entry point.
Result<MaxRSResult> RunExactMaxRS(Env& env, const std::string& object_file,
                                  const MaxRSOptions& options);

/// Convenience wrapper: stages `objects` into a scratch file in `env`, runs
/// the external algorithm, and cleans up.
Result<MaxRSResult> RunExactMaxRS(Env& env,
                                  const std::vector<SpatialObject>& objects,
                                  const MaxRSOptions& options);

/// Pure in-memory variant (no Env, no I/O): transform + PlaneSweep over the
/// whole plane. Suitable when the dataset fits in memory; used as the
/// recursion base case internally.
MaxRSResult ExactMaxRSInMemory(const std::vector<SpatialObject>& objects,
                               double rect_width, double rect_height);

/// One optimal (or k-th best) placement region; see extensions.h for the
/// MaxkRS / MinRS entry points built on top of these.
struct RankedRegion {
  Point location;
  double total_weight = 0.0;
  Rect region;
};

namespace core_internal {

/// Lazily produces the x-sorted edge file of a slab being stream-solved.
/// Invoked at most once, and only if the slab overflows the in-memory base
/// case (a base-case slab needs no edges at all). The file it names stays
/// its creator's to release (see `release_input` below).
using EdgeFileProvider = std::function<Result<std::string>()>;

/// The one ExactMaxRS recursion: solves the slab `x_range` from a *stream*
/// of its y-sorted pieces (all within `x_range`), so a caller's routing
/// pass and this solve can overlap. The solver buffers up to the base-case
/// threshold; if the stream ends within it the slab is solved in memory
/// with no division I/O at all, otherwise `edge_provider` supplies the edge
/// file and the node divides (DividePieces, core/division.h), routing its
/// pieces into one channel per child. Each child channel keeps up to
/// `channel_bytes` in memory and spills the rest to one scratch file
/// (RecordChannel): 0 is the paper's external schedule, which one-shot
/// runs. Once a node has routed (or buffered) all of its input it calls
/// `release_input`, so the caller can drop the piece source's storage and
/// the edge file before any child solves; on an error path it may not have
/// been called. The children of a node solve concurrently on `pool`, or in
/// order when it is null; each child's tuples reach its parent's MergeSweep
/// through one slab-file. Appends the slab's tuples to `out` (not closed
/// here): a base case appends PlaneSweep's tuples minus each one whose
/// (x_lo, x_hi, sum) bits repeat its predecessor's; a MergeSweep appends one
/// tuple per event y. Results, stats counters and block counts do not
/// depend on the pool. `options` is validated.
Status SolveSlabStream(Env& env, TempFileManager& temps,
                       RecordSource<PieceRecord>* pieces,
                       const EdgeFileProvider& edge_provider,
                       const std::function<void()>& release_input,
                       const Interval& x_range, const MaxRSOptions& options,
                       size_t channel_bytes, ThreadPool* pool,
                       MaxRSStats* stats, RecordSink<SlabTuple>* out);

/// Streams the tuples of the *root* slab (y-ascending) produced by a full
/// ExactMaxRS pipeline run to `visit`, straight from the root sweep — no
/// root slab-file is written or scanned. This is the shared engine under
/// RunExactMaxRS, RunTopKMaxRS and RunMinRS: the tuple stream contains, for
/// every y-stratum, the max-interval of the whole plane — enough to answer
/// any "best placements" question without re-running the sweep.
Status VisitRootTuples(Env& env, const std::string& object_file,
                       const MaxRSOptions& options, MaxRSStats* stats,
                       const std::function<void(const SlabTuple&)>& visit);

/// Streaming tracker of the k best strata (by sum). Feed tuples in y order
/// via Visit(); Finish() returns regions sorted by descending weight.
class TopTupleTracker {
 public:
  /// Tracks the `k` best strata (k == 0 behaves as 1).
  explicit TopTupleTracker(size_t k) : k_(k == 0 ? 1 : k) {}

  /// Feeds the next tuple; must be called in ascending y order. Consecutive
  /// tuples with identical (sum, x-interval) are one stratum split by sweep
  /// events that did not change the max-interval — they are coalesced into
  /// a single run, so the reported region's y-extent depends only on where
  /// the max-interval actually changes, not on how many events subdivided
  /// it. This is what lets the tuple streams differ in their repeats and
  /// still give one answer: the base case forwards only tuples that differ
  /// from their predecessor, so a MergeSweep above it emits fewer repeats
  /// than PlaneSweep over the same pieces. That can merge such splits but
  /// never move a run's boundaries.
  void Visit(const SlabTuple& t);
  /// Closes the stream and returns the k best regions, best first.
  std::vector<RankedRegion> Finish();

 private:
  struct Entry {
    SlabTuple tuple;
    double y_next;
  };

  void Offer(const SlabTuple& t, double y_next);
  static bool SumGreater(const Entry& a, const Entry& b);

  size_t k_;
  std::vector<Entry> heap_;  // min-heap on sum (k best retained)
  SlabTuple pending_{};
  bool have_pending_ = false;
};

/// A tuple sink that hands every tuple to a visitor: how a root sweep
/// feeds an answer tracker with no file in between.
class VisitingSink final : public RecordSink<SlabTuple> {
 public:
  /// Sinks into `visit`, called once per tuple in append order.
  explicit VisitingSink(std::function<void(const SlabTuple&)> visit)
      : visit_(std::move(visit)) {}

  /// Visits `t`; never fails.
  Status Append(const SlabTuple& t) override {
    visit_(t);
    return Status::OK();
  }
  /// Nothing to flush: returns `status` unchanged.
  Status Close(const Status& status) override { return status; }

 private:
  std::function<void(const SlabTuple&)> visit_;
};

/// Finishes `tracker` and returns its best region as a MaxRSResult (stats
/// left default); no tuple at all yields weight 0 over the whole plane.
MaxRSResult BestResult(TopTupleTracker& tracker);

}  // namespace core_internal

}  // namespace maxrs

#endif  // MAXRS_CORE_EXACT_MAXRS_H_

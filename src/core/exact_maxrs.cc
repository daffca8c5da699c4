#include "core/exact_maxrs.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <optional>

#include "core/division.h"
#include "core/merge_sweep.h"
#include "core/plane_sweep.h"
#include "io/external_sort.h"
#include "io/record_io.h"
#include "io/record_stream.h"
#include "io/temp_manager.h"
#include "util/check.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace maxrs {
namespace {

// Upper bound on num_threads: a request beyond this is a unit mix-up (e.g.
// bytes passed as threads), not a real machine.
constexpr size_t kMaxThreads = 1024;

Status ValidateOptions(const MaxRSOptions& options, size_t block_size) {
  if (!std::isfinite(options.rect_width) ||
      !std::isfinite(options.rect_height) || !(options.rect_width > 0.0) ||
      !(options.rect_height > 0.0)) {
    return Status::InvalidArgument(
        "rectangle dimensions must be positive and finite");
  }
  if (options.memory_bytes < 4 * block_size) {
    return Status::InvalidArgument("memory budget must be at least 4 blocks");
  }
  if (options.fanout == 1) {
    return Status::InvalidArgument("fanout must be 0 (derive) or at least 2");
  }
  // Each division child needs one block of output buffer, so a fan-out
  // beyond M/B can never run within the memory budget.
  if (options.fanout > options.memory_bytes / block_size) {
    return Status::InvalidArgument(
        "fanout exceeds the block budget M/B; lower it or raise memory_bytes");
  }
  if (options.num_threads > kMaxThreads) {
    return Status::InvalidArgument("num_threads must be at most 1024");
  }
  return Status::OK();
}

// Base-case threshold (#pieces) shared by the recursion driver and the
// top-level small-input fast path.
uint64_t DeriveBaseCaseMax(const MaxRSOptions& options) {
  return options.base_case_max_pieces != 0
             ? options.base_case_max_pieces
             : std::max<uint64_t>(2, options.memory_bytes / sizeof(PieceRecord));
}

double FiniteMid(double lo, double hi) {
  const bool lo_f = std::isfinite(lo);
  const bool hi_f = std::isfinite(hi);
  if (lo_f && hi_f) return (lo + hi) / 2.0;
  if (lo_f) return lo;
  if (hi_f) return hi;
  return 0.0;
}

/// Recursive solver: owns the per-run knobs and statistics. With a pool,
/// sibling sub-slabs solve concurrently — every recursion child owns its
/// own piece channel and scratch files, so the only shared mutable state is
/// the stats block (guarded by stats_mu_) and the thread-safe temp manager.
class Driver {
 public:
  Driver(Env& env, TempFileManager& temps, const MaxRSOptions& options,
         size_t channel_bytes, MaxRSStats* stats, ThreadPool* pool)
      : env_(env), temps_(temps), options_(options),
        channel_bytes_(channel_bytes), stats_(stats), pool_(pool) {
    const size_t blocks = options.memory_bytes / env.block_size();
    fanout_ = options.fanout != 0
                  ? options.fanout
                  : std::max<size_t>(2, blocks > 2 ? blocks - 2 : 2);
    base_max_ = DeriveBaseCaseMax(options);
  }

  /// Solves the slab from a stream of its y-sorted pieces and appends the
  /// slab's tuples to `out` (not closed here). Buffers up to the base-case
  /// threshold; a stream that ends within it is solved in memory with no
  /// division (or edge) I/O at all. Otherwise the node divides: it routes
  /// its pieces into one channel per child and its edges into one file per
  /// child, calls `release_input` (it no longer needs `source` or the edge
  /// file), and only then solves the children — concurrently on the pool,
  /// in order without one — and MergeSweeps their slab-files.
  Status StreamSolve(RecordSource<PieceRecord>* source,
                     const core_internal::EdgeFileProvider& edge_provider,
                     const std::function<void()>& release_input,
                     const Interval& slab, uint64_t depth,
                     RecordSink<SlabTuple>* out) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_->recursion_levels = std::max(stats_->recursion_levels, depth);
    }
    // Node-entry deadline poll: a cancelled query unwinds through the
    // ordinary error paths, so channels close and scratch files release.
    MAXRS_RETURN_IF_ERROR(CheckCancel(options_.cancel));
    std::vector<PieceRecord> buffer;
    bool overflow = false;
    {
      PieceRecord p{};
      while (true) {
        Status st = source->Read(&p);
        if (st.code() == Status::Code::kNotFound) break;
        MAXRS_RETURN_IF_ERROR(st);
        buffer.push_back(p);
        if (buffer.size() > base_max_) {
          overflow = true;
          break;
        }
      }
    }
    if (!overflow) {
      release_input();
      return StreamBaseCase(std::move(buffer), slab, out);
    }

    // Overflow: the node divides. Only now is the edge file needed.
    MAXRS_ASSIGN_OR_RETURN(std::string edge_file, edge_provider());
    PrependedSource<PieceRecord> pieces(std::move(buffer), source);
    const std::string span_file = temps_.NewName("spans");
    uint64_t num_spans = 0;
    auto children_or =
        DividePieces(temps_, &pieces, edge_file, slab, fanout_, channel_bytes_,
                     span_file, &num_spans, options_.cancel);
    if (children_or.status().code() == Status::Code::kInvalidArgument) {
      // Degenerate (all edges share one x): the slab cannot be split, so
      // drain the stream into the in-memory base case regardless of size.
      std::vector<PieceRecord> all;
      PieceRecord p{};
      while (pieces.Next(&p)) all.push_back(p);
      MAXRS_RETURN_IF_ERROR(pieces.final_status());
      release_input();
      return StreamBaseCase(std::move(all), slab, out);
    }
    release_input();
    if (!children_or.ok()) {
      temps_.Release(span_file);
      return children_or.status();
    }
    std::vector<ChildSlab> children = std::move(children_or).value();

    // The children are independent until MergeSweep combines their
    // slab-files: each reads its own closed channel and edge file and
    // writes its slab-file into a pre-sized slot, so solving them
    // concurrently changes nothing about the result. MergeSweep itself
    // stays serial per node (one ordered sweep over all children: O(K/B)
    // I/Os and O(K log m) CPU for K tuples).
    std::vector<std::string> child_slab_files(children.size());
    Status st = ParallelFor(pool_, 0, children.size(), [&](size_t k) -> Status {
      ChildSlab& child = children[k];
      const core_internal::EdgeFileProvider provider =
          [&child]() -> Result<std::string> { return {child.edge_file}; };
      const std::function<void()> release = [this, &child] {
        child.pieces.reset();
        temps_.Release(child.edge_file);
      };
      MAXRS_ASSIGN_OR_RETURN(
          child_slab_files[k],
          SolveToFile([&](RecordSink<SlabTuple>* sink) {
            return StreamSolve(child.pieces.get(), provider, release,
                               child.x_range, depth + 1, sink);
          }));
      return Status::OK();
    });
    if (!st.ok()) {
      // A child that failed, or never ran, has not released its edge file.
      for (const ChildSlab& child : children) temps_.Release(child.edge_file);
      for (const std::string& f : child_slab_files) temps_.Release(f);
      temps_.Release(span_file);
      return st;
    }

    std::vector<Interval> ranges;
    ranges.reserve(children.size());
    for (const ChildSlab& child : children) ranges.push_back(child.x_range);
    MAXRS_RETURN_IF_ERROR(
        MergeChildFiles(ranges, child_slab_files, span_file, num_spans, out));
    temps_.Release(span_file);
    return Status::OK();
  }

 private:
  /// In-memory base case over an already-buffered piece vector: the stream
  /// ended (or could not be split) within the memory budget, so no piece or
  /// edge file is ever materialized for this node. Forwards only the tuples
  /// whose (x_lo, x_hi, sum) bits differ from the last one forwarded: a
  /// slab-file tuple holds until the next one (core/records.h), so a repeat
  /// carries nothing. A parent MergeSweep then sees every one of its input
  /// states unchanged at the dropped y, so its own tuple there would only
  /// have repeated its predecessor, which the answer trackers coalesce.
  Status StreamBaseCase(std::vector<PieceRecord> pieces, const Interval& slab,
                        RecordSink<SlabTuple>* out) {
    bool any = false;
    SlabTuple last{};
    MAXRS_RETURN_IF_ERROR(VisitPlaneSweep(
        pieces, slab, options_.objective, [&](const SlabTuple& t) {
          if (any && SameBits(t.x_lo, last.x_lo) &&
              SameBits(t.x_hi, last.x_hi) && SameBits(t.sum, last.sum)) {
            return Status::OK();
          }
          any = true;
          last = t;
          return out->Append(t);
        }));
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_->base_cases;
    return Status::OK();
  }

  /// Runs `solve` into a fresh slab-file and returns its name: how an inner
  /// recursion node hands its tuples to its parent's MergeSweep, at the
  /// paper's cost. The file is released if the solve fails.
  Result<std::string> SolveToFile(
      const std::function<Status(RecordSink<SlabTuple>*)>& solve) {
    std::string name = temps_.NewName("slab");
    Status st = [&]() -> Status {
      MAXRS_ASSIGN_OR_RETURN(FileRecordSink<SlabTuple> sink,
                             FileRecordSink<SlabTuple>::Make(env_, name));
      return sink.Close(solve(&sink));
    }();
    if (!st.ok()) {
      temps_.Release(name);
      return {st};
    }
    return {std::move(name)};
  }

  /// MergeSweep of the children's slab-files into `out`, releasing them
  /// once merged, and the node's merge statistics.
  Status MergeChildFiles(const std::vector<Interval>& ranges,
                         const std::vector<std::string>& child_slab_files,
                         const std::string& span_file, uint64_t num_spans,
                         RecordSink<SlabTuple>* out) {
    Status st = [&]() -> Status {
      std::vector<FileRecordSource<SlabTuple>> files;
      std::vector<RecordSource<SlabTuple>*> children;
      files.reserve(child_slab_files.size());
      for (const std::string& name : child_slab_files) {
        MAXRS_ASSIGN_OR_RETURN(FileRecordSource<SlabTuple> file,
                               FileRecordSource<SlabTuple>::Make(env_, name));
        files.push_back(std::move(file));
        children.push_back(&files.back());
      }
      return MergeSweep(env_, ranges, children, span_file, out,
                        options_.objective, options_.cancel);
    }();
    for (const std::string& f : child_slab_files) temps_.Release(f);
    MAXRS_RETURN_IF_ERROR(st);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_->merges;
    stats_->total_spans += num_spans;
    return Status::OK();
  }

  Env& env_;
  TempFileManager& temps_;
  MaxRSOptions options_;
  size_t channel_bytes_;
  MaxRSStats* stats_;
  ThreadPool* pool_;
  std::mutex stats_mu_;
  size_t fanout_ = 2;
  uint64_t base_max_ = 2;
};

}  // namespace

Status ValidateMaxRSOptions(const MaxRSOptions& options, size_t block_size) {
  return ValidateOptions(options, block_size);
}

namespace core_internal {

Status SolveSlabStream(Env& env, TempFileManager& temps,
                       RecordSource<PieceRecord>* pieces,
                       const EdgeFileProvider& edge_provider,
                       const std::function<void()>& release_input,
                       const Interval& x_range, const MaxRSOptions& options,
                       size_t channel_bytes, ThreadPool* pool,
                       MaxRSStats* stats, RecordSink<SlabTuple>* out) {
  MAXRS_RETURN_IF_ERROR(ValidateOptions(options, env.block_size()));
  Driver driver(env, temps, options, channel_bytes, stats, pool);
  return driver.StreamSolve(pieces, edge_provider, release_input, x_range,
                            /*depth=*/0, out);
}

void TopTupleTracker::Visit(const SlabTuple& t) {
  if (have_pending_ && t.sum == pending_.sum && t.x_lo == pending_.x_lo &&
      t.x_hi == pending_.x_hi) {
    // Same stratum continues: the event at t.y changed something elsewhere
    // in the slab but not the max-interval. Keep the pending run open so
    // its y-extent ends where the max-interval next *changes*.
    return;
  }
  if (have_pending_) Offer(pending_, t.y);
  pending_ = t;
  have_pending_ = true;
}

void TopTupleTracker::Offer(const SlabTuple& t, double y_next) {
  if (heap_.size() < k_) {
    heap_.push_back({t, y_next});
    std::push_heap(heap_.begin(), heap_.end(), &TopTupleTracker::SumGreater);
    return;
  }
  if (!heap_.empty() && t.sum > heap_.front().tuple.sum) {
    std::pop_heap(heap_.begin(), heap_.end(), &TopTupleTracker::SumGreater);
    heap_.back() = {t, y_next};
    std::push_heap(heap_.begin(), heap_.end(), &TopTupleTracker::SumGreater);
  }
}

std::vector<RankedRegion> TopTupleTracker::Finish() {
  if (have_pending_) {
    Offer(pending_, kInf);
    have_pending_ = false;
  }
  std::sort(heap_.begin(), heap_.end(),
            [](const Entry& a, const Entry& b) { return a.tuple.sum > b.tuple.sum; });
  std::vector<RankedRegion> out;
  out.reserve(heap_.size());
  for (const Entry& e : heap_) {
    RankedRegion region;
    region.total_weight = e.tuple.sum;
    region.region = Rect{e.tuple.x_lo, e.tuple.x_hi, e.tuple.y, e.y_next};
    region.location = {FiniteMid(e.tuple.x_lo, e.tuple.x_hi),
                       FiniteMid(e.tuple.y, e.y_next)};
    out.push_back(region);
  }
  heap_.clear();
  return out;
}

bool TopTupleTracker::SumGreater(const Entry& a, const Entry& b) {
  return a.tuple.sum > b.tuple.sum;
}

MaxRSResult BestResult(TopTupleTracker& tracker) {
  MaxRSResult result;
  const std::vector<RankedRegion> best = tracker.Finish();
  if (best.empty()) {
    result.region = Rect{-kInf, kInf, -kInf, kInf};
    return result;
  }
  result.location = best[0].location;
  result.total_weight = best[0].total_weight;
  result.region = best[0].region;
  return result;
}

Status VisitRootTuples(Env& env, const std::string& object_file,
                       const MaxRSOptions& options, MaxRSStats* stats,
                       const std::function<void(const SlabTuple&)>& visit) {
  MAXRS_RETURN_IF_ERROR(ValidateOptions(options, env.block_size()));
  // The pool (if any) lives for the whole run and is threaded through the
  // sorts and the recursion; num_threads <= 1 keeps the serial code path.
  std::unique_ptr<ThreadPool> pool;
  if (options.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(options.num_threads);
  }
  const bool minimize = options.objective == SweepObjective::kMinimize;

  MAXRS_ASSIGN_OR_RETURN(RecordReader<SpatialObject> objects,
                         RecordReader<SpatialObject>::Make(env, object_file));
  const uint64_t n = objects.total();
  stats->input_objects = n;

  // The min objective restricts placements to the dataset bounding box
  // (unrestricted, the minimum is trivially 0 anywhere in empty space).
  // This needs one extra counted scan to find the box.
  Interval root_slab{-kInf, kInf};
  if (minimize) {
    MAXRS_ASSIGN_OR_RETURN(RecordReader<SpatialObject> scan,
                           RecordReader<SpatialObject>::Make(env, object_file));
    Rect box{kInf, -kInf, kInf, -kInf};
    SpatialObject o{};
    bool any = false;
    while (scan.Next(&o)) {
      any = true;
      box.x_lo = std::min(box.x_lo, o.x);
      box.x_hi = std::max(box.x_hi, o.x);
      box.y_lo = std::min(box.y_lo, o.y);
      box.y_hi = std::max(box.y_hi, o.y);
    }
    MAXRS_RETURN_IF_ERROR(scan.final_status());
    if (!any) return Status::OK();  // empty dataset: no tuples
    // Guard degenerate (zero-extent) boxes; the domain is half-open.
    if (box.x_lo == box.x_hi) box.x_hi = box.x_lo + 1.0;
    if (box.y_lo == box.y_hi) box.y_hi = box.y_lo + 1.0;
    stats->domain = box;
    root_slab = Interval{box.x_lo, box.x_hi};
  }

  // Clips a transformed rectangle to the root slab; returns false if it
  // falls entirely outside the placement domain in x.
  auto clip = [&root_slab, minimize](PieceRecord* piece) {
    if (!minimize) return true;
    piece->x_lo = std::max(piece->x_lo, root_slab.lo);
    piece->x_hi = std::min(piece->x_hi, root_slab.hi);
    return piece->x_lo < piece->x_hi;
  };

  if (n <= DeriveBaseCaseMax(options)) {
    // Whole dataset fits in memory: one linear scan + in-memory PlaneSweep
    // (Algorithm 2 line 9 at the top level; no recursion, no extra I/O).
    std::vector<PieceRecord> pieces;
    pieces.reserve(n);
    SpatialObject o{};
    while (objects.Next(&o)) {
      PieceRecord piece =
          TransformObject(o, options.rect_width, options.rect_height);
      if (clip(&piece)) pieces.push_back(piece);
    }
    MAXRS_RETURN_IF_ERROR(objects.final_status());
    MAXRS_RETURN_IF_ERROR(VisitPlaneSweep(pieces, root_slab, options.objective,
                                          [&visit](const SlabTuple& t) {
                                            visit(t);
                                            return Status::OK();
                                          }));
    stats->base_cases += 1;
    return Status::OK();
  }

  TempFileManager temps(env, options.work_prefix);
  Status solved = [&]() -> Status {
    // Transform pass: emit the rectangle (piece) file and the vertical-edge
    // x-coordinate file, both unsorted.
    std::string raw_pieces = temps.NewName("raw_pieces");
    std::string raw_edges = temps.NewName("raw_edges");
    {
      MAXRS_ASSIGN_OR_RETURN(RecordWriter<PieceRecord> piece_writer,
                             RecordWriter<PieceRecord>::Make(env, raw_pieces));
      MAXRS_ASSIGN_OR_RETURN(RecordWriter<EdgeRecord> edge_writer,
                             RecordWriter<EdgeRecord>::Make(env, raw_edges));
      SpatialObject o{};
      while (objects.Next(&o)) {
        PieceRecord piece =
            TransformObject(o, options.rect_width, options.rect_height);
        if (!clip(&piece)) continue;
        MAXRS_RETURN_IF_ERROR(piece_writer.Append(piece));
        MAXRS_RETURN_IF_ERROR(edge_writer.Append(EdgeRecord{piece.x_lo}));
        MAXRS_RETURN_IF_ERROR(edge_writer.Append(EdgeRecord{piece.x_hi}));
      }
      MAXRS_RETURN_IF_ERROR(objects.final_status());
      MAXRS_RETURN_IF_ERROR(piece_writer.Finish());
      MAXRS_RETURN_IF_ERROR(edge_writer.Finish());
    }

    // The two up-front external sorts of Theorem 2. They touch disjoint files,
    // so with a pool they run concurrently (and each parallelizes internally);
    // both comparators are total orders, making the sorted files — and hence
    // everything downstream — canonical for any thread count.
    ExternalSortOptions sort_options{options.memory_bytes, pool.get()};
    std::string sorted_pieces = temps.NewName("pieces");
    std::string sorted_edges = temps.NewName("edges");
    {
      TaskGroup sorts(pool.get());
      sorts.Run([&env, &raw_pieces, &sorted_pieces, &sort_options] {
        return ExternalSort<PieceRecord>(env, raw_pieces, sorted_pieces,
                                         PieceYLess, sort_options);
      });
      sorts.Run([&env, &raw_edges, &sorted_edges, &sort_options] {
        return ExternalSort<EdgeRecord>(env, raw_edges, sorted_edges, EdgeXLess,
                                        sort_options);
      });
      MAXRS_RETURN_IF_ERROR(sorts.Wait());
    }
    temps.Release(raw_pieces);
    temps.Release(raw_edges);

    // The root streams its sorted piece file into the recursion; a child
    // channel cap of 0 passes each non-empty child's pieces through exactly
    // one spill file, the paper's external schedule at the M budget.
    std::optional<FileRecordSource<PieceRecord>> source;
    {
      auto source_or = FileRecordSource<PieceRecord>::Make(env, sorted_pieces);
      MAXRS_RETURN_IF_ERROR(source_or.status());
      source.emplace(std::move(source_or).value());
    }
    const EdgeFileProvider edge_provider =
        [&sorted_edges]() -> Result<std::string> { return {sorted_edges}; };
    // Idempotent: the solver calls it once the root has routed its input, and
    // it runs again here for the error paths that never got that far.
    const std::function<void()> release_input = [&] {
      source.reset();
      temps.Release(sorted_pieces);
      temps.Release(sorted_edges);
    };
    VisitingSink sink(visit);
    Status st = SolveSlabStream(env, temps, &*source, edge_provider,
                                release_input, root_slab, options,
                                /*channel_bytes=*/0, pool.get(), stats, &sink);
    release_input();
    return st;
  }();
  // One sweep on any error covers every scratch file of the run: the raw
  // and sorted piece and edge files, and the recursion's child edge, span
  // and slab files, which all share this manager.
  if (!solved.ok()) temps.ReleaseAll();
  return solved;
}

}  // namespace core_internal

MaxRSResult ExactMaxRSInMemory(const std::vector<SpatialObject>& objects,
                               double rect_width, double rect_height) {
  std::vector<PieceRecord> pieces;
  pieces.reserve(objects.size());
  for (const SpatialObject& o : objects) {
    pieces.push_back(TransformObject(o, rect_width, rect_height));
  }
  core_internal::TopTupleTracker tracker(1);
  const Status swept = VisitPlaneSweep(
      pieces, Interval{-kInf, kInf}, SweepObjective::kMaximize,
      [&tracker](const SlabTuple& t) {
        tracker.Visit(t);
        return Status::OK();
      });
  MAXRS_CHECK(swept.ok());
  MaxRSResult result = core_internal::BestResult(tracker);
  result.stats.input_objects = objects.size();
  result.stats.base_cases = 1;
  return result;
}

Result<MaxRSResult> RunExactMaxRS(Env& env, const std::string& object_file,
                                  const MaxRSOptions& options) {
  Stopwatch timer;
  const IoStatsSnapshot io_before = env.stats().Snapshot();
  MaxRSStats stats;
  core_internal::TopTupleTracker tracker(1);
  MAXRS_RETURN_IF_ERROR(core_internal::VisitRootTuples(
      env, object_file, options, &stats,
      [&tracker](const SlabTuple& t) { tracker.Visit(t); }));

  MaxRSResult result = core_internal::BestResult(tracker);
  stats.io = env.stats().Snapshot() - io_before;
  stats.wall_seconds = timer.ElapsedSeconds();
  result.stats = stats;
  return {std::move(result)};
}

Result<MaxRSResult> RunExactMaxRS(Env& env,
                                  const std::vector<SpatialObject>& objects,
                                  const MaxRSOptions& options) {
  const std::string staging = options.work_prefix + "/dataset_staging";
  MAXRS_RETURN_IF_ERROR(WriteRecordFile(env, staging, objects));
  auto result = RunExactMaxRS(env, staging, options);
  Status st = env.Delete(staging);
  (void)st;
  return result;
}

}  // namespace maxrs

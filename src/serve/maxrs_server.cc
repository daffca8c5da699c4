#include "serve/maxrs_server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <optional>

#include "core/division.h"
#include "core/merge_sweep.h"
#include "core/records.h"
#include "io/record_io.h"
#include "io/record_stream.h"
#include "io/temp_manager.h"
#include "util/stopwatch.h"

namespace maxrs {
namespace {

// ---------------------------------------------------------------------------
// Query execution: the x-slab shards are the top-level division, and each
// query executes off ONE routing pass per source shard: the y-file scan
// transforms every object and routes each clipped piece to the (at most
// two) partially covered shards, plus one SpanRecord for the fully covered
// shards between. Every routed record travels through a RecordChannel
// (io/record_stream.h), and each target solve
// (core_internal::SolveSlabStream) starts the moment the piece channels of
// its column have their first heads — while the routing passes are still
// running. Each target solve emits its shard's tuples into one more
// channel, and once every solve has returned, one cross-shard MergeSweep
// merges those channels straight into the answer tracker: neither a
// shard's tuples nor the root's become a file (unless a slab channel
// spills past its cap). A piece row is a filtered subsequence of the
// y-sorted scan under the query's monotone transform, so what a target
// merges is fixed by the data and the rect alone.
//
// The x-files are read only by a shard that overflows its base case (the
// paper needs a slab's edges only to divide it, Sec. 5), on its solving
// worker: see ShardEdgeSource.
//
// Liveness protocol (record_stream.h, "Threading"): channel producers never
// block and are submitted to the FIFO pool BEFORE the consumers run, so a
// parked consumer always has running producers destined to close its
// channels. Producers are raw pool submissions joined by a latch, NOT
// TaskGroup tasks: a group no-ops queued tasks after its first error, and a
// no-op'd producer would never close its channels, hanging every consumer
// already running.
// ---------------------------------------------------------------------------

// One-shot join latch for the raw producer submissions of one query.
class JoinLatch {
 public:
  explicit JoinLatch(size_t count) : remaining_(count) {}

  void CountDown() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--remaining_ == 0) cv_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return remaining_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t remaining_;
};

// The edges that one shift of the objects (-w/2: left edges, +w/2: right
// edges) lands in target shard t, x-sorted: the shifted x of each kept
// object whose value routes to t (a value at or above the last shard's
// lower bound clamps into it). x -> shard_of(x + shift) is monotone and the
// sources' slabs are disjoint and ascending, so only the sources
// [next_, end_) whose shifted slab ends bracket t can contribute; they are
// read in ascending order, and the stream ends at the first value past t.
// The left and right streams' EdgeXLess merge is the shard's edge file:
// EdgeRecord is one double under a total order, so that file is the same
// bytes however the edges reach it.
class ShardEdgeSource final : public RecordSource<EdgeRecord> {
 public:
  ShardEdgeSource(Env& env, const DatasetHandle& dataset, size_t target,
                  double shift, const ObjectFilter& filter,
                  const CancelToken* cancel)
      : env_(env), dataset_(dataset), target_(target), shift_(shift),
        filter_(filter), cancel_(cancel) {
    for (size_t s = 0; s < dataset.shards().size(); ++s) {
      const Interval& slab = dataset.shards()[s].x_range;
      if (ShardOf(slab.hi + shift) < target) next_ = s + 1;
      if (ShardOf(slab.lo + shift) <= target) end_ = s + 1;
    }
  }

  Status Read(EdgeRecord* out) override {
    while (true) {
      if (!reader_.has_value()) {
        if (next_ >= end_) return Status::NotFound("end of stream");
        MAXRS_ASSIGN_OR_RETURN(RecordReader<SpatialObject> reader,
                               RecordReader<SpatialObject>::Make(
                                   env_, dataset_.shards()[next_++].x_file));
        reader_.emplace(std::move(reader));
      }
      SpatialObject o{};
      Status st = reader_->Read(&o);
      if (st.code() == Status::Code::kNotFound) {
        reader_.reset();
        continue;
      }
      MAXRS_RETURN_IF_ERROR(st);
      MAXRS_RETURN_IF_ERROR(CheckCancel(cancel_));
      const double x = o.x + shift_;
      const size_t shard = ShardOf(x);
      if (shard > target_) {  // every later edge lands further right
        reader_.reset();
        next_ = end_;
        return Status::NotFound("end of stream");
      }
      if (shard == target_ && filter_.Keep(o)) {
        out->x = x;
        return Status::OK();
      }
    }
  }

 private:
  size_t ShardOf(double v) const {
    return std::min(division_internal::IndexOf(dataset_.interior_bounds(), v),
                    dataset_.shards().size() - 1);
  }

  Env& env_;
  const DatasetHandle& dataset_;
  size_t target_;
  double shift_;
  const ObjectFilter& filter_;
  const CancelToken* cancel_;
  size_t next_ = 0;
  size_t end_ = 0;
  std::optional<RecordReader<SpatialObject>> reader_;
};

// All channels of one query: an S x S piece grid, S span channels, and S
// slab channels carrying each target shard's tuples to the combine. The
// grid is producer-major: source s feeds row s, target t drains column t.
// Created eagerly on the query's worker so spill names are allocated in
// one deterministic order; a channel that never receives a record holds no
// buffer and creates no file.
class QueryChannels {
 public:
  QueryChannels(Env& env, TempFileManager& temps, size_t num_shards,
                size_t cap_bytes)
      : num_shards_(num_shards), cap_bytes_(cap_bytes) {
    pieces_.reserve(num_shards * num_shards);
    spans_.reserve(num_shards);
    slabs_.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      const std::string tag = std::to_string(s);
      for (size_t t = 0; t < num_shards; ++t) {
        pieces_.push_back(std::make_unique<RecordChannel<PieceRecord>>(
            env, temps.NewName("chp" + tag + "_" + std::to_string(t)),
            cap_bytes));
      }
      spans_.push_back(std::make_unique<RecordChannel<SpanRecord>>(
          env, temps.NewName("chs" + tag), cap_bytes));
      slabs_.push_back(std::make_unique<RecordChannel<SlabTuple>>(
          env, temps.NewName("cht" + tag), cap_bytes));
    }
  }

  RecordChannel<PieceRecord>* piece(size_t s, size_t t) {
    return pieces_[s * num_shards_ + t].get();
  }
  RecordChannel<SpanRecord>* span(size_t s) { return spans_[s].get(); }

  // The tuples of target shard t. Read only after every solve has
  // returned, so the channel is closed and the read never blocks.
  RecordSource<SlabTuple>* solved_tuples(size_t t) { return slabs_[t].get(); }

  // Phase B for target shard t: merges the piece channels of its column on
  // the fly, in ascending source order (the canonical merge order), and
  // solves the shard via the streaming recursion into its slab channel,
  // which it closes with the solve's final status on every path. The
  // solve's own division channels share the query's cap. Only a shard that
  // overflows its base case runs the edge provider, which merges its left
  // and right ShardEdgeSources into one scratch file (the division's
  // bounds pass reads the edges twice).
  Status SolveTarget(Env& env, TempFileManager& temps,
                     const DatasetHandle& dataset, size_t t,
                     const ObjectFilter& filter, const MaxRSOptions& options,
                     MaxRSStats* stats) {
    std::vector<RecordSource<PieceRecord>*> column;
    for (size_t s = 0; s < num_shards_; ++s) column.push_back(piece(s, t));
    MergingSource<PieceRecord, decltype(&PieceYLess)> pieces(
        std::move(column), &PieceYLess);
    RecordChannel<SlabTuple>* out = slabs_[t].get();

    // Probe the first record: a shard no piece overlaps (fully spanned
    // shards are handled by the cross-shard sweep's upSum) emits no tuples
    // without ever invoking the solver, and leaves its stats block
    // untouched.
    PieceRecord first{};
    Status probe = pieces.Read(&first);
    if (!probe.ok()) {
      const bool empty = probe.code() == Status::Code::kNotFound;
      return out->Close(empty ? Status::OK() : probe);
    }
    PrependedSource<PieceRecord> stream({first}, &pieces);

    std::string edge_file;  // set iff the provider runs
    core_internal::EdgeFileProvider edge_provider =
        [&]() -> Result<std::string> {
      const double half_w = options.rect_width / 2.0;
      ShardEdgeSource left(env, dataset, t, -half_w, filter, options.cancel);
      ShardEdgeSource right(env, dataset, t, half_w, filter, options.cancel);
      MergingSource<EdgeRecord, decltype(&EdgeXLess)> edges({&left, &right},
                                                            &EdgeXLess);
      edge_file = temps.NewName("q_edges");
      MAXRS_ASSIGN_OR_RETURN(RecordWriter<EdgeRecord> writer,
                             RecordWriter<EdgeRecord>::Make(env, edge_file));
      EdgeRecord e{};
      while (edges.Next(&e)) MAXRS_RETURN_IF_ERROR(writer.Append(e));
      MAXRS_RETURN_IF_ERROR(edges.final_status());
      MAXRS_RETURN_IF_ERROR(writer.Finish());
      return {edge_file};
    };
    Status st = core_internal::SolveSlabStream(
        env, temps, &stream, edge_provider, /*release_input=*/[] {},
        dataset.shards()[t].x_range, options, cap_bytes_, /*pool=*/nullptr,
        stats, out);
    // The provider's creator owns the drained edge file (exact_maxrs.h).
    if (!edge_file.empty()) temps.Release(edge_file);
    return out->Close(st);
  }

 private:
  size_t num_shards_;
  size_t cap_bytes_;
  std::vector<std::unique_ptr<RecordChannel<PieceRecord>>> pieces_;
  std::vector<std::unique_ptr<RecordChannel<SpanRecord>>> spans_;
  std::vector<std::unique_ptr<RecordChannel<SlabTuple>>> slabs_;
};

// Phase A for source shard `source`: ONE pass over the shard's y-file
// routes the query's pieces and spans (division.cc pass 3 with the shard
// grid as the cut, shared via division_internal::RoutePiece). The scan
// routes only the objects `filter` keeps, so what is routed is exactly the
// survivor dataset, and counts the dropped ones in
// IoStats::objects_filtered. Every channel of this source's row — S piece
// + 1 span — is closed exactly once on every path: an unclosed channel
// would park its consumer forever. The scan stops with kDeadlineExceeded
// once the query is cancelled or past its deadline.
Status RouteSourceShard(Env& env, QueryChannels& channels,
                        const DatasetHandle& dataset, size_t source,
                        const ObjectFilter& filter,
                        const MaxRSOptions& options) {
  const size_t num_shards = dataset.shards().size();
  Status st = [&]() -> Status {
    const std::string& y_file = dataset.shards()[source].y_file;
    MAXRS_ASSIGN_OR_RETURN(RecordReader<SpatialObject> reader,
                           RecordReader<SpatialObject>::Make(env, y_file));
    auto emit_piece = [&](size_t target, const PieceRecord& piece) {
      return channels.piece(source, target)->Append(piece);
    };
    auto emit_span = [&](const SpanRecord& span) {
      return channels.span(source)->Append(span);
    };
    SpatialObject o{};
    uint64_t filtered = 0;
    while (reader.Next(&o)) {
      MAXRS_RETURN_IF_ERROR(CheckCancel(options.cancel));
      if (!filter.Keep(o)) {
        ++filtered;
        continue;
      }
      const PieceRecord p =
          TransformObject(o, options.rect_width, options.rect_height);
      MAXRS_RETURN_IF_ERROR(division_internal::RoutePiece(
          dataset.interior_bounds(), dataset.slab_ranges(), p, emit_piece,
          emit_span));
    }
    env.stats().RecordObjectsFiltered(filtered);
    return reader.final_status();
  }();
  std::vector<RecordSink<PieceRecord>*> piece_sinks;
  for (size_t t = 0; t < num_shards; ++t) {
    piece_sinks.push_back(channels.piece(source, t));
  }
  st = CloseAllSinks<PieceRecord>(piece_sinks, std::move(st));
  return CloseAllSinks<SpanRecord>({channels.span(source)}, std::move(st));
}

// Phase C, once every solve has returned: drain the span channels of every
// source row (all closed by now — they act as deterministic buffers) into
// one SpanYLess-merged span file, and run the cross-shard MergeSweep over
// every shard range from the shards' slab channels straight into the
// answer tracker. A single-shard dataset has no cross-shard combine: its
// one shard's tuples are the root. Stats fold the per-shard blocks (an
// empty shard's untouched block folds as zeros).
Result<MaxRSResult> CombineShards(Env& env, TempFileManager& temps,
                                  QueryChannels& channels,
                                  const std::vector<Interval>& ranges,
                                  const std::vector<MaxRSStats>& shard_stats,
                                  uint64_t num_objects,
                                  const MaxRSOptions& options) {
  const size_t num_shards = ranges.size();
  uint64_t num_spans = 0;
  core_internal::TopTupleTracker tracker(1);
  core_internal::VisitingSink root(
      [&tracker](const SlabTuple& t) { tracker.Visit(t); });
  std::vector<RecordSource<SlabTuple>*> children(num_shards);
  for (size_t t = 0; t < num_shards; ++t) {
    children[t] = channels.solved_tuples(t);
  }
  if (num_shards == 1) {
    SlabTuple t{};
    while (children[0]->Next(&t)) {
      MAXRS_RETURN_IF_ERROR(CheckCancel(options.cancel));
      tracker.Visit(t);
    }
    MAXRS_RETURN_IF_ERROR(children[0]->final_status());
  } else {
    std::string span_file = temps.NewName("q_spans");
    Status st = [&]() -> Status {
      std::vector<RecordSource<SpanRecord>*> span_sources;
      span_sources.reserve(num_shards);
      for (size_t s = 0; s < num_shards; ++s) {
        span_sources.push_back(channels.span(s));
      }
      MergingSource<SpanRecord, decltype(&SpanYLess)> spans(
          std::move(span_sources), &SpanYLess);
      MAXRS_ASSIGN_OR_RETURN(RecordWriter<SpanRecord> writer,
                             RecordWriter<SpanRecord>::Make(env, span_file));
      SpanRecord span{};
      while (spans.Next(&span)) {
        MAXRS_RETURN_IF_ERROR(CheckCancel(options.cancel));
        MAXRS_RETURN_IF_ERROR(writer.Append(span));
      }
      MAXRS_RETURN_IF_ERROR(spans.final_status());
      MAXRS_RETURN_IF_ERROR(writer.Finish());
      num_spans = writer.count();
      return MergeSweep(env, ranges, children, span_file, &root,
                        SweepObjective::kMaximize, options.cancel);
    }();
    temps.Release(span_file);
    MAXRS_RETURN_IF_ERROR(st);
  }

  MaxRSResult result = core_internal::BestResult(tracker);
  result.stats.input_objects = num_objects;
  for (const MaxRSStats& s : shard_stats) {
    result.stats.base_cases += s.base_cases;
    result.stats.merges += s.merges;
    result.stats.total_spans += s.total_spans;
    result.stats.recursion_levels =
        std::max(result.stats.recursion_levels,
                 s.recursion_levels + (num_shards > 1 ? 1 : 0));
  }
  if (num_shards > 1) {
    ++result.stats.merges;  // the cross-shard MergeSweep
    result.stats.total_spans += num_spans;
  }
  return {std::move(result)};
}

}  // namespace

MaxRSServer::MaxRSServer(Env& env, const DatasetHandle& dataset,
                         const MaxRSServerOptions& options)
    : env_(env),
      dataset_(dataset),
      options_(options),
      queue_(options.queue_capacity),
      // Clamped to [1, 1024]: constructors have no Status path, and a
      // worker count beyond that is a unit mix-up, not a real machine
      // (same rationale as the core layer's num_threads validation).
      pool_(std::make_unique<ThreadPool>(std::min<size_t>(
          std::max<size_t>(1, options.num_workers), 1024))) {
  // Reject a bad configuration now (stored; every Submit returns it),
  // rather than paying a full per-shard derivation pass per doomed query
  // before the core validation finally fires.
  config_status_ =
      ValidateMaxRSOptions(MakeQueryOptions(1.0, 1.0), env_.block_size());
  worker_threads_.reserve(pool_->num_threads());
  for (size_t i = 0; i < pool_->num_threads(); ++i) {
    worker_threads_.emplace_back([this] { WorkerLoop(); });
  }
}

MaxRSServer::~MaxRSServer() { Shutdown(); }

void MaxRSServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  queue_.Close();
  for (std::thread& t : worker_threads_) t.join();
}

ServerCounters MaxRSServer::counters() const {
  std::lock_guard<std::mutex> lock(counters_mu_);
  return counters_;
}

MaxRSOptions MaxRSServer::MakeQueryOptions(double width, double height,
                                           const CancelToken* cancel) const {
  MaxRSOptions query_options;
  query_options.rect_width = width;
  query_options.rect_height = height;
  query_options.cancel = cancel;
  query_options.memory_bytes = options_.memory_bytes;
  query_options.fanout = options_.fanout;
  query_options.base_case_max_pieces = options_.base_case_max_pieces;
  query_options.work_prefix = options_.work_prefix;
  // Queries parallelize across workers and across shard subtasks, not
  // inside one slab solve: the serial solve is the deterministic one, and
  // it keeps per-query memory at one M.
  query_options.num_threads = 1;
  return query_options;
}

MaxRSServer::CacheKey MaxRSServer::MakeKey(double width, double height) {
  return CacheKey{CanonicalDimensionBits(width),
                  CanonicalDimensionBits(height)};
}

std::optional<MaxRSResult> MaxRSServer::CacheLookup(const CacheKey& key) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cache_index_.find(key);
  if (it == cache_index_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->second;
}

void MaxRSServer::CacheInsert(const CacheKey& key, const MaxRSResult& result) {
  if (options_.cache_entries == 0) return;
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cache_index_.find(key);
  if (it != cache_index_.end()) {
    // Concurrent duplicate miss: both executions computed the identical
    // (deterministic) result; keep the existing entry, refresh recency.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, result);
  cache_index_[key] = lru_.begin();
  while (lru_.size() > options_.cache_entries) {
    cache_index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

bool MaxRSServer::AdmitKeyToCache(const CacheKey& key) const {
  if (!dataset_.has_bounds()) return true;
  // Reconstruct the canonical dimension values the key stores. Deciding on
  // these — never on a caller's raw doubles — makes admission a pure
  // function of the cache key: -0.0 has already been folded to +0.0 and
  // NaN payloads collapsed, so two submissions that share a cache entry
  // can never be admitted differently.
  double width = 0.0, height = 0.0;
  std::memcpy(&width, &key.width_bits, sizeof(width));
  std::memcpy(&height, &key.height_bits, sizeof(height));
  const double extent_w = dataset_.bounds().width();
  const double extent_h = dataset_.bounds().height();
  if (!(extent_w > 0.0) || !(extent_h > 0.0)) return true;  // degenerate box
  const double covered = (std::min(width, extent_w) / extent_w) *
                         (std::min(height, extent_h) / extent_h);
  return covered <= options_.cache_max_extent_fraction;
}

bool MaxRSServer::AdmitsToCache(double width, double height) const {
  return AdmitKeyToCache(MakeKey(width, height));
}

Status MaxRSServer::ValidateSpec(const QuerySpec& spec) {
  if (!std::isfinite(spec.width) || !std::isfinite(spec.height) ||
      !(spec.width > 0.0) || !(spec.height > 0.0)) {
    return Status::InvalidArgument(
        "rectangle dimensions must be positive and finite");
  }
  if (spec.deadline_ms.has_value() && *spec.deadline_ms < 0) {
    return Status::InvalidArgument(
        "deadline_ms override must be non-negative (0 disables)");
  }
  return Status::OK();
}

QueryResponse MaxRSServer::MakeResponse(MaxRSResult result, ServedFrom served) {
  QueryResponse response;
  if (served == ServedFrom::kExecuted) response.io = result.stats.io;
  response.served_from = served;
  response.result = std::move(result);
  return response;
}

namespace {
// An already-completed future — the zero-thread path for validation
// errors, cache hits, and refused admissions.
std::future<Result<QueryResponse>> ReadyFuture(Result<QueryResponse> value) {
  std::promise<Result<QueryResponse>> promise;
  std::future<Result<QueryResponse>> future = promise.get_future();
  promise.set_value(std::move(value));
  return future;
}
}  // namespace

std::future<Result<QueryResponse>> MaxRSServer::SubmitInternal(
    const QuerySpec& spec, bool* dedup, int64_t* deadline_ms) {
  *dedup = false;
  *deadline_ms = spec.deadline_ms.value_or(options_.deadline_ms);
  const Status valid = ValidateSpec(spec);
  if (!valid.ok()) return ReadyFuture(valid);
  if (!config_status_.ok()) return ReadyFuture(config_status_);
  const CacheKey key = MakeKey(spec.width, spec.height);
  if (std::optional<MaxRSResult> hit = CacheLookup(key)) {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.submitted;
    ++counters_.cache_hits;
    return ReadyFuture(MakeResponse(*std::move(hit), ServedFrom::kCache));
  }

  // In-flight dedup: become a follower of an executing leader, or claim
  // the leader slot. The worker publishes to the cache *before* erasing
  // the pending entry, so a missing entry here means a second cache lookup
  // is authoritative — without it, a duplicate arriving in the gap between
  // the leader's cache insert and promise fulfillment would re-execute.
  std::future<Result<QueryResponse>> future;
  std::shared_ptr<Request> request;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    auto it = pending_.find(key);
    if (it != pending_.end()) {
      // Attach a waiter promise while the entry exists — CompleteRequest
      // moves the list out under this same lock, so the promise cannot be
      // orphaned.
      it->second->waiters.emplace_back();
      future = it->second->waiters.back().get_future();
      *dedup = true;
    } else {
      if (std::optional<MaxRSResult> hit = CacheLookup(key)) {
        std::lock_guard<std::mutex> counters_lock(counters_mu_);
        ++counters_.submitted;
        ++counters_.cache_hits;
        return ReadyFuture(MakeResponse(*std::move(hit), ServedFrom::kCache));
      }
      request = std::make_shared<Request>(
          spec.width, spec.height,
          std::chrono::milliseconds(std::max<int64_t>(0, *deadline_ms)));
      future = request->promise.get_future();
      pending_.emplace(key, request);
    }
  }
  if (request == nullptr) {  // follower: its future completes with the leader
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.submitted;
    ++counters_.dedup_hits;
    return future;
  }

  // Bounded admission: wait at most the admission budget for queue room.
  // Blocking forever would wedge every submitter behind one slow query;
  // past the budget the request is shed with kUnavailable — a retryable
  // signal the caller may back off on. kClosed stays the distinct
  // shutdown status so clients can tell overload from termination.
  const PushResult pushed = queue_.PushFor(
      request, std::chrono::milliseconds(
                   std::max<int64_t>(0, options_.admission_timeout_ms)));
  if (pushed != PushResult::kAccepted) {
    FailRequest(request,
                pushed == PushResult::kClosed
                    ? Status::NotSupported("MaxRSServer is shut down")
                    : Status::Unavailable(
                          "MaxRSServer overloaded: queue full past the "
                          "admission budget"));
    if (pushed == PushResult::kTimedOut) {
      std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.shed;
    }
    return future;
  }
  {
    // submitted and the queue-depth accounting move under one lock
    // acquisition so counters() and queue_depth() snapshots are mutually
    // consistent (queue_depth() never exceeds submitted - executed). A
    // worker that popped this request before we get here only makes
    // queue_depth() under-report transiently — the safe direction.
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.submitted;
    ++queued_enqueued_;
  }
  return future;
}

std::future<Result<QueryResponse>> MaxRSServer::SubmitAsync(
    const QuerySpec& spec) {
  bool dedup = false;
  int64_t deadline_ms = 0;
  return SubmitInternal(spec, &dedup, &deadline_ms);
}

Result<QueryResponse> MaxRSServer::Submit(const QuerySpec& spec) {
  bool dedup = false;
  int64_t deadline_ms = 0;
  std::future<Result<QueryResponse>> future =
      SubmitInternal(spec, &dedup, &deadline_ms);
  if (dedup && deadline_ms > 0) {
    // The follower's own deadline, measured from ITS Submit — never the
    // leader's token, whose clock started earlier (and which must not be
    // cancelled: other callers may still be waiting on it). A leader stuck
    // in a long queue past this follower's budget fails THIS caller with
    // kDeadlineExceeded while the leader runs on undisturbed.
    if (future.wait_for(std::chrono::milliseconds(deadline_ms)) ==
        std::future_status::timeout) {
      {
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.deadlines;
      }
      return Status::DeadlineExceeded(
          "deduplicated query exceeded its deadline waiting on the "
          "in-flight leader");
    }
  }
  return future.get();
}

Result<MaxRSResult> MaxRSServer::Submit(double rect_width, double rect_height) {
  QuerySpec spec;
  spec.width = rect_width;
  spec.height = rect_height;
  MAXRS_ASSIGN_OR_RETURN(QueryResponse response, Submit(spec));
  return {std::move(response.result)};
}

void MaxRSServer::WorkerLoop() {
  std::shared_ptr<Request> request;
  while (queue_.Pop(&request)) {  // false = closed and drained
    {
      std::lock_guard<std::mutex> lock(counters_mu_);
      ++queued_dequeued_;
    }
    Execute(std::move(request));
  }
}

void MaxRSServer::CompleteRequest(const std::shared_ptr<Request>& request,
                                  Result<MaxRSResult> result) {
  const CacheKey key = MakeKey(request->width, request->height);
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.executed;
    if (!result.ok()) {
      ++counters_.failed;
      if (result.status().code() == Status::Code::kDeadlineExceeded) {
        ++counters_.deadlines;
      } else if (result.status().code() == Status::Code::kCorruption) {
        ++counters_.corruptions;
      }
    }
  }
  if (result.ok()) {
    if (AdmitKeyToCache(key)) {
      CacheInsert(key, result.value());
    } else {
      std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.cache_rejects;
    }
  }
  // Publish-then-erase: see SubmitInternal — a duplicate that misses the
  // pending table after this erase must find the result in the cache. The
  // waiter list moves out under the same lock, so no follower can attach
  // after it is drained.
  std::vector<std::promise<Result<QueryResponse>>> waiters;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    waiters = std::move(request->waiters);
    pending_.erase(key);
  }
  for (std::promise<Result<QueryResponse>>& waiter : waiters) {
    waiter.set_value(result.ok()
                         ? Result<QueryResponse>(MakeResponse(
                               result.value(), ServedFrom::kDedup))
                         : Result<QueryResponse>(result.status()));
  }
  request->promise.set_value(
      result.ok() ? Result<QueryResponse>(MakeResponse(std::move(result).value(),
                                                       ServedFrom::kExecuted))
                  : Result<QueryResponse>(result.status()));
}

void MaxRSServer::FailRequest(const std::shared_ptr<Request>& request,
                              const Status& refused) {
  // Collect-then-fail under one pending_mu_ hold: a follower attaching
  // between a promise failure and the erase would wait forever.
  std::vector<std::promise<Result<QueryResponse>>> waiters;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    waiters = std::move(request->waiters);
    pending_.erase(MakeKey(request->width, request->height));
  }
  for (std::promise<Result<QueryResponse>>& waiter : waiters) {
    waiter.set_value(Result<QueryResponse>(refused));
  }
  request->promise.set_value(Result<QueryResponse>(refused));
}

void MaxRSServer::Execute(std::shared_ptr<Request> request) {
  // A request whose deadline elapsed while it queued fails now, before it
  // touches the Env at all.
  const Status expired = CheckCancel(&request->cancel);
  if (!expired.ok()) {
    CompleteRequest(request, expired);
    return;
  }
  Result<MaxRSResult> result = ExecuteQuery(*request);
  if (!result.ok() && result.status().is_retryable()) {
    // Graceful degradation, one shot: a query that failed with a retryable
    // (transient) error — Env retries already exhausted — re-runs once
    // through the same executor before the failure reaches the client; its
    // stats are the rerun's. Terminal errors (kCorruption,
    // kDeadlineExceeded) are never re-run: the rerun would read the same
    // bad bytes or re-exceed the deadline.
    {
      std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.degraded;
    }
    result = ExecuteQuery(*request);
  }
  CompleteRequest(request, std::move(result));
}

Result<MaxRSResult> MaxRSServer::ExecuteQuery(const Request& request) {
  Env& env = env_;
  TempFileManager temps(env, options_.work_prefix);
  const IoStatsSnapshot io_before = env.stats().Snapshot();
  Stopwatch timer;

  const size_t num_shards = dataset_.shards().size();
  const MaxRSOptions query_options =
      MakeQueryOptions(request.width, request.height, &request.cancel);
  // The query's threshold, from the resident probe set (no I/O).
  const ObjectFilter filter(dataset_.density_bound(), request.width,
                            request.height);

  Result<MaxRSResult> result = [&]() -> Result<MaxRSResult> {
    QueryChannels channels(env, temps, num_shards,
                           options_.stream_channel_bytes);
    // Phase A: every source routes once, submitted before any consumer.
    std::vector<Status> producer_status(num_shards);
    JoinLatch routed(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      pool_->Submit([&, s] {
        producer_status[s] = RouteSourceShard(env, channels, dataset_, s,
                                              filter, query_options);
        routed.CountDown();
      });
    }

    // Phase B: every target shard in index order, inline on this worker,
    // each solve consuming its column while the sources still route.
    std::vector<MaxRSStats> shard_stats(num_shards);
    Status solved = Status::OK();
    for (size_t t = 0; t < num_shards && solved.ok(); ++t) {
      solved = channels.SolveTarget(env, temps, dataset_, t, filter,
                                    query_options, &shard_stats[t]);
    }
    // The producers use the channels until they return, so join them
    // first. A solve error stands; otherwise the first failed source's
    // status does.
    routed.Wait();
    for (size_t s = 0; s < num_shards && solved.ok(); ++s) {
      solved = producer_status[s];
    }
    MAXRS_RETURN_IF_ERROR(solved);

    // Phase C.
    return CombineShards(env, temps, channels, dataset_.slab_ranges(),
                         shard_stats, dataset_.num_objects(), query_options);
  }();  // destroys the channels (and any spill files)

  if (!result.ok()) {
    // Sweep every scratch file the query's manager named, so repeated
    // failures cannot grow the Env.
    temps.ReleaseAll();
    return result;
  }
  result.value().stats.io = env.stats().Snapshot() - io_before;
  result.value().stats.wall_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace maxrs

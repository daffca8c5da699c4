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
// query executes off ONE routing pass per source shard. The y-file scan
// transforms every object and routes each clipped piece to the (at most
// two) partially covered shards, plus one SpanRecord for the fully covered
// shards between; the x-file scan emits every object's left (x - w/2) and
// right (x + w/2) edge, routed by value. Every routed record travels
// through a RecordChannel (io/record_stream.h), and each target solve
// (core_internal::SolveSlabStream) starts the moment the piece channels of
// its column have their first heads — while the routing passes are still
// running. Each target solve emits its shard's tuples into one more
// channel, and once every solve has returned, one cross-shard MergeSweep
// merges those channels straight into the answer tracker: neither a
// shard's tuples nor the root's become a file (unless a slab channel
// spills past its cap).
//
// The record streams a target consumer merges are fixed by the data and
// the rect alone: piece rows are filtered subsequences of the y-sorted scan
// under the query's monotone transform, and the two edge half-rows are each
// monotone shifts of the x-sorted scan — their 2S-way EdgeXLess merge is
// one x-sorted edge stream, because EdgeRecord is a single double under a
// total order (cmp-equal => byte-equal, and min-of-heads merging is
// associative).
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

// Phase B for one target shard: merge the piece channels of its column on
// the fly and solve the shard via the streaming recursion, appending its
// tuples to `out`. The edge stream is claimed lazily: only a shard that
// overflows its base case ever drains its edge column (into one scratch
// file, since the division's bounds pass reads the edges twice); a
// base-case shard abandons the column untouched — what those channels
// buffered or spilled is a pure function of the routed records, so block
// counts stay deterministic. Callers pass every source row in ascending
// order (the canonical merge order), with each row's two sorted edge
// half-streams.
Status SolveTargetShardColumns(Env& env, TempFileManager& temps,
                               std::vector<RecordSource<PieceRecord>*>
                                   piece_column,
                               std::vector<RecordSource<EdgeRecord>*>
                                   edge_column,
                               const Interval& slab,
                               const MaxRSOptions& options,
                               size_t channel_bytes, MaxRSStats* stats,
                               RecordSink<SlabTuple>* out) {
  MergingSource<PieceRecord, decltype(&PieceYLess)> pieces(
      std::move(piece_column), &PieceYLess);

  // Probe the first record: a shard no piece overlaps (fully spanned
  // shards are handled by the cross-shard sweep's upSum) emits no tuples
  // without ever invoking the solver, and leaves its stats block untouched.
  PieceRecord first{};
  Status probe = pieces.Read(&first);
  if (probe.code() == Status::Code::kNotFound) return Status::OK();
  MAXRS_RETURN_IF_ERROR(probe);
  PrependedSource<PieceRecord> stream({first}, &pieces);

  std::string edge_file;  // set iff the provider runs (base-case overflow)
  core_internal::EdgeFileProvider edge_provider =
      [&]() -> Result<std::string> {
    MergingSource<EdgeRecord, decltype(&EdgeXLess)> edges(
        std::move(edge_column), &EdgeXLess);
    edge_file = temps.NewName("q_edges");
    MAXRS_ASSIGN_OR_RETURN(RecordWriter<EdgeRecord> writer,
                           RecordWriter<EdgeRecord>::Make(env, edge_file));
    EdgeRecord e{};
    while (edges.Next(&e)) {
      MAXRS_RETURN_IF_ERROR(CheckCancel(options.cancel));
      MAXRS_RETURN_IF_ERROR(writer.Append(e));
    }
    MAXRS_RETURN_IF_ERROR(edges.final_status());
    MAXRS_RETURN_IF_ERROR(writer.Finish());
    return {edge_file};
  };

  Status st = core_internal::SolveSlabStream(
      env, temps, &stream, edge_provider, /*release_input=*/[] {}, slab,
      options, channel_bytes, /*pool=*/nullptr, stats, out);
  // The provider's creator owns the drained edge file (exact_maxrs.h).
  if (!edge_file.empty()) temps.Release(edge_file);
  return st;
}

// All channels of one query: an S x S piece grid, TWO S x S edge grids —
// the x-file scan emits left and right edges into separate channels
// because their interleaving in scan order is not sorted, while each half
// on its own is — S span channels, and S slab channels carrying each target
// shard's tuples to the combine. Grids are producer-major: source s feeds
// row s, target t drains column t. Created eagerly on the query's worker so
// spill names are allocated in one deterministic order; a channel that
// never receives a record holds no buffer and creates no file.
class QueryChannels {
 public:
  QueryChannels(Env& env, TempFileManager& temps, size_t num_shards,
                size_t cap_bytes)
      : num_shards_(num_shards), cap_bytes_(cap_bytes) {
    pieces_.reserve(num_shards * num_shards);
    edges_left_.reserve(num_shards * num_shards);
    edges_right_.reserve(num_shards * num_shards);
    spans_.reserve(num_shards);
    slabs_.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      const std::string tag = std::to_string(s);
      for (size_t t = 0; t < num_shards; ++t) {
        const std::string cell = tag + "_" + std::to_string(t);
        pieces_.push_back(std::make_unique<RecordChannel<PieceRecord>>(
            env, temps.NewName("chp" + cell), cap_bytes));
        edges_left_.push_back(std::make_unique<RecordChannel<EdgeRecord>>(
            env, temps.NewName("chl" + cell), cap_bytes));
        edges_right_.push_back(std::make_unique<RecordChannel<EdgeRecord>>(
            env, temps.NewName("chr" + cell), cap_bytes));
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
  RecordChannel<EdgeRecord>* edge_left(size_t s, size_t t) {
    return edges_left_[s * num_shards_ + t].get();
  }
  RecordChannel<EdgeRecord>* edge_right(size_t s, size_t t) {
    return edges_right_[s * num_shards_ + t].get();
  }
  RecordChannel<SpanRecord>* span(size_t s) { return spans_[s].get(); }

  // The tuples of target shard t. Read only after every solve has
  // returned, so the channel is closed and the read never blocks.
  RecordSource<SlabTuple>* solved_tuples(size_t t) { return slabs_[t].get(); }

  // Solves target shard t from every source row, in ascending order — the
  // canonical merge order — into the shard's slab channel, and closes that
  // channel with the solve's final status on every path. The solve's own
  // division channels share the query's cap.
  Status SolveTarget(Env& env, TempFileManager& temps, size_t t,
                     const Interval& slab, const MaxRSOptions& options,
                     MaxRSStats* stats) {
    std::vector<RecordSource<PieceRecord>*> piece_column;
    std::vector<RecordSource<EdgeRecord>*> edge_column;
    piece_column.reserve(num_shards_);
    edge_column.reserve(2 * num_shards_);
    for (size_t s = 0; s < num_shards_; ++s) {
      piece_column.push_back(piece(s, t));
      edge_column.push_back(edge_left(s, t));
      edge_column.push_back(edge_right(s, t));
    }
    RecordChannel<SlabTuple>* out = slabs_[t].get();
    return out->Close(SolveTargetShardColumns(
        env, temps, std::move(piece_column), std::move(edge_column), slab,
        options, cap_bytes_, stats, out));
  }

 private:
  size_t num_shards_;
  size_t cap_bytes_;
  std::vector<std::unique_ptr<RecordChannel<PieceRecord>>> pieces_;
  std::vector<std::unique_ptr<RecordChannel<EdgeRecord>>> edges_left_;
  std::vector<std::unique_ptr<RecordChannel<EdgeRecord>>> edges_right_;
  std::vector<std::unique_ptr<RecordChannel<SpanRecord>>> spans_;
  std::vector<std::unique_ptr<RecordChannel<SlabTuple>>> slabs_;
};

// Phase A for source shard `source`: ONE pass over the shard's y-file
// routes the query's pieces and spans (division.cc pass 3 with the shard
// grid as the cut, shared via division_internal::RoutePiece), then ONE pass
// over its x-file emits the query's left and right edges into their
// half-row channels. The piece/span pass closes its sinks before the edge
// pass starts, so target solves whose piece streams are complete can probe
// and begin solving while this source still routes edges. Every channel of
// this source's rows — S piece + 2S edge + 1 span — is closed exactly once
// on every path: an unclosed channel would park its consumer forever. Both
// scans stop with kDeadlineExceeded once the query is cancelled or past its
// deadline.
Status RouteSourceShard(Env& env, QueryChannels& channels,
                        const std::vector<ShardInfo>& shards,
                        const std::vector<double>& bounds,
                        const std::vector<Interval>& ranges, size_t source,
                        const MaxRSOptions& options) {
  const size_t num_shards = shards.size();
  auto close_edges = [&](Status st) {
    std::vector<RecordSink<EdgeRecord>*> sinks;
    sinks.reserve(2 * num_shards);
    for (size_t t = 0; t < num_shards; ++t) {
      sinks.push_back(channels.edge_left(source, t));
      sinks.push_back(channels.edge_right(source, t));
    }
    return CloseAllSinks<EdgeRecord>(sinks, std::move(st));
  };

  // Pass 1: the y-file scan.
  Status piece_status = [&]() -> Status {
    MAXRS_ASSIGN_OR_RETURN(
        RecordReader<SpatialObject> reader,
        RecordReader<SpatialObject>::Make(env, shards[source].y_file));
    auto emit_piece = [&](size_t target, const PieceRecord& piece) {
      return channels.piece(source, target)->Append(piece);
    };
    auto emit_span = [&](const SpanRecord& span) {
      return channels.span(source)->Append(span);
    };
    SpatialObject o{};
    while (reader.Next(&o)) {
      MAXRS_RETURN_IF_ERROR(CheckCancel(options.cancel));
      const PieceRecord p =
          TransformObject(o, options.rect_width, options.rect_height);
      MAXRS_RETURN_IF_ERROR(division_internal::RoutePiece(
          bounds, ranges, p, emit_piece, emit_span));
    }
    return reader.final_status();
  }();
  {
    std::vector<RecordSink<PieceRecord>*> piece_sinks;
    piece_sinks.reserve(num_shards);
    for (size_t t = 0; t < num_shards; ++t) {
      piece_sinks.push_back(channels.piece(source, t));
    }
    piece_status = CloseAllSinks<PieceRecord>(piece_sinks, piece_status);
    piece_status = CloseAllSinks<SpanRecord>({channels.span(source)},
                                             piece_status);
  }
  if (!piece_status.ok()) {
    // The edge pass is pointless now, but its sinks still must close so
    // consumers blocked on edge heads observe the error instead of hanging.
    (void)close_edges(piece_status);
    return piece_status;
  }

  // Pass 2: the x-file scan — two edge shifts per object, routed by value.
  // Edges of this shard's objects can land in any shard (a rect half-width
  // shifts them arbitrarily far); each half-row stays x-sorted because it
  // is a filtered monotone shift of this scan. A value at or above the last
  // shard's lower bound clamps into it.
  Status edge_status = [&]() -> Status {
    MAXRS_ASSIGN_OR_RETURN(
        RecordReader<SpatialObject> reader,
        RecordReader<SpatialObject>::Make(env, shards[source].x_file));
    auto shard_of = [&](double v) {
      return std::min(division_internal::IndexOf(bounds, v), num_shards - 1);
    };
    const double half_w = options.rect_width / 2.0;
    SpatialObject o{};
    while (reader.Next(&o)) {
      MAXRS_RETURN_IF_ERROR(CheckCancel(options.cancel));
      const double left = o.x - half_w;
      const double right = o.x + half_w;
      MAXRS_RETURN_IF_ERROR(channels.edge_left(source, shard_of(left))
                                ->Append(EdgeRecord{left}));
      MAXRS_RETURN_IF_ERROR(channels.edge_right(source, shard_of(right))
                                ->Append(EdgeRecord{right}));
    }
    return reader.final_status();
  }();
  return close_edges(edge_status);
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
  // Shared buffer pool over the dataset's immutable files, before the
  // workers start: they read exec_env_ unsynchronized.
  if (options_.buffer_pool_bytes > 0) {
    pooled_env_ = std::make_unique<PooledEnv>(
        env_, options_.buffer_pool_bytes, options_.buffer_pool_pin_wait_ms);
    pooled_env_->AddPooledPrefix(dataset_.prefix());
  }
  exec_env_ = pooled_env_ != nullptr ? static_cast<Env*>(pooled_env_.get())
                                     : &env_;
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
  Env& env = *exec_env_;
  TempFileManager temps(env, options_.work_prefix);
  const IoStatsSnapshot io_before = env.stats().Snapshot();
  Stopwatch timer;

  const std::vector<ShardInfo>& shards = dataset_.shards();
  const size_t num_shards = shards.size();
  const std::vector<double>& bounds = dataset_.interior_bounds();
  const std::vector<Interval>& ranges = dataset_.slab_ranges();
  const MaxRSOptions query_options =
      MakeQueryOptions(request.width, request.height, &request.cancel);

  Result<MaxRSResult> result = [&]() -> Result<MaxRSResult> {
    QueryChannels channels(env, temps, num_shards,
                           options_.stream_channel_bytes);
    // Phase A: every source routes once, submitted before any consumer.
    std::vector<Status> producer_status(num_shards);
    JoinLatch routed(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      pool_->Submit([&, s] {
        producer_status[s] = RouteSourceShard(env, channels, shards, bounds,
                                              ranges, s, query_options);
        routed.CountDown();
      });
    }

    // Phase B: every target shard in index order, inline on this worker,
    // each solve consuming its column while the sources still route.
    std::vector<MaxRSStats> shard_stats(num_shards);
    Status solved = Status::OK();
    for (size_t t = 0; t < num_shards && solved.ok(); ++t) {
      solved = channels.SolveTarget(env, temps, t, ranges[t], query_options,
                                    &shard_stats[t]);
    }
    // A solve finishing does not imply its rows finished (rows close
    // pieces before routing edges), so join every producer first. A solve
    // error stands; otherwise the first failed source's status does.
    routed.Wait();
    for (size_t s = 0; s < num_shards && solved.ok(); ++s) {
      solved = producer_status[s];
    }
    MAXRS_RETURN_IF_ERROR(solved);

    // Phase C.
    return CombineShards(env, temps, channels, ranges, shard_stats,
                         dataset_.num_objects(), query_options);
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

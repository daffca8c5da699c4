#include "serve/maxrs_server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <numeric>
#include <optional>
#include <thread>

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
// Shared-scan execution: the x-slab shards are the top-level division, and
// the k >= 1 queries of one batch execute off ONE routing pass per source
// shard. The y-file scan computes all k transforms per object and routes
// each clipped piece to the (at most two) partially covered shards, plus
// one SpanRecord for the fully covered shards between; the x-file scan
// emits all k queries' left (x - w/2) and right (x + w/2) edges, routed by
// value. Every routed record travels through a RecordChannel
// (io/record_stream.h), and each target solve (core_internal::
// SolveSlabStream) starts the moment the piece channels of its column have
// their first heads — while the routing passes are still running. Each
// target solve emits its shard's tuples into one more channel, and once
// every solve has joined, one cross-shard MergeSweep per query merges those
// channels straight into the answer tracker: neither a shard's tuples nor
// the root's become a file (unless a slab channel spills past its cap).
//
// Per query the record streams a target consumer merges are fixed by the
// data and the rect alone: piece rows are filtered subsequences of the
// y-sorted scan under the query's monotone transform, and the two edge
// half-rows are each monotone shifts of the x-sorted scan — their 2S-way
// EdgeXLess merge is the same x-sorted edge stream whatever the batch,
// because EdgeRecord is a single double under a total order (cmp-equal =>
// byte-equal, and min-of-heads merging is associative). So every query's
// answer is independent of its batch-mates; only the scan I/O is paid once
// and reported per query as an amortized equal share (docs/IO_MODEL.md,
// "Batched shared scans").
//
// Liveness protocol (record_stream.h, "Threading"): channel producers never
// block and are submitted to the FIFO pool BEFORE every consumer, so a
// parked consumer always has running producers destined to close its
// channels. Producers are raw pool submissions joined by a latch, NOT
// TaskGroup tasks: a group no-ops queued tasks after its first error, and a
// no-op'd producer would never close its channels, hanging every consumer
// already running.
// ---------------------------------------------------------------------------

// Index of the shard whose half-open x-range contains `v`. `bounds` holds
// the S-1 interior shard boundaries; callers clamp into the last shard for
// values at/above its lower bound (mirroring division.cc's ChildOf —
// clipped extents may end exactly on a slab's upper bound).
size_t ShardOf(const std::vector<double>& bounds, double v) {
  return static_cast<size_t>(
      std::upper_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
}

// One-shot join latch for the raw producer submissions of one batch.
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

// One query of a batch, in batch order.
struct BatchQuery {
  double width = 0.0;
  double height = 0.0;
  const CancelToken* cancel = nullptr;
};

// All channels of one k-query batch: per query an S x S piece grid, TWO
// S x S edge grids — the shared x-file scan emits left and right edges
// into separate channels because their interleaving in scan order is not
// sorted, while each half on its own is — S span channels, and S slab
// channels carrying each target shard's tuples to the combine. Grids are
// producer-major: source s feeds row s, target t drains column t. Created
// eagerly on the batch worker so spill names are allocated in one
// deterministic order (query-major); a channel that never receives a
// record holds no buffer and creates no file.
class BatchChannels {
 public:
  BatchChannels(Env& env, TempFileManager& temps, size_t num_queries,
                size_t num_shards, size_t cap_bytes)
      : num_shards_(num_shards), cap_bytes_(cap_bytes) {
    pieces_.reserve(num_queries * num_shards * num_shards);
    edges_left_.reserve(num_queries * num_shards * num_shards);
    edges_right_.reserve(num_queries * num_shards * num_shards);
    spans_.reserve(num_queries * num_shards);
    slabs_.reserve(num_queries * num_shards);
    for (size_t q = 0; q < num_queries; ++q) {
      const std::string qtag = "b" + std::to_string(q) + "_";
      for (size_t s = 0; s < num_shards; ++s) {
        const std::string tag = std::to_string(s);
        for (size_t t = 0; t < num_shards; ++t) {
          const std::string cell = tag + "_" + std::to_string(t);
          pieces_.push_back(std::make_unique<RecordChannel<PieceRecord>>(
              env, temps.NewName(qtag + "chp" + cell), cap_bytes));
          edges_left_.push_back(std::make_unique<RecordChannel<EdgeRecord>>(
              env, temps.NewName(qtag + "chl" + cell), cap_bytes));
          edges_right_.push_back(std::make_unique<RecordChannel<EdgeRecord>>(
              env, temps.NewName(qtag + "chr" + cell), cap_bytes));
        }
        spans_.push_back(std::make_unique<RecordChannel<SpanRecord>>(
            env, temps.NewName(qtag + "chs" + tag), cap_bytes));
        slabs_.push_back(std::make_unique<RecordChannel<SlabTuple>>(
            env, temps.NewName(qtag + "cht" + tag), cap_bytes));
      }
    }
  }

  RecordChannel<PieceRecord>* piece(size_t q, size_t s, size_t t) {
    return pieces_[(q * num_shards_ + s) * num_shards_ + t].get();
  }
  RecordChannel<EdgeRecord>* edge_left(size_t q, size_t s, size_t t) {
    return edges_left_[(q * num_shards_ + s) * num_shards_ + t].get();
  }
  RecordChannel<EdgeRecord>* edge_right(size_t q, size_t s, size_t t) {
    return edges_right_[(q * num_shards_ + s) * num_shards_ + t].get();
  }
  RecordChannel<SpanRecord>* span(size_t q, size_t s) {
    return spans_[q * num_shards_ + s].get();
  }

  // The tuples of query q's target shard t. Read only after every solve
  // of the query has joined, so the channel is closed and the read never
  // blocks.
  RecordSource<SlabTuple>* solved_tuples(size_t q, size_t t) {
    return slabs_[q * num_shards_ + t].get();
  }

  // Solves query q's target shard t from every source row, in ascending
  // order — the canonical merge order — into the shard's slab channel, and
  // closes that channel with the solve's final status on every path. The
  // solve's own division channels share the batch's cap.
  Status SolveTarget(Env& env, TempFileManager& temps, size_t q, size_t t,
                     const Interval& slab, const MaxRSOptions& options,
                     MaxRSStats* stats) {
    std::vector<RecordSource<PieceRecord>*> piece_column;
    std::vector<RecordSource<EdgeRecord>*> edge_column;
    piece_column.reserve(num_shards_);
    edge_column.reserve(2 * num_shards_);
    for (size_t s = 0; s < num_shards_; ++s) {
      piece_column.push_back(piece(q, s, t));
      edge_column.push_back(edge_left(q, s, t));
      edge_column.push_back(edge_right(q, s, t));
    }
    RecordChannel<SlabTuple>* out = slabs_[q * num_shards_ + t].get();
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
// routes every query's pieces and spans (division.cc pass 3 with the shard
// grid as the cut, shared via division_internal::RoutePiece), then ONE pass
// over its x-file emits every query's left and right edges into their
// half-row channels. The piece/span pass closes its sinks before the edge
// pass starts, so target solves whose piece streams are complete can probe
// and begin solving while this source still routes edges. Every channel of
// this source's rows — k * (S piece + 2S edge + 1 span) — is closed exactly
// once on every path: an unclosed channel would park its consumer forever.
// The scan stops with kDeadlineExceeded once EVERY query riding it has
// expired — one query's deadline must not abort its batch-mates' routing,
// but a scan nobody will consume is pure waste (for a lone query, this is
// its deadline).
Status RouteSourceShard(Env& env, BatchChannels& channels,
                        const std::vector<ShardInfo>& shards,
                        const std::vector<double>& bounds,
                        const std::vector<Interval>& ranges, size_t source,
                        const std::vector<BatchQuery>& queries) {
  const size_t num_shards = shards.size();
  const size_t k = queries.size();

  auto all_expired = [&]() -> Status {
    for (const BatchQuery& query : queries) {
      if (CheckCancel(query.cancel).ok()) return Status::OK();
    }
    return Status::DeadlineExceeded(
        "every query sharing the scan is cancelled or past its deadline");
  };
  auto close_edges = [&](Status st) {
    std::vector<RecordSink<EdgeRecord>*> sinks;
    sinks.reserve(2 * k * num_shards);
    for (size_t q = 0; q < k; ++q) {
      for (size_t t = 0; t < num_shards; ++t) {
        sinks.push_back(channels.edge_left(q, source, t));
        sinks.push_back(channels.edge_right(q, source, t));
      }
    }
    return CloseAllSinks<EdgeRecord>(sinks, std::move(st));
  };

  // Pass 1: the shared y-file scan — all k transforms per object.
  Status piece_status = [&]() -> Status {
    MAXRS_ASSIGN_OR_RETURN(
        RecordReader<SpatialObject> reader,
        RecordReader<SpatialObject>::Make(env, shards[source].y_file));
    SpatialObject o{};
    while (reader.Next(&o)) {
      MAXRS_RETURN_IF_ERROR(all_expired());
      for (size_t q = 0; q < k; ++q) {
        auto emit_piece = [&](size_t target, const PieceRecord& piece) {
          return channels.piece(q, source, target)->Append(piece);
        };
        auto emit_span = [&](const SpanRecord& span) {
          return channels.span(q, source)->Append(span);
        };
        const PieceRecord p =
            TransformObject(o, queries[q].width, queries[q].height);
        MAXRS_RETURN_IF_ERROR(division_internal::RoutePiece(
            bounds, ranges, p, emit_piece, emit_span));
      }
    }
    return reader.final_status();
  }();
  {
    std::vector<RecordSink<PieceRecord>*> piece_sinks;
    std::vector<RecordSink<SpanRecord>*> span_sinks;
    piece_sinks.reserve(k * num_shards);
    span_sinks.reserve(k);
    for (size_t q = 0; q < k; ++q) {
      for (size_t t = 0; t < num_shards; ++t) {
        piece_sinks.push_back(channels.piece(q, source, t));
      }
      span_sinks.push_back(channels.span(q, source));
    }
    piece_status = CloseAllSinks<PieceRecord>(piece_sinks, piece_status);
    piece_status = CloseAllSinks<SpanRecord>(span_sinks, piece_status);
  }
  if (!piece_status.ok()) {
    // The edge pass is pointless now, but its sinks still must close so
    // consumers blocked on edge heads observe the error instead of hanging.
    (void)close_edges(piece_status);
    return piece_status;
  }

  // Pass 2: the shared x-file scan — every query's two edge shifts per
  // object, routed by value. Edges of this shard's objects can land in any
  // shard (a rect half-width shifts them arbitrarily far); each half-row
  // stays x-sorted because it is a filtered monotone shift of this scan.
  Status edge_status = [&]() -> Status {
    MAXRS_ASSIGN_OR_RETURN(
        RecordReader<SpatialObject> reader,
        RecordReader<SpatialObject>::Make(env, shards[source].x_file));
    SpatialObject o{};
    while (reader.Next(&o)) {
      MAXRS_RETURN_IF_ERROR(all_expired());
      for (size_t q = 0; q < k; ++q) {
        const double half_w = queries[q].width / 2.0;
        const double left = o.x - half_w;
        const double right = o.x + half_w;
        MAXRS_RETURN_IF_ERROR(
            channels
                .edge_left(q, source,
                           std::min(ShardOf(bounds, left), num_shards - 1))
                ->Append(EdgeRecord{left}));
        MAXRS_RETURN_IF_ERROR(
            channels
                .edge_right(q, source,
                            std::min(ShardOf(bounds, right), num_shards - 1))
                ->Append(EdgeRecord{right}));
      }
    }
    return reader.final_status();
  }();
  return close_edges(edge_status);
}

// Runs `task(q)` for every query whose status in `per_query` is still OK
// and folds its error in: query 0 inline on the calling (batch worker)
// thread — a lone query runs its whole solve chain without a pool hop — and
// every other query in its OWN TaskGroup, because a group no-ops its queued
// tasks after the first error and one query's failure must never stop a
// batch-mate's work.
void ForEachLiveQuery(ThreadPool* pool, std::vector<Status>* per_query,
                      const std::function<Status(size_t)>& task) {
  const size_t k = per_query->size();
  std::vector<std::unique_ptr<TaskGroup>> groups(k);
  for (size_t q = 1; q < k; ++q) {
    if (!(*per_query)[q].ok()) continue;
    groups[q] = std::make_unique<TaskGroup>(pool);
    groups[q]->Run([&task, q] { return task(q); });
  }
  if ((*per_query)[0].ok()) (*per_query)[0] = task(0);
  for (size_t q = 1; q < k; ++q) {
    if (groups[q] != nullptr) (*per_query)[q] = groups[q]->Wait();
  }
}

// Folds the first routing failure into every still-OK query: the scan was
// shared, so every query genuinely read from the failed pass.
void FoldRoutingFailure(const std::vector<Status>& producer_status,
                        std::vector<Status>* per_query) {
  for (const Status& routed : producer_status) {
    if (routed.ok()) continue;
    for (Status& st : *per_query) {
      if (st.ok()) st = routed;
    }
    return;
  }
}

// Phase C of query q, once every solve of q has joined: drain the span
// channels of every source row (all closed by now — they act as
// deterministic buffers) into one SpanYLess-merged span file, and run the
// cross-shard MergeSweep over every shard range from the shards' slab
// channels straight into the answer tracker. A single-shard dataset has no
// cross-shard combine: its one shard's tuples are the root. Stats fold the
// per-shard blocks (an empty shard's untouched block folds as zeros).
Result<MaxRSResult> CombineShards(Env& env, TempFileManager& temps,
                                  BatchChannels& channels, size_t q,
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
    children[t] = channels.solved_tuples(q, t);
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
        span_sources.push_back(channels.span(q, s));
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

// The amortized per-query share of a batch's I/O delta: every counter is
// split into k equal integer shares with the remainder spread one block at
// a time over the first (counter mod k) queries in `rank` order — ranks
// are assigned by ascending canonical cache key, so the split is
// independent of batch formation order and the shares sum exactly to the
// batch total (docs/IO_MODEL.md, "Batched shared scans"). k = 1 is the
// identity.
IoStatsSnapshot BatchIoShare(const IoStatsSnapshot& total, uint64_t k,
                             uint64_t rank) {
  auto share = [&](uint64_t v) { return v / k + (rank < v % k ? 1 : 0); };
  IoStatsSnapshot out;
  out.blocks_read = share(total.blocks_read);
  out.blocks_written = share(total.blocks_written);
  out.reads_retried = share(total.reads_retried);
  out.writes_retried = share(total.writes_retried);
  out.shards_pruned = share(total.shards_pruned);
  out.bound_skips = share(total.bound_skips);
  out.scans_shared = share(total.scans_shared);
  return out;
}

// Stamps every successful result of a batch with its amortized stats: the
// BatchIoShare of the batch's I/O delta since `io_before` (ranked by
// ascending canonical dimension bits), the batch wall time, and
// batch_size = k. Failed slots keep their error; if any query failed, every
// scratch file the batch's manager named is swept (successful queries
// already released theirs), so repeated failures cannot grow the Env.
void FinishBatch(Env& env, TempFileManager& temps,
                 const IoStatsSnapshot& io_before, const Stopwatch& timer,
                 const std::vector<BatchQuery>& queries,
                 std::vector<Result<MaxRSResult>>* results) {
  const IoStatsSnapshot delta = env.stats().Snapshot() - io_before;
  const size_t k = queries.size();
  std::vector<size_t> order(k);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const uint64_t wa = CanonicalDimensionBits(queries[a].width);
    const uint64_t wb = CanonicalDimensionBits(queries[b].width);
    if (wa != wb) return wa < wb;
    return CanonicalDimensionBits(queries[a].height) <
           CanonicalDimensionBits(queries[b].height);
  });
  std::vector<uint64_t> rank(k, 0);
  for (size_t i = 0; i < k; ++i) rank[order[i]] = i;
  const double wall_seconds = timer.ElapsedSeconds();
  bool any_failed = false;
  for (size_t q = 0; q < k; ++q) {
    if (!(*results)[q].ok()) {
      any_failed = true;
      continue;
    }
    MaxRSStats& stats = (*results)[q].value().stats;
    stats.io = BatchIoShare(delta, k, rank[q]);
    stats.batch_size = k;
    stats.wall_seconds = wall_seconds;
  }
  if (any_failed) temps.ReleaseAll();
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
  response.batch_size = result.stats.batch_size;
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
      // orphaned. Queue-jump signal for the batch former: this leader now
      // has one more caller waiting on it.
      it->second->waiters.emplace_back();
      future = it->second->waiters.back().get_future();
      it->second->followers.fetch_add(1, std::memory_order_relaxed);
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
  while (true) {
    std::vector<std::shared_ptr<Request>> batch = FormBatch();
    if (batch.empty()) return;  // queue closed and drained
    ExecuteBatch(std::move(batch));
  }
}

bool MaxRSServer::ShapeCompatible(const Request& anchor,
                                  const Request& candidate) {
  // Rects within this aspect band share a scan profitably: a batch-mate
  // whose width dwarfs the anchor's would route most of its pieces across
  // many shards while the anchor's stay local, and the shared channels
  // would mostly carry one query's traffic.
  constexpr double kBatchShapeRatio = 8.0;
  return candidate.width <= anchor.width * kBatchShapeRatio &&
         anchor.width <= candidate.width * kBatchShapeRatio &&
         candidate.height <= anchor.height * kBatchShapeRatio &&
         anchor.height <= candidate.height * kBatchShapeRatio;
}

std::vector<std::shared_ptr<MaxRSServer::Request>> MaxRSServer::FormBatch() {
  const size_t batch_max =
      std::min<size_t>(std::max<size_t>(1, options_.batch_max), 64);
  std::vector<std::shared_ptr<Request>> candidates;

  auto take_staged = [&] {
    std::lock_guard<std::mutex> lock(staging_mu_);
    while (!staged_.empty() && candidates.size() < 2 * batch_max) {
      candidates.push_back(std::move(staged_.front()));
      staged_.pop_front();
    }
  };
  auto try_pop = [&]() -> bool {
    std::shared_ptr<Request> request;
    if (!queue_.TryPop(&request)) return false;
    {
      std::lock_guard<std::mutex> lock(counters_mu_);
      ++queued_dequeued_;
    }
    candidates.push_back(std::move(request));
    return true;
  };

  take_staged();
  if (candidates.empty()) {
    // Nothing deferred from an earlier formation: block for the next
    // request. Pop returning false means closed AND drained — but a peer
    // worker may have re-staged requests after our check above, so sweep
    // the staging deque once more before declaring shutdown.
    std::shared_ptr<Request> request;
    if (queue_.Pop(&request)) {
      {
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++queued_dequeued_;
      }
      candidates.push_back(std::move(request));
    } else {
      take_staged();
      if (candidates.empty()) return {};
    }
  }

  if (batch_max > 1) {
    // Drain whatever is instantaneously queued (up to twice the batch size
    // so the priority sort below has alternatives), then wait out the
    // batch window for late arrivals. Polling keeps the MPMC queue's
    // simple contract; 500us is far below any real query's runtime.
    const auto window_end =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(
            std::max<int64_t>(0, options_.batch_window_ms));
    while (candidates.size() < 2 * batch_max) {
      if (try_pop()) continue;
      if (candidates.size() >= batch_max) break;
      if (std::chrono::steady_clock::now() >= window_end) break;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }
  if (candidates.size() == 1) return candidates;

  // Leaders with followers jump the queue: every follower is a caller
  // blocked on that leader's future, so serving it first unblocks the
  // most work. stable_sort keeps FIFO order among equals.
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const std::shared_ptr<Request>& a,
                      const std::shared_ptr<Request>& b) {
                     return a->followers.load(std::memory_order_relaxed) >
                            b->followers.load(std::memory_order_relaxed);
                   });
  std::vector<std::shared_ptr<Request>> batch;
  std::vector<std::shared_ptr<Request>> deferred;
  batch.push_back(candidates[0]);
  for (size_t i = 1; i < candidates.size(); ++i) {
    if (batch.size() < batch_max && ShapeCompatible(*batch[0], *candidates[i])) {
      batch.push_back(std::move(candidates[i]));
    } else {
      deferred.push_back(std::move(candidates[i]));
    }
  }
  if (!deferred.empty()) {
    // Back to the FRONT of the staging deque in their drained order:
    // deferred requests are older than anything still in the MPMC queue,
    // so the next formation must see them first.
    std::lock_guard<std::mutex> lock(staging_mu_);
    for (size_t i = deferred.size(); i-- > 0;) {
      staged_.push_front(std::move(deferred[i]));
    }
  }
  return batch;
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

void MaxRSServer::ExecuteBatch(std::vector<std::shared_ptr<Request>> batch) {
  // A request whose deadline elapsed while it queued fails now, before it
  // can claim a slot in the shared scan or touch the Env at all.
  std::vector<std::shared_ptr<Request>> live;
  live.reserve(batch.size());
  for (std::shared_ptr<Request>& request : batch) {
    const Status expired = CheckCancel(&request->cancel);
    if (!expired.ok()) {
      CompleteRequest(request, expired);
    } else {
      live.push_back(std::move(request));
    }
  }
  if (live.empty()) return;

  auto execute = [&](const std::vector<std::shared_ptr<Request>>& requests) {
    std::vector<Result<MaxRSResult>> results(
        requests.size(),
        Result<MaxRSResult>(Status::Unavailable("batch slot unset")));
    ExecuteBatchStreaming(requests, &results);
    return results;
  };

  std::vector<Result<MaxRSResult>> results = execute(live);
  if (live.size() > 1) {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.batches;
    counters_.batched_queries += live.size();
  }
  for (size_t q = 0; q < live.size(); ++q) {
    if (!results[q].ok() && results[q].status().is_retryable()) {
      // Graceful degradation, one shot: a query that failed with a
      // retryable (transient) error — Env retries already exhausted —
      // re-runs once, ALONE, through the same executor before the failure
      // reaches the client; its batch-mates' results are unaffected, and
      // its stats are the solo rerun's (batch_size 1, un-amortized I/O).
      // Terminal errors (kCorruption, kDeadlineExceeded) are never re-run:
      // the rerun would read the same bad bytes or re-exceed the deadline.
      {
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.degraded;
      }
      results[q] = std::move(execute({live[q]})[0]);
    }
    CompleteRequest(live[q], std::move(results[q]));
  }
}

void MaxRSServer::ExecuteBatchStreaming(
    const std::vector<std::shared_ptr<Request>>& batch,
    std::vector<Result<MaxRSResult>>* results) {
  Env& env = *exec_env_;
  TempFileManager temps(env, options_.work_prefix);
  const IoStatsSnapshot io_before = env.stats().Snapshot();
  Stopwatch timer;

  const std::vector<ShardInfo>& shards = dataset_.shards();
  const size_t num_shards = shards.size();
  const std::vector<double>& bounds = dataset_.interior_bounds();
  const std::vector<Interval>& ranges = dataset_.slab_ranges();
  const size_t k = batch.size();
  std::vector<BatchQuery> queries(k);
  std::vector<MaxRSOptions> query_options(k);
  for (size_t q = 0; q < k; ++q) {
    queries[q] = BatchQuery{batch[q]->width, batch[q]->height,
                            &batch[q]->cancel};
    query_options[q] =
        MakeQueryOptions(batch[q]->width, batch[q]->height, &batch[q]->cancel);
  }

  std::vector<Status> per_query(k, Status::OK());
  std::vector<std::vector<MaxRSStats>> shard_stats(
      k, std::vector<MaxRSStats>(num_shards));
  {
    BatchChannels channels(env, temps, k, num_shards,
                           options_.stream_channel_bytes);
    // Phase A: every source routes once, submitted before any consumer.
    std::vector<Status> producer_status(num_shards);
    JoinLatch routed(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      pool_->Submit([&, s] {
        producer_status[s] = RouteSourceShard(env, channels, shards, bounds,
                                              ranges, s, queries);
        routed.CountDown();
      });
    }
    if (k > 1) env.stats().RecordScansShared((k - 1) * num_shards);

    // Phase B: per query, every target shard in index order, each solve
    // consuming its column while the sources still route.
    ForEachLiveQuery(pool_.get(), &per_query, [&](size_t q) -> Status {
      for (size_t t = 0; t < num_shards; ++t) {
        MAXRS_RETURN_IF_ERROR(channels.SolveTarget(env, temps, q, t, ranges[t],
                                                   query_options[q],
                                                   &shard_stats[q][t]));
      }
      return Status::OK();
    });
    // A solve finishing does not imply its rows finished (rows close
    // pieces before routing edges), so join every producer first.
    routed.Wait();
    FoldRoutingFailure(producer_status, &per_query);

    // Phase C per query.
    for (size_t q = 0; q < k; ++q) {
      (*results)[q] =
          per_query[q].ok()
              ? CombineShards(env, temps, channels, q, ranges, shard_stats[q],
                              dataset_.num_objects(), query_options[q])
              : Result<MaxRSResult>(per_query[q]);
    }
  }  // destroys the channels (and any spill files)
  FinishBatch(env, temps, io_before, timer, queries, results);
}

}  // namespace maxrs

// MaxRSServer: the query half of the serve layer — a long-lived server that
// owns one ingested DatasetHandle and answers MaxRS queries of varying
// rectangle sizes concurrently.
//
// Request path: Submit(QuerySpec) — and its async twin SubmitAsync —
// consults a small LRU result cache keyed by the canonicalized (w, h) bit
// patterns (a warm hit performs zero I/O), then an in-flight table (a
// duplicate of a query already executing attaches to the leader's pending
// slot instead of executing again), otherwise enqueues the request on a
// bounded MPMC queue (util/mpmc_queue.h) and blocks on (or returns) its
// future. A QuerySpec may override the deadline per query.
// `num_workers` dedicated worker threads each pop one request at a time
// and execute it; every execution is exactly one query. The x-slab shards
// ARE the top-level division of the paper's distribution sweep:
//
//   filter      once per query, in memory: tau = the exact answer over
//               the dataset's resident probe set (serve/density_bound.h);
//               the scans below skip every object whose summed-area
//               bound is below tau, which no optimal placement
//               covers                                   — no I/O
//   route       per source shard, ONE pass over its y-sorted objects
//               transforms the query's pieces and routes them by extent —
//               clipped parts into the (at most two) partially covered
//               shards, one SpanRecord for the fully covered shards
//               between                                   — linear passes
//   solve       per target shard, merge the incoming piece streams and run
//               division + plane-sweep *inside the shard*
//               (core_internal::SolveSlabStream), emitting the shard's
//               tuples into a slab channel; only a shard that overflows
//               its base case reads edges, from the x-sorted objects of
//               the sources whose shifted slabs reach
//               it                                   — O(shard) per task
//               Every source routes once per query and every shard is
//               solved, in index order; the aggregate shard index is not
//               consulted (docs/ARCHITECTURE.md, "Aggregate shard index").
//   combine     once the solves have returned, one cross-shard MergeSweep
//               over the S slab channels and the boundary span file,
//               straight into the answer tracker         — one linear sweep
//
// Route and solve overlap: routed records travel through bounded in-memory
// channels (io/record_stream.h), each target solve starts on its first
// arriving block, and the Env is touched only by the routing scans, the
// span file, a channel that exceeds its memory cap, or a shard that
// overflows its base case — no shard or root slab-file is ever written.
// No external sort runs per query; only rect-dependent transform, merge,
// and division/merge-sweep work does. Per-shard results land in slots
// indexed by shard, so answers and block counts are independent of worker
// count, schedule, and cache state. Answers equal one-shot RunExactMaxRS
// bit for bit whenever weight sums are exact in double arithmetic
// (integer-valued weights — the common case); with arbitrary real weights
// the per-shard division tree may group floating-point additions
// differently than the one-shot tree, so sums can differ in the last ulp.
//
// See docs/ARCHITECTURE.md ("The serve layer") for the design rationale
// and docs/IO_MODEL.md for the per-query I/O accounting.
#ifndef MAXRS_SERVE_MAXRS_SERVER_H_
#define MAXRS_SERVE_MAXRS_SERVER_H_

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <future>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/exact_maxrs.h"
#include "io/env.h"
#include "io/pooled_env.h"
#include "serve/dataset_handle.h"
#include "util/cancel.h"
#include "util/mpmc_queue.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace maxrs {

/// Canonical bit pattern of one cache-key dimension. Semantically equal
/// dimensions must map onto one key, so -0.0 folds onto +0.0 and every NaN
/// payload onto the canonical quiet NaN. (Submit rejects non-positive and
/// non-finite dimensions today, so neither value reaches the cache — but
/// the key derivation must not silently depend on that validation: raw bit
/// patterns would split semantically equal queries into distinct entries.)
inline uint64_t CanonicalDimensionBits(double v) {
  if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
  if (v == 0.0) v = 0.0;  // folds -0.0 (compares equal to +0.0)
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Knobs for MaxRSServer.
struct MaxRSServerOptions {
  /// Concurrent query workers (= ThreadPool size). Each in-flight query
  /// occupies one worker end to end. Clamped to [1, 1024].
  size_t num_workers = 1;

  /// Memory budget M in bytes per query (fan-out, base case, merge fan-in).
  size_t memory_bytes = 1 << 20;

  /// Fan-out override for tests; 0 derives from the memory budget.
  size_t fanout = 0;

  /// Base-case threshold override (#pieces) for tests; 0 derives from M.
  uint64_t base_case_max_pieces = 0;

  /// LRU result-cache entries keyed by canonical (w, h); 0 disables caching.
  size_t cache_entries = 16;

  /// Cache admission policy: a result is cached only if its rectangle
  /// covers at most this fraction of the dataset extent's area (rect
  /// dimensions clamped to the extent first, so an infinite-looking rect
  /// counts as full cover). Huge analytical one-off rects otherwise evict
  /// the steady-state working set. >= 1 admits everything; ignored when
  /// the dataset's bounds are unknown (empty dataset, version-1 manifest).
  double cache_max_extent_fraction = 0.5;

  /// Bound on queued (not yet executing) requests; submitters beyond it
  /// wait up to `admission_timeout_ms` — backpressure instead of unbounded
  /// queue growth.
  size_t queue_capacity = 64;

  /// Admission budget: how long Submit may wait for room in a full queue
  /// before shedding the query with kUnavailable (a retryable signal —
  /// callers may back off and resubmit). 0 sheds immediately when the
  /// queue is full. Bounded by design: an unbounded wait wedges every
  /// submitter thread behind one slow query (docs/ROBUSTNESS.md).
  int64_t admission_timeout_ms = 10'000;

  /// Per-query deadline measured from Submit (queue wait included); past
  /// it the query's CancelToken expires and every routing / merge / sweep
  /// loop it reaches aborts with kDeadlineExceeded — a terminal error
  /// (re-running would re-exceed it). 0 disables deadlines. Cooperative:
  /// a query may still finish successfully if it completes between polls.
  int64_t deadline_ms = 0;

  /// Per-channel in-memory byte cap for routed records, for the child piece
  /// channels of a shard solve that divides, and for each shard's slab
  /// channel (its tuples, held until the combine — so up to
  /// S x this per query): a channel holding more than this spills the
  /// excess to one Env part file. 0 forces every record through a spill
  /// file (the materialization worst case); SIZE_MAX never spills. The
  /// spill decision is a pure function of the bytes produced, never of
  /// consumer timing, so block counts stay schedule-independent.
  size_t stream_channel_bytes = 1 << 20;

  /// Shared read cache over the dataset's immutable files (shard files,
  /// manifest, aggregate index): when > 0, all query workers fetch those
  /// blocks through one BufferPool of this many bytes (io/pooled_env.h).
  /// A pool hit performs no counted I/O, so hot shard-header and index
  /// blocks are read from storage once — not once per query. 0 (the
  /// default) bypasses the pool entirely: every read is a counted Env
  /// block transfer, preserving the exact per-query I/O accounting the
  /// committed baselines and equivalence tests pin down.
  size_t buffer_pool_bytes = 0;

  /// Forwarded to the shared BufferPool: how long one block fetch may wait
  /// for a frame when every frame is momentarily pinned by other workers
  /// (io/buffer_pool.h). Past the bound the fetch — and the query — fails
  /// with ResourceExhausted, which signals an undersized pool.
  uint64_t buffer_pool_pin_wait_ms = 1000;

  /// Env namespace prefix for per-query scratch files.
  std::string work_prefix = "maxrs_serve";
};

/// Monotonic counters describing server traffic so far.
struct ServerCounters {
  uint64_t submitted = 0;       ///< Submit() calls accepted.
  uint64_t cache_hits = 0;      ///< Served from the LRU without any I/O.
  uint64_t dedup_hits = 0;      ///< Attached to an in-flight leader's slot.
  uint64_t executed = 0;        ///< Ran the full per-query pipeline.
  uint64_t failed = 0;          ///< Executions that returned an error.
  uint64_t cache_rejects = 0;   ///< Results refused by the admission policy.
  uint64_t shed = 0;            ///< Refused with kUnavailable: queue full
                                ///< past the admission budget.
  uint64_t degraded = 0;        ///< Queries re-run once through the same
                                ///< executor after a retryable failure
                                ///< (graceful degradation).
  uint64_t deadlines = 0;       ///< Queries that returned kDeadlineExceeded:
                                ///< executions aborted by an expired token,
                                ///< and deduplicated followers whose own
                                ///< deadline elapsed while the leader was
                                ///< still in flight.
  uint64_t corruptions = 0;     ///< Executions aborted by kCorruption
                                ///< (checksum mismatch, truncated file).
};

/// One MaxRS query as submitted by a caller: the rectangle dimensions plus
/// an optional per-query deadline override. An unset override inherits
/// MaxRSServerOptions::deadline_ms, so `QuerySpec{w, h}` behaves exactly
/// like the legacy positional Submit. Validated in one place
/// (Submit/SubmitAsync): dimensions must be positive and finite, a set
/// deadline must be non-negative.
struct QuerySpec {
  /// Query rectangle width; must be positive and finite.
  double width = 0.0;
  /// Query rectangle height; must be positive and finite.
  double height = 0.0;
  /// Per-query deadline override in milliseconds, measured from Submit
  /// (queue wait included). Unset inherits MaxRSServerOptions::deadline_ms;
  /// 0 disables the deadline for this query.
  std::optional<int64_t> deadline_ms;
};

/// Where a QueryResponse's answer came from.
enum class ServedFrom {
  /// Served from the LRU result cache — zero I/O, no execution.
  kCache,
  /// Attached to an in-flight duplicate's leader and served its result.
  kDedup,
  /// Ran the full per-query pipeline.
  kExecuted,
};

/// One answered query: the MaxRS result plus the serving metadata the
/// legacy Result<MaxRSResult> surface could not express.
struct QueryResponse {
  /// The answer, bit-identical at any shard/worker/cache configuration
  /// (result.stats describes the execution that produced it).
  /// Equal to one-shot RunExactMaxRS bit for bit when weight sums are exact
  /// in double arithmetic; with non-integer weights the total may differ
  /// from one-shot in the last ulp (see the header comment).
  MaxRSResult result;
  /// Block I/O performed on behalf of THIS submission: the execution's
  /// transfers for kExecuted, all zeros for kCache and kDedup — a cache
  /// hit or follower attach transfers no blocks.
  IoStatsSnapshot io;
  /// How this submission was served; see ServedFrom.
  ServedFrom served_from = ServedFrom::kExecuted;
};

/// A long-lived MaxRS query server over one immutable ingested dataset.
/// Thread-safe: Submit may be called from any number of threads. The
/// DatasetHandle (and the Env) must outlive the server.
class MaxRSServer {
 public:
  /// Starts `options.num_workers` workers immediately. The server holds a
  /// reference to `dataset` — keep the handle alive.
  MaxRSServer(Env& env, const DatasetHandle& dataset,
              const MaxRSServerOptions& options = {});

  /// Shuts down (drains in-flight queries) if Shutdown was not called.
  ~MaxRSServer();

  MaxRSServer(const MaxRSServer&) = delete;
  MaxRSServer& operator=(const MaxRSServer&) = delete;

  /// Answers one MaxRS query, blocking until the response is available —
  /// the canonical entry point; safe to call concurrently from any number
  /// of threads. Returns InvalidArgument for an invalid spec (non-positive
  /// or non-finite dimensions, negative deadline override); kUnavailable
  /// (retryable) when the queue stays full past the admission budget;
  /// kDeadlineExceeded when the effective deadline elapses before the
  /// query finishes. After Shutdown, already-cached rects remain servable
  /// (zero I/O); queries that would need execution return NotSupported.
  /// Sums of non-integer weights may differ from one-shot RunExactMaxRS in
  /// the last ulp; see QueryResponse::result.
  Result<QueryResponse> Submit(const QuerySpec& spec);

  /// Submit without blocking: returns the future the server holds
  /// internally, so callers (the net layer, pipelining clients) can
  /// pipeline many in-flight queries without one thread each. Completion
  /// contract: EVERY returned future completes — with the response, with
  /// the spec/admission error (an invalid spec or a shed query yields an
  /// already-completed future), or with NotSupported once Shutdown stops
  /// accepting work; Shutdown() drains all accepted requests before
  /// returning, so no future outlives the server. One caveat vs the
  /// blocking Submit: a query deduplicated onto an in-flight leader
  /// completes when the LEADER completes — the blocking call enforces the
  /// follower's own deadline with a timed wait, an async caller who needs
  /// that must bound future.wait_for itself.
  std::future<Result<QueryResponse>> SubmitAsync(const QuerySpec& spec);

  /// Legacy positional surface: answers one `rect_width` x `rect_height`
  /// query with all per-query overrides unset. A thin delegating wrapper
  /// over Submit(QuerySpec) that unwraps QueryResponse::result.
  Result<MaxRSResult> Submit(double rect_width, double rect_height);

  /// Stops accepting new queries, waits for in-flight ones, and joins the
  /// workers. Idempotent; called by the destructor.
  void Shutdown();

  /// Traffic counters (point-in-time copy).
  ServerCounters counters() const;

  /// Shared buffer-pool statistics; all zeros when buffer_pool_bytes == 0
  /// (no pool exists).
  BufferPoolStats pool_stats() const {
    return pooled_env_ != nullptr ? pooled_env_->pool_stats()
                                  : BufferPoolStats{};
  }

  /// The cache admission predicate, decided on the *canonical* dimension
  /// values the cache key stores (CanonicalDimensionBits), never on the
  /// caller's raw bit patterns — so the decision is a pure function of the
  /// cache key and two semantically equal rects can never be admitted
  /// differently. True when a result for this rect would be cached.
  bool AdmitsToCache(double width, double height) const;

  /// Number of requests queued but not yet picked up by a worker. Counted
  /// under the same mutex as counters(), so a (counters, queue_depth) pair
  /// read back-to-back is consistent: queue_depth never exceeds
  /// submitted - executed. (Reading queue_.size() directly raced the
  /// counter updates and could transiently over-report.)
  size_t queue_depth() const {
    std::lock_guard<std::mutex> lock(counters_mu_);
    return queued_enqueued_ >= queued_dequeued_
               ? static_cast<size_t>(queued_enqueued_ - queued_dequeued_)
               : 0;
  }

 private:
  /// One queued query: its dimensions, its cancellation token, and the
  /// promise the leader's Submit waits on. The worker fulfills the promise
  /// exactly once. The token's deadline starts at Submit, so time spent
  /// queued counts against it.
  struct Request {
    Request(double w, double h, std::chrono::milliseconds deadline)
        : width(w), height(h), cancel(CancelToken::WithTimeout(deadline)) {}
    double width;
    double height;
    CancelToken cancel;
    std::promise<Result<QueryResponse>> promise;
    // Promises of deduplicated followers attached to this leader. Guarded
    // by pending_mu_: a follower attaches only while the pending entry
    // exists, and CompleteRequest moves the list out under the same lock
    // when it erases the entry — so no attach can race a fulfillment.
    std::vector<std::promise<Result<QueryResponse>>> waiters;
  };

  /// Canonical-bit-pattern cache key; queries are cached per distinct
  /// semantic (w, h) — see CanonicalDimensionBits.
  struct CacheKey {
    uint64_t width_bits = 0;
    uint64_t height_bits = 0;
    bool operator==(const CacheKey& other) const {
      return width_bits == other.width_bits &&
             height_bits == other.height_bits;
    }
  };
  struct CacheKeyHash {
    size_t operator()(const CacheKey& k) const {
      // Splitmix-style mix; the key space is tiny so quality hardly matters.
      uint64_t h = k.width_bits * 0x9e3779b97f4a7c15ULL ^ k.height_bits;
      h ^= h >> 31;
      return static_cast<size_t>(h * 0xbf58476d1ce4e5b9ULL);
    }
  };

  static CacheKey MakeKey(double width, double height);

  /// The one validation point for every submission path.
  static Status ValidateSpec(const QuerySpec& spec);
  /// Builds the response for a result served a given way: io is the
  /// execution's transfers for kExecuted and zeroed otherwise.
  static QueryResponse MakeResponse(MaxRSResult result, ServedFrom served);
  /// The shared submission path behind Submit/SubmitAsync: validation,
  /// cache lookup, dedup attach-or-lead, bounded admission. Reports
  /// whether the caller became a dedup follower and the query's effective
  /// deadline so the blocking Submit can enforce the follower-side wait.
  std::future<Result<QueryResponse>> SubmitInternal(const QuerySpec& spec,
                                                    bool* dedup,
                                                    int64_t* deadline_ms);
  MaxRSOptions MakeQueryOptions(double width, double height,
                                const CancelToken* cancel = nullptr) const;
  void WorkerLoop();
  /// The one dispatch point: runs one popped request end to end and
  /// fulfills its promises. Fails a request that expired in the queue,
  /// re-runs a query that failed with a retryable error once through the
  /// same executor (counted in `degraded`), and completes the request.
  void Execute(std::shared_ptr<Request> request);
  /// The executor: one routing pass per source shard, every shard solved,
  /// one cross-shard combine. On failure every scratch file the query
  /// named is swept from the Env.
  Result<MaxRSResult> ExecuteQuery(const Request& request);
  /// Post-execution bookkeeping of every executed request: counters, cache
  /// admission (on the canonical key), publish-then-erase
  /// of the pending slot, and fulfillment of the leader promise (served_from
  /// kExecuted) and every attached follower promise (kDedup).
  void CompleteRequest(const std::shared_ptr<Request>& request,
                       Result<MaxRSResult> result);
  /// Fails the leader promise and every attached follower promise with
  /// `refused` and retires the pending slot — the shed/shutdown path.
  void FailRequest(const std::shared_ptr<Request>& request,
                   const Status& refused);
  std::optional<MaxRSResult> CacheLookup(const CacheKey& key);
  void CacheInsert(const CacheKey& key, const MaxRSResult& result);
  /// The admission decision on a canonical cache key (AdmitsToCache after
  /// key derivation): reconstructs the canonical dimension values from the
  /// key's bits and applies the extent-fraction policy to those.
  bool AdmitKeyToCache(const CacheKey& key) const;

  Env& env_;
  const DatasetHandle& dataset_;
  MaxRSServerOptions options_;
  Status config_status_;  // from construction; every Submit fails fast on it

  // Set iff buffer_pool_bytes > 0: wraps env_ so dataset-file reads go
  // through the shared pool. exec_env_ is what every executor uses — the
  // pooled wrapper when present, env_ otherwise (scratch-file traffic
  // passes through the wrapper untouched either way).
  std::unique_ptr<PooledEnv> pooled_env_;
  Env* exec_env_ = nullptr;

  // shared_ptr, not unique_ptr: on a Push refused by a closed queue the
  // queue drops its copy, but the submitting leader still owns the request
  // and can fail the promise — otherwise deduplicated followers waiting on
  // the shared future would see a broken promise.
  MpmcQueue<std::shared_ptr<Request>> queue_;
  // Workers are dedicated threads, NOT pool tasks: the pool runs only the
  // routing producers, which never block. A worker parked in queue_.Pop,
  // or in a shard solve waiting on a channel head, would otherwise hold a
  // pool thread that the producers it waits on need.
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::thread> worker_threads_;
  bool shut_down_ = false;
  std::mutex shutdown_mu_;

  mutable std::mutex cache_mu_;
  std::list<std::pair<CacheKey, MaxRSResult>> lru_;  // front = most recent
  std::unordered_map<CacheKey, decltype(lru_)::iterator, CacheKeyHash>
      cache_index_;

  // In-flight dedup: one entry per distinct rect currently queued or
  // executing — the leader request. Followers attach a fresh promise to
  // the leader's waiter list under pending_mu_ and wait on its future
  // (bounded by their own deadline — a follower never inherits the
  // leader's token); the worker erases the entry (after publishing to the
  // cache) and moves the waiter list out under the same lock before
  // fulfilling any promise, so late duplicates hit the cache instead and
  // no attach can race a fulfillment.
  mutable std::mutex pending_mu_;
  std::unordered_map<CacheKey, std::shared_ptr<Request>, CacheKeyHash>
      pending_;

  mutable std::mutex counters_mu_;
  ServerCounters counters_;
  // Queue accounting under counters_mu_ (not queue_.size()) so counters()
  // and queue_depth() snapshots are mutually consistent; see queue_depth().
  uint64_t queued_enqueued_ = 0;
  uint64_t queued_dequeued_ = 0;
};

}  // namespace maxrs

#endif  // MAXRS_SERVE_MAXRS_SERVER_H_

// Shared pieces of the MaxRS benchmark: run configuration, the metric
// tables and the report every workload fills, the serving stack set-up,
// and the per-layer measurements several workloads share.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/exact_maxrs.h"
#include "geom/geometry.h"
#include "index/shard_agg_index.h"
#include "io/env.h"
#include "io/io_stats.h"
#include "net/net_server.h"
#include "serve/dataset_handle.h"
#include "serve/maxrs_server.h"
#include "trace.h"

namespace perfbench {

/// The paper's block size and buffers (Table 3).
inline constexpr size_t kBlockSize = 4096;
inline constexpr size_t kBufferSynthetic = 1 << 20;
inline constexpr size_t kBufferReal = 256 << 10;
/// Shards of every served dataset.
inline constexpr size_t kShards = 8;
/// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 5;

/// What one invocation runs.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// The traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Where the traced run writes its spans and counters.
  std::string trace_out;
  /// CPUs this process may run on: server workers and load threads.
  size_t nproc = 1;
};

/// A metric name with its unit; the tables below are the benchmark's
/// contract and are mirrored in BENCHMARK.json, except the end-to-end
/// metrics with `in_json` false, which only the readable table prints.
struct MetricDef {
  const char* name;
  const char* unit;
  bool in_json = true;
};
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

/// What one run measured and whether its answers were right.
class Report {
 public:
  /// Sets a metric from either table; `note` is printed beside it.
  void Set(const std::string& name, double value, const std::string& note = "");
  /// Marks the run invalid (wrong answer or invalid workload) with a reason.
  void Fail(const std::string& why);

  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::map<std::string, std::pair<double, std::string>>& values() const {
    return values_;
  }

  /// Operations the timed window attempted, and how many failed (error,
  /// shed, ERR frame or wrong answer).
  uint64_t attempted = 0;
  uint64_t failed = 0;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
  std::vector<std::string> failures_;
};

/// CPUs in this process's affinity mask.
size_t Nproc();
/// Peak resident set size of this process so far, in MB.
double PeakRssMb();
/// Milliseconds between two time points.
double Ms(Clock::time_point from, Clock::time_point to);
/// A query for a width x height rect with every per-query override unset.
maxrs::QuerySpec Spec(double width, double height);
/// "x y weight" with %.17g, the bit-exact answer encoding of the wire.
std::string AnswerString(const maxrs::MaxRSResult& result);

/// MemEnv + UX-like dataset + 8-shard ingest + MaxRSServer (+ NetServer).
/// Members are declared in dependency order so destruction tears down the
/// front-end first and the Env last.
struct ServeStack {
  std::unique_ptr<maxrs::Env> env;
  std::vector<maxrs::SpatialObject> objects;
  std::optional<maxrs::DatasetHandle> handle;
  std::unique_ptr<maxrs::MaxRSServer> server;
  std::unique_ptr<maxrs::NetServer> net;
  double ingest_s = 0.0;
  uint64_t ingest_blocks = 0;
};

/// Builds the stack for `seed` with memory budget `memory_bytes` (ingest
/// and per query) and `workers` server workers; starts the TCP front-end
/// when `with_net`. Spans go to `tracer` when it is on. Null on failure,
/// with the reason in `report`.
std::unique_ptr<ServeStack> BuildServeStack(uint64_t seed, size_t memory_bytes,
                                            size_t workers, bool with_net,
                                            Tracer& tracer, Report* report);

/// Sets p50_ms, p99_ms (the slowest operation when too few samples support
/// p99), noting the sample count, and qps: operations per second of the
/// `window_s`-second window.
void ReportLatency(const std::vector<double>& latency_ms, double window_s,
                   Report* report);

/// Sets io_blocks_per_op and the io.* counters from `io`, the Env's
/// counter change over the executed operations taken while nothing else
/// ran (so the totals are exact), divided by their count; the core.*
/// counters from each operation's MaxRSStats; and index.* when `shards` > 0
/// (served executions).
void ReportExecutedOps(const std::vector<maxrs::MaxRSStats>& ops,
                       const maxrs::IoStatsSnapshot& io, size_t shards,
                       Report* report);

/// Whether `result` is right for a w x h rect over `objects`: it has the
/// weight of ExactMaxRSInMemory, and a rect centred at its location covers
/// exactly that weight. A mismatch is recorded in `report`.
bool CheckAnswer(const std::vector<maxrs::SpatialObject>& objects, double w,
                 double h, const maxrs::MaxRSResult& result, Report* report);

/// Adds the traffic between two counter snapshots to `sum`.
void AddCounters(const maxrs::ServerCounters& before,
                 const maxrs::ServerCounters& after, maxrs::ServerCounters* sum);

/// Sets the serve.* counter metrics from the traffic of the timed window.
void ReportServeCounters(const maxrs::ServerCounters& window, Report* report);

/// Polls the server's queue depth every 5 ms on its own thread and keeps
/// the maximum; joins on destruction.
class DepthSampler {
 public:
  explicit DepthSampler(const maxrs::MaxRSServer& server);
  ~DepthSampler();
  DepthSampler(const DepthSampler&) = delete;
  DepthSampler& operator=(const DepthSampler&) = delete;

  size_t max() const { return max_.load(std::memory_order_relaxed); }

 private:
  const maxrs::MaxRSServer& server_;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> max_{0};
  std::thread thread_;
};

/// Sets serve.exec_p50_ms and serve.queue_wait_* from traced Submit spans:
/// the wait is each `serve.Submit` span's self time after its `serve.exec`
/// child (the execution's wall time, aligned to the end of the Submit).
void ReportServeSpans(const std::vector<Span>& spans, Report* report);

/// Records a Submit span and its execution child for one executed query.
void TraceSubmit(Tracer& tracer, Clock::time_point start,
                 Clock::time_point end, double exec_seconds, uint64_t query);

/// Adds block transfers and pruning decisions, an Env counter change, to
/// the tracer's counters (a no-op while tracing is off).
void CountIo(Tracer& tracer, const maxrs::IoStatsSnapshot& io);

/// Inputs of the per-layer kernel timings, all taken from the workload.
struct KernelInputs {
  const std::vector<maxrs::SpatialObject>* objects = nullptr;
  /// The workload's Env and object file (external-sort input).
  maxrs::Env* env = nullptr;
  std::string object_file;
  size_t memory_bytes = kBufferSynthetic;
  /// The served dataset's aggregate index; null when nothing is served.
  const maxrs::ShardAggIndex* index = nullptr;
  /// Objects of one shard (the in-memory solve input).
  std::vector<maxrs::SpatialObject> shard_objects;
};

/// Kernel inputs of a served workload: its objects and object file, its
/// aggregate index, and the objects of its middle shard.
KernelInputs ServeKernelInputs(const ServeStack& stack, size_t memory_bytes);

/// Times the core, io, index and util kernels on the workload's data and
/// sets their per-layer metrics (traced run only).
void RunKernels(const KernelInputs& in, uint64_t seed, Tracer& tracer,
                Report* report);

/// Sets trace.overhead_pct from the per-op latencies of traced and
/// untraced segments of the same run.
void ReportTraceOverhead(const std::vector<double>& untraced_ms,
                         const std::vector<double>& traced_ms, Report* report);

/// The workloads.
void RunWireHot(const RunConfig& config, Tracer& tracer, Report* report);
void RunServeCold(const RunConfig& config, Tracer& tracer, Report* report);
void RunOneshot(const RunConfig& config, Tracer& tracer, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_

#include "bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "core/plane_sweep.h"
#include "core/records.h"
#include "core/segment_tree.h"
#include "datagen/dataset_io.h"
#include "datagen/generators.h"
#include "io/external_sort.h"
#include "io/record_io.h"
#include "util/crc32c.h"
#include "util/rng.h"

namespace perfbench {

using maxrs::IoStatsSnapshot;
using maxrs::PieceRecord;
using maxrs::SpatialObject;

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"p50_ms", "ms"},
      {"qps", "1/s"},
      {"io_blocks_per_op", "blocks"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      // The tail follows the host: on a shared VM a 25-second run's p99
      // moved by more than any bound allows (README.md, Measured).
      {"p99_ms", "ms", /*in_json=*/false},
  };
  return kDefs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"net.self_p50_ms", "ms"},
      {"net.self_p99_ms", "ms"},
      {"net.parse_us", "us"},
      {"net.format_us", "us"},
      {"serve.hit_us", "us"},
      {"serve.exec_p50_ms", "ms"},
      {"serve.queue_wait_p50_ms", "ms"},
      {"serve.queue_wait_p99_ms", "ms"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.queue_depth_max", "count"},
      {"serve.failed", "count"},
      {"serve.shed", "count"},
      {"serve.deadlines", "count"},
      {"serve.degraded", "count"},
      {"index.shards_pruned_per_op", "count"},
      {"index.bound_skips_per_op", "count"},
      {"index.prune_ratio", "ratio"},
      {"index.window_weight_us", "us"},
      {"core.plane_sweep_ms_per_10k", "ms"},
      {"core.segtree_ns_per_op", "ns"},
      {"core.inmem_solve_ms", "ms"},
      {"core.base_cases_per_op", "count"},
      {"core.merges_per_op", "count"},
      {"core.spans_per_op", "count"},
      {"core.recursion_levels", "count"},
      {"io.blocks_read_per_op", "blocks"},
      {"io.blocks_written_per_op", "blocks"},
      {"io.crc32c_gbps", "GB/s"},
      {"io.record_write_mbps", "MB/s"},
      {"io.record_read_mbps", "MB/s"},
      {"io.external_sort_s", "s"},
      {"io.retries_per_op", "count"},
      {"setup.ingest_s", "s"},
      {"setup.ingest_io_blocks", "blocks"},
      {"setup.prewarm_s", "s"},
      {"bench.send_lag_p99_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return kDefs;
}

void Report::Set(const std::string& name, double value,
                 const std::string& note) {
  const auto known = [&](const std::vector<MetricDef>& defs) {
    return std::any_of(defs.begin(), defs.end(),
                       [&](const MetricDef& d) { return name == d.name; });
  };
  if (!known(EndToEndMetrics()) && !known(PerLayerMetrics())) {
    std::fprintf(stderr, "perfbench: unknown metric %s\n", name.c_str());
    std::abort();
  }
  values_[name] = {value, note};
}

void Report::Fail(const std::string& why) { failures_.push_back(why); }

size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

double Ms(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

maxrs::QuerySpec Spec(double width, double height) {
  maxrs::QuerySpec spec;
  spec.width = width;
  spec.height = height;
  return spec;
}

std::string AnswerString(const maxrs::MaxRSResult& result) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.17g %.17g %.17g", result.location.x,
                result.location.y, result.total_weight);
  return buf;
}

bool CheckAnswer(const std::vector<SpatialObject>& objects, double w,
                 double h, const maxrs::MaxRSResult& result, Report* report) {
  const maxrs::MaxRSResult expected = maxrs::ExactMaxRSInMemory(objects, w, h);
  const double covered = maxrs::CoveredWeight(
      objects, maxrs::Rect::Centered(result.location, w, h));
  if (result.total_weight == expected.total_weight &&
      covered == result.total_weight) {
    return true;
  }
  report->Fail("answer " + AnswerString(result) + " for " + std::to_string(w) +
               " x " + std::to_string(h) +
               " disagrees with the in-memory solve " +
               AnswerString(expected) + " (covered " +
               std::to_string(covered) + ")");
  return false;
}

std::unique_ptr<ServeStack> BuildServeStack(uint64_t seed, size_t memory_bytes,
                                            size_t workers, bool with_net,
                                            Tracer& tracer, Report* report) {
  auto stack = std::make_unique<ServeStack>();
  stack->env = maxrs::NewMemEnv(kBlockSize);
  stack->objects = maxrs::MakeUxLike(seed);
  if (!maxrs::WriteDataset(*stack->env, "objects", stack->objects).ok()) {
    report->Fail("staging the object file failed");
    return nullptr;
  }
  maxrs::DatasetHandleOptions ingest;
  ingest.shard_count = kShards;
  ingest.memory_bytes = memory_bytes;
  ingest.prefix = "dataset";
  const IoStatsSnapshot before = stack->env->stats().Snapshot();
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(tracer, "serve.DatasetHandle::Ingest");
    auto handle = maxrs::DatasetHandle::Ingest(*stack->env, "objects", ingest);
    if (!handle.ok()) {
      report->Fail("ingest failed: " + handle.status().ToString());
      return nullptr;
    }
    stack->handle.emplace(std::move(handle).value());
  }
  stack->ingest_s = Ms(t0, Clock::now()) / 1e3;
  stack->ingest_blocks = (stack->env->stats().Snapshot() - before).total();

  maxrs::MaxRSServerOptions options;
  options.num_workers = workers;
  options.memory_bytes = memory_bytes;
  stack->server =
      std::make_unique<maxrs::MaxRSServer>(*stack->env, *stack->handle, options);
  if (with_net) {
    stack->net = std::make_unique<maxrs::NetServer>(
        *stack->server, *stack->env, maxrs::NetServerOptions{});
    const maxrs::Status started = stack->net->Start();
    if (!started.ok()) {
      report->Fail("net server did not start: " + started.ToString());
      return nullptr;
    }
  }
  return stack;
}

void ReportLatency(const std::vector<double>& latency_ms, double window_s,
                   Report* report) {
  double q = 0.0;
  const double p99 = TailP99(latency_ms, &q);
  const std::string n = "n=" + std::to_string(latency_ms.size());
  report->Set("p50_ms", Percentile(latency_ms, 0.5), n);
  report->Set("p99_ms", p99,
              q < 1.0 ? n + ", " +
                            std::to_string(
                                SamplesBeyond(latency_ms.size(), 0.99)) +
                            " beyond p99"
                      : n + ", the slowest: too few samples for p99");
  report->Set("qps", static_cast<double>(latency_ms.size()) / window_s,
              n + " in " + std::to_string(window_s) + " s");
}

void ReportExecutedOps(const std::vector<maxrs::MaxRSStats>& ops,
                       const IoStatsSnapshot& io, size_t shards,
                       Report* report) {
  if (ops.empty()) {
    report->Fail("no operation executed");
    return;
  }
  const double n = static_cast<double>(ops.size());
  const double read = static_cast<double>(io.blocks_read);
  const double written = static_cast<double>(io.blocks_written);
  const double retries =
      static_cast<double>(io.reads_retried + io.writes_retried);
  const double pruned = static_cast<double>(io.shards_pruned);
  const double skips = static_cast<double>(io.bound_skips);
  double base = 0, merges = 0, spans = 0;
  std::vector<double> levels;
  for (const maxrs::MaxRSStats& op : ops) {
    base += static_cast<double>(op.base_cases);
    merges += static_cast<double>(op.merges);
    spans += static_cast<double>(op.total_spans);
    levels.push_back(static_cast<double>(op.recursion_levels));
  }
  const std::string over = "over " + std::to_string(ops.size()) +
                           " executed ops";
  report->Set("io_blocks_per_op", (read + written) / n, over);
  report->Set("io.blocks_read_per_op", read / n, over);
  report->Set("io.blocks_written_per_op", written / n, over);
  report->Set("io.retries_per_op", retries / n, over);
  report->Set("core.base_cases_per_op", base / n, over);
  report->Set("core.merges_per_op", merges / n, over);
  report->Set("core.spans_per_op", spans / n, over);
  report->Set("core.recursion_levels", Percentile(levels, 0.5), "median");
  if (shards > 0) {
    report->Set("index.shards_pruned_per_op", pruned / n, over);
    report->Set("index.bound_skips_per_op", skips / n, over);
    report->Set("index.prune_ratio",
                (pruned + skips) / (static_cast<double>(shards) * n),
                "(pruned + skipped) / (shards x executed)");
  }
}

void AddCounters(const maxrs::ServerCounters& before,
                 const maxrs::ServerCounters& after,
                 maxrs::ServerCounters* sum) {
  sum->submitted += after.submitted - before.submitted;
  sum->cache_hits += after.cache_hits - before.cache_hits;
  sum->dedup_hits += after.dedup_hits - before.dedup_hits;
  sum->executed += after.executed - before.executed;
  sum->failed += after.failed - before.failed;
  sum->shed += after.shed - before.shed;
  sum->deadlines += after.deadlines - before.deadlines;
  sum->degraded += after.degraded - before.degraded;
}

void ReportServeCounters(const maxrs::ServerCounters& window, Report* report) {
  report->Set("serve.cache_hit_ratio",
              window.submitted == 0
                  ? 0.0
                  : static_cast<double>(window.cache_hits) /
                        static_cast<double>(window.submitted),
              std::to_string(window.cache_hits) + " of " +
                  std::to_string(window.submitted));
  report->Set("serve.failed", static_cast<double>(window.failed));
  report->Set("serve.shed", static_cast<double>(window.shed));
  report->Set("serve.deadlines", static_cast<double>(window.deadlines));
  report->Set("serve.degraded", static_cast<double>(window.degraded));
}

DepthSampler::DepthSampler(const maxrs::MaxRSServer& server)
    : server_(server), thread_([this] {
        while (!stop_.load(std::memory_order_relaxed)) {
          const size_t depth = server_.queue_depth();
          if (depth > max_.load(std::memory_order_relaxed)) {
            max_.store(depth, std::memory_order_relaxed);
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      }) {}

DepthSampler::~DepthSampler() {
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
}

void TraceSubmit(Tracer& tracer, Clock::time_point start,
                 Clock::time_point end, double exec_seconds, uint64_t query) {
  if (!tracer.enabled()) return;
  const uint64_t id = tracer.NewId();
  tracer.Record("serve.Submit", start, end, 0, query, id);
  const auto exec = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(exec_seconds));
  tracer.Record("serve.exec", std::max(start, end - exec), end, id, query);
}

void CountIo(Tracer& tracer, const IoStatsSnapshot& io) {
  tracer.Count("io.blocks_read", static_cast<double>(io.blocks_read));
  tracer.Count("io.blocks_written", static_cast<double>(io.blocks_written));
  tracer.Count("io.retries",
               static_cast<double>(io.reads_retried + io.writes_retried));
  tracer.Count("index.shards_pruned", static_cast<double>(io.shards_pruned));
  tracer.Count("index.bound_skips", static_cast<double>(io.bound_skips));
}

void ReportServeSpans(const std::vector<Span>& spans, Report* report) {
  const std::vector<double> exec = DurationsMs(spans, "serve.exec");
  const std::vector<double> wait = SelfTimesMs(spans, "serve.Submit");
  const std::string n = "n=" + std::to_string(wait.size());
  double q = 0.0;
  report->Set("serve.exec_p50_ms", Percentile(exec, 0.5), n);
  report->Set("serve.queue_wait_p50_ms", Percentile(wait, 0.5), n);
  const double tail = TailP99(wait, &q);
  report->Set("serve.queue_wait_p99_ms", tail,
              n + (q < 1.0 ? " (p99)" : " (max: too few samples for p99)"));
}

void ReportTraceOverhead(const std::vector<double>& untraced_ms,
                         const std::vector<double>& traced_ms, Report* report) {
  const double base = Percentile(untraced_ms, 0.5);
  const double traced = Percentile(traced_ms, 0.5);
  report->Set("trace.overhead_pct",
              base > 0 ? (traced - base) / base * 100.0 : 0.0,
              "p50 traced " + std::to_string(traced) + " ms vs untraced " +
                  std::to_string(base) + " ms");
}

namespace {

// Keeps kernel results observable so the timed calls cannot be elided.
volatile double g_sink = 0.0;

// Median wall time in ms of `reps` calls of `fn`, each inside a span.
template <typename Fn>
double MedianMs(Tracer& tracer, const char* span, int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    ScopedSpan s(tracer, span);
    const Clock::time_point t0 = Clock::now();
    fn();
    ms.push_back(Ms(t0, Clock::now()));
  }
  return Percentile(ms, 0.5);
}

}  // namespace

KernelInputs ServeKernelInputs(const ServeStack& stack, size_t memory_bytes) {
  KernelInputs in;
  in.objects = &stack.objects;
  in.env = stack.env.get();
  in.object_file = "objects";
  in.memory_bytes = memory_bytes;
  in.index = stack.handle->agg_index();
  const auto& shards = stack.handle->shards();
  auto shard = maxrs::ReadRecordFile<SpatialObject>(
      *stack.env, shards[shards.size() / 2].y_file);
  if (shard.ok()) in.shard_objects = std::move(shard).value();
  return in;
}

void RunKernels(const KernelInputs& in, uint64_t seed, Tracer& tracer,
                Report* report) {
  maxrs::Rng rng(seed ^ 0x6b65726e656c73ULL);
  const std::vector<SpatialObject>& objects = *in.objects;

  // core: PlaneSweep over the pieces of a 10k-object sample.
  std::vector<PieceRecord> sample;
  const size_t sample_n = std::min<size_t>(10000, objects.size());
  for (size_t i = 0; i < sample_n; ++i) {
    sample.push_back(maxrs::TransformObject(
        objects[rng.UniformU64(objects.size())], 1000.0, 1000.0));
  }
  const double sweep_ms = MedianMs(tracer, "core.PlaneSweep", 7, [&] {
    g_sink = g_sink +
             maxrs::PlaneSweep(sample, maxrs::Interval{-maxrs::kInf, maxrs::kInf})
                 .size();
  });
  report->Set("core.plane_sweep_ms_per_10k",
              sweep_ms * 10000.0 / static_cast<double>(sample_n),
              std::to_string(sample_n) + " pieces");

  // core: SegmentTree range-add + max-interval mix, per operation.
  constexpr size_t kLeaves = 20000, kOps = 200000;
  const double tree_ms = MedianMs(tracer, "core.SegmentTree", 5, [&] {
    maxrs::SegmentTree tree(kLeaves);
    maxrs::Rng ops(seed);
    for (size_t i = 0; i < kOps; ++i) {
      const size_t a = ops.UniformU64(kLeaves), b = ops.UniformU64(kLeaves);
      tree.RangeAdd(std::min(a, b), std::max(a, b), (i & 1) ? 1.0 : -0.5);
      if (i % 4 == 3) g_sink = g_sink + tree.MaxInterval().value;
    }
  });
  report->Set("core.segtree_ns_per_op", tree_ms * 1e6 / kOps,
              "RangeAdd, MaxInterval every 4th");

  // core: the in-memory solve of one shard's objects.
  if (!in.shard_objects.empty()) {
    const double solve_ms = MedianMs(tracer, "core.ExactMaxRSInMemory", 5, [&] {
      g_sink = g_sink +
               maxrs::ExactMaxRSInMemory(in.shard_objects, 1000.0, 1000.0)
                   .total_weight;
    });
    report->Set("core.inmem_solve_ms", solve_ms,
                std::to_string(in.shard_objects.size()) + " objects");
  }

  // io (util/crc32c): CRC32C over 4 KB blocks.
  std::vector<char> bytes(1 << 20);
  for (char& c : bytes) c = static_cast<char>(rng.NextU64());
  constexpr int kPasses = 16;
  const double crc_ms = MedianMs(tracer, "util.Crc32c", 5, [&] {
    uint32_t acc = 0;
    for (int p = 0; p < kPasses; ++p) {
      for (size_t off = 0; off < bytes.size(); off += kBlockSize) {
        acc ^= maxrs::Crc32c(bytes.data() + off, kBlockSize);
      }
    }
    g_sink = g_sink + acc;
  });
  const double crc_bytes = static_cast<double>(bytes.size()) * kPasses;
  report->Set("io.crc32c_gbps", crc_bytes / (crc_ms * 1e-3) / 1e9);

  // io: the record codec, writing and reading every object's piece.
  std::vector<PieceRecord> pieces;
  pieces.reserve(objects.size());
  for (const SpatialObject& o : objects) {
    pieces.push_back(maxrs::TransformObject(o, 1000.0, 1000.0));
  }
  auto scratch = maxrs::NewMemEnv(kBlockSize);
  bool io_ok = true;
  const double write_ms = MedianMs(tracer, "io.WriteRecordFile", 5, [&] {
    io_ok &= maxrs::WriteRecordFile(*scratch, "pieces", pieces).ok();
  });
  const double read_ms = MedianMs(tracer, "io.ReadRecordFile", 5, [&] {
    auto back = maxrs::ReadRecordFile<PieceRecord>(*scratch, "pieces");
    io_ok &= back.ok() && back->size() == pieces.size();
  });
  if (!io_ok) report->Fail("record file round trip failed");
  const double mb = static_cast<double>(pieces.size() * sizeof(PieceRecord)) / 1e6;
  report->Set("io.record_write_mbps", mb / (write_ms * 1e-3),
              std::to_string(pieces.size()) + " PieceRecords");
  report->Set("io.record_read_mbps", mb / (read_ms * 1e-3));

  // io: ExternalSort of the workload's object file.
  maxrs::ExternalSortOptions sort_options;
  sort_options.memory_bytes = in.memory_bytes;
  bool sort_ok = true;
  const double sort_ms = MedianMs(tracer, "io.ExternalSort", 3, [&] {
    sort_ok &= maxrs::ExternalSort<SpatialObject>(*in.env, in.object_file,
                                                  "perfbench_sorted",
                                                  maxrs::ObjectYLess,
                                                  sort_options)
                   .ok();
    sort_ok &= in.env->Delete("perfbench_sorted").ok();
  });
  if (!sort_ok) report->Fail("external sort failed");
  report->Set("io.external_sort_s", sort_ms / 1e3,
              std::to_string(objects.size()) + " objects, M=" +
                  std::to_string(in.memory_bytes / 1024) + " KB");

  // index: the aggregate tree's window bound.
  if (in.index != nullptr) {
    constexpr int kCalls = 100000;
    const double ww_ms = MedianMs(tracer, "index.WindowWeight", 5, [&] {
      maxrs::Rng windows(seed);
      double acc = 0.0;
      for (int i = 0; i < kCalls; ++i) {
        const double lo = windows.Uniform(0.0, 1e6);
        acc += in.index->WindowWeight(lo, lo + 1000.0);
      }
      g_sink = g_sink + acc;
    });
    report->Set("index.window_weight_us", ww_ms * 1e3 / kCalls);
  }
}

}  // namespace perfbench

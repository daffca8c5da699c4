// oneshot: the paper's algorithm. Sequential RunExactMaxRS calls over an
// object file of 250,000 uniform points on [0, 10^6]^2 with M = 1 MB and
// one thread per CPU, a distinct seeded rect per solve. The data is about
// 6x M, so the external sorts (write-heavy) and the division/MergeSweep
// recursion dominate — where serve_cold is read-dominated shard scans that
// fit in M.
#include <algorithm>
#include <string>
#include <vector>

#include "bench.h"
#include "datagen/dataset_io.h"
#include "datagen/generators.h"
#include "util/rng.h"

namespace perfbench {

namespace {

constexpr uint64_t kCardinality = 250000;

struct Staged {
  std::unique_ptr<maxrs::Env> env;
  std::vector<maxrs::SpatialObject> objects;
};

}  // namespace

void RunOneshot(const RunConfig& config, Tracer& tracer, Report* report) {
  // Set-up, kSetups times: data generation and staging the object file.
  tracer.set_enabled(config.trace);
  Staged staged;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    staged = Staged{};
    ScopedSpan span(tracer, "setup.stage");
    const Clock::time_point t0 = Clock::now();
    maxrs::SyntheticOptions data;
    data.cardinality = kCardinality;
    data.domain_size = 1e6;
    data.seed = config.seed;
    staged.objects = maxrs::MakeUniform(data);
    staged.env = maxrs::NewMemEnv(kBlockSize);
    if (!maxrs::WriteDataset(*staged.env, "objects", staged.objects).ok()) {
      report->Fail("staging the object file failed");
      return;
    }
    setup_s.push_back(Ms(t0, Clock::now()) / 1e3);
  }

  // Solves until the window is spent; the traced run traces every other.
  maxrs::Rng rng(config.seed ^ 0x6f6e6573686f74ULL);
  std::vector<maxrs::MaxRSStats> ops;
  std::vector<std::pair<double, double>> rects;
  std::vector<maxrs::MaxRSResult> results;
  std::vector<double> latency_ms, traced_ms, untraced_ms;
  const maxrs::IoStatsSnapshot io_before = staged.env->stats().Snapshot();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  for (uint64_t i = 0; Clock::now() < end; ++i) {
    const bool traced = config.trace && i % 2 == 1;
    tracer.set_enabled(traced);
    maxrs::MaxRSOptions options;
    options.rect_width = rng.Uniform(500.0, 1500.0);
    options.rect_height = rng.Uniform(500.0, 1500.0);
    options.memory_bytes = kBufferSynthetic;
    options.num_threads = config.nproc;
    options.work_prefix = "solve" + std::to_string(i);
    ++report->attempted;
    const Clock::time_point t0 = Clock::now();
    maxrs::Result<maxrs::MaxRSResult> result = maxrs::Status::Internal("unset");
    {
      ScopedSpan span(tracer, "core.RunExactMaxRS", 0, i + 1);
      result = maxrs::RunExactMaxRS(*staged.env, "objects", options);
    }
    const double ms = Ms(t0, Clock::now());
    if (!result.ok()) {
      ++report->failed;
      report->Fail("RunExactMaxRS failed: " + result.status().ToString());
      continue;
    }
    CountIo(tracer, result->stats.io);
    latency_ms.push_back(ms);
    (traced ? traced_ms : untraced_ms).push_back(ms);
    ops.push_back(result->stats);
    rects.emplace_back(options.rect_width, options.rect_height);
    results.push_back(result.value());
  }
  tracer.set_enabled(false);
  const double window_s = Ms(start, Clock::now()) / 1e3;
  const maxrs::IoStatsSnapshot io = staged.env->stats().Snapshot() - io_before;

  // Correctness, outside the timed window: every solve against the
  // in-memory solve of the same objects.
  for (size_t i = 0; i < results.size(); ++i) {
    const auto [w, h] = rects[i];
    if (!CheckAnswer(staged.objects, w, h, results[i], report)) {
      ++report->failed;
    }
  }

  ReportLatency(latency_ms, window_s, report);
  report->Set("setup_s", Percentile(setup_s, 0.5),
              "median of " + std::to_string(kSetups) + " set-ups");
  report->Set("peak_rss_mb", PeakRssMb());
  ReportExecutedOps(ops, io, /*shards=*/0, report);

  if (!config.trace) return;
  ReportTraceOverhead(untraced_ms, traced_ms, report);
  // One "shard" of this data: the eighth of the objects lowest in x.
  std::vector<maxrs::SpatialObject> by_x = staged.objects;
  std::sort(by_x.begin(), by_x.end(), maxrs::ObjectXLess);
  by_x.resize(by_x.size() / kShards);
  KernelInputs kernels;
  kernels.objects = &staged.objects;
  kernels.env = staged.env.get();
  kernels.object_file = "objects";
  kernels.memory_bytes = kBufferSynthetic;
  kernels.shard_objects = std::move(by_x);
  tracer.set_enabled(true);
  RunKernels(kernels, config.seed, tracer, report);
  tracer.set_enabled(false);
}

}  // namespace perfbench

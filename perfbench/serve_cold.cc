// serve_cold: closed loop, in process. One caller thread per CPU blocks on
// MaxRSServer::Submit; every rect is distinct (w and h uniform in
// [500, 1500]), so nothing hits the cache or dedups and every query runs
// serve execution, index planning, core sweeps and io framing/CRC. It runs
// in process because over TCP a cold answer leaves only at the next inbound
// byte or the reader's poll tick, which would hide any compute gain
// (README.md, poll quantization).
#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "util/rng.h"

namespace perfbench {

namespace {

// Untimed closed-loop traffic before the window.
constexpr double kWarmupSeconds = 1.0;
// The window runs as segments; the traced run traces every other one.
constexpr int kSegments = 4;
// Answers per run checked against the in-memory solve.
constexpr size_t kChecked = 8;

struct ColdQuery {
  double w = 0.0;
  double h = 0.0;
  bool ok = false;
  bool traced = false;
  double latency_ms = 0.0;
  maxrs::ServedFrom served = maxrs::ServedFrom::kExecuted;
  maxrs::MaxRSResult result;
};

}  // namespace

void RunServeCold(const RunConfig& config, Tracer& tracer, Report* report) {
  tracer.set_enabled(config.trace);
  std::unique_ptr<ServeStack> stack;
  std::vector<double> setup_s, ingest_s;
  for (int i = 0; i < kSetups; ++i) {
    stack.reset();
    const Clock::time_point t0 = Clock::now();
    stack = BuildServeStack(config.seed, kBufferReal, config.nproc,
                            /*with_net=*/false, tracer, report);
    if (stack == nullptr) return;
    setup_s.push_back(Ms(t0, Clock::now()) / 1e3);
    ingest_s.push_back(stack->ingest_s);
  }

  std::vector<std::vector<ColdQuery>> per_caller(config.nproc);
  maxrs::ServerCounters window;
  // The Env's counters at the start of the first timed segment. They are
  // read only while no query runs, so the window's totals are exact, where
  // per-query shares overlap under concurrency.
  maxrs::IoStatsSnapshot window_io_start;
  double wall_ms = 0.0;
  std::atomic<uint64_t> next_query{1};
  std::unique_ptr<DepthSampler> sampler;
  if (config.trace) sampler = std::make_unique<DepthSampler>(*stack->server);
  const auto seconds = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  };
  // Segment -1 is the untimed warm-up.
  for (int seg = -1; seg < kSegments; ++seg) {
    const bool timed = seg >= 0;
    const bool traced = config.trace && seg % 2 == 1;
    tracer.set_enabled(traced);
    const maxrs::ServerCounters before = stack->server->counters();
    const maxrs::IoStatsSnapshot io_before = stack->env->stats().Snapshot();
    if (seg == 0) window_io_start = io_before;
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + seconds(timed ? config.seconds / kSegments : kWarmupSeconds);
    std::vector<std::thread> callers;
    for (size_t c = 0; c < config.nproc; ++c) {
      callers.emplace_back([&, c] {
        maxrs::Rng rng(config.seed * 0x9e3779b97f4a7c15ULL + c * 64 +
                       static_cast<uint64_t>(seg + 1));
        while (Clock::now() < end) {
          ColdQuery q;
          q.traced = traced;
          q.w = rng.Uniform(500.0, 1500.0);
          q.h = rng.Uniform(500.0, 1500.0);
          const Clock::time_point t0 = Clock::now();
          auto response = stack->server->Submit(Spec(q.w, q.h));
          const Clock::time_point t1 = Clock::now();
          q.latency_ms = Ms(t0, t1);
          q.ok = response.ok();
          if (q.ok) {
            q.served = response->served_from;
            q.result = response->result;
            TraceSubmit(tracer, t0, t1, q.result.stats.wall_seconds,
                        next_query.fetch_add(1, std::memory_order_relaxed));
          }
          if (timed) per_caller[c].push_back(std::move(q));
        }
      });
    }
    for (std::thread& t : callers) t.join();
    if (!timed) continue;
    wall_ms += Ms(start, Clock::now());
    AddCounters(before, stack->server->counters(), &window);
    CountIo(tracer, stack->env->stats().Snapshot() - io_before);
  }
  tracer.set_enabled(false);
  const maxrs::IoStatsSnapshot window_io =
      stack->env->stats().Snapshot() - window_io_start;

  std::vector<const ColdQuery*> all;
  std::vector<maxrs::MaxRSStats> executed;
  std::vector<double> latency_ms, traced_ms, untraced_ms;
  for (const auto& queries : per_caller) {
    for (const ColdQuery& q : queries) {
      all.push_back(&q);
      latency_ms.push_back(q.latency_ms);
      (q.traced ? traced_ms : untraced_ms).push_back(q.latency_ms);
      if (!q.ok || q.served != maxrs::ServedFrom::kExecuted) {
        ++report->failed;
        continue;
      }
      executed.push_back(q.result.stats);
    }
  }
  report->attempted = all.size();
  if (report->failed > 0) report->Fail("some Submits failed or were not executed");

  // Validity: no cache hit and no dedup in the window.
  if (window.cache_hits != 0 || window.dedup_hits != 0) {
    report->Fail("cold window saw " + std::to_string(window.cache_hits) +
                 " cache hits and " + std::to_string(window.dedup_hits) +
                 " dedup hits");
  }

  // Correctness on a seeded sample, outside the timed window.
  maxrs::Rng pick(config.seed ^ 0x636865636bULL);
  for (size_t i = 0; i < kChecked && !all.empty(); ++i) {
    const ColdQuery& q = *all[pick.UniformU64(all.size())];
    if (q.ok) CheckAnswer(stack->objects, q.w, q.h, q.result, report);
  }

  ReportLatency(latency_ms, wall_ms / 1e3, report);
  report->Set("setup_s", Percentile(setup_s, 0.5),
              "median of " + std::to_string(kSetups) + " set-ups");
  report->Set("peak_rss_mb", PeakRssMb());
  ReportExecutedOps(executed, window_io, kShards, report);

  if (!config.trace) return;
  ReportServeCounters(window, report);
  report->Set("serve.queue_depth_max", static_cast<double>(sampler->max()));
  sampler.reset();
  report->Set("setup.ingest_s", Percentile(ingest_s, 0.5));
  report->Set("setup.ingest_io_blocks",
              static_cast<double>(stack->ingest_blocks));
  ReportTraceOverhead(untraced_ms, traced_ms, report);
  ReportServeSpans(tracer.spans(), report);

  tracer.set_enabled(true);
  RunKernels(ServeKernelInputs(*stack, kBufferReal), config.seed, tracer,
             report);
  tracer.set_enabled(false);
}

}  // namespace perfbench

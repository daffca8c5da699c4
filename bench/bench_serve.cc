// Serve-layer throughput tracker: ingests one dataset, then measures the
// MaxRSServer on a scripted workload of distinct rectangle sizes — cold
// (every query executes the full per-query pipeline, "serve_cold") and
// warm (every query is an LRU hit, "serve_warm") — at 1/2/8 workers,
// emitted as BENCH_serve.json. A clustered round re-runs the cold workload
// on a weight-skewed dataset ("serve_cold_clustered"). Together with
// BENCH_micro.json this is the repo's machine-readable perf
// trajectory (docs/BENCHMARKING.md; compare_bench.py --plot renders it).
//
// Flags:
//   --n=250000         dataset cardinality (uniform data)
//   --threads=1,2,8    comma-separated worker counts
//   --queries=32       distinct rects per round
//   --shards=8         x-slab shard count (0 derives)
//   --json=PATH        output path (default BENCH_serve.json)
//   --quick            small dataset / workload for CI smoke
//   --seed=N           dataset seed
//
// The bench asserts the serve contract on live data: per-query results are
// identical at every worker count and cache state, and a
// warm round performs zero block transfers.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "datagen/dataset_io.h"
#include "serve/dataset_handle.h"
#include "serve/maxrs_server.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/stopwatch.h"

using namespace maxrs;
using namespace maxrs::bench;

namespace {

// A deterministic scripted workload: `count` distinct rect sizes spread
// around the paper's default 1000 x 1000 query.
std::vector<std::pair<double, double>> MakeWorkload(size_t count) {
  std::vector<std::pair<double, double>> rects;
  rects.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    rects.emplace_back(400.0 + 97.0 * static_cast<double>(i % 17),
                       1600.0 - 83.0 * static_cast<double>(i % 13));
  }
  return rects;
}

// Skewed dataset for the clustered round: half the mass sits in one
// rect-sized cluster near the domain's far end, the rest spreads uniformly
// — so whole x-slabs away from the cluster hold less total weight than one
// well-placed rect captures.
std::vector<SpatialObject> MakeClustered(uint64_t n, uint64_t seed) {
  std::vector<SpatialObject> objects = MakeDistribution("uniform", n, seed);
  for (size_t i = 0; i < objects.size(); i += 2) {
    objects[i].x = 900000.0 + std::fmod(objects[i].x, 800.0);
    objects[i].y = 500000.0 + std::fmod(objects[i].y, 800.0);
  }
  return objects;
}

// Submits the whole workload from `clients` concurrent client threads
// (round-robin assignment) and returns the covered weights in workload
// order. Wall time spans first submit to last completion.
std::vector<double> RunRound(MaxRSServer& server,
                             const std::vector<std::pair<double, double>>& rects,
                             size_t clients, double* wall_seconds) {
  std::vector<double> weights(rects.size(), 0.0);
  Stopwatch timer;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (size_t i = c; i < rects.size(); i += clients) {
        QuerySpec spec;
        spec.width = rects[i].first;
        spec.height = rects[i].second;
        auto result = server.Submit(spec);
        MAXRS_CHECK_MSG(result.ok(), "serve query failed");
        weights[i] = result->result.total_weight;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  *wall_seconds = timer.ElapsedSeconds();
  return weights;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.Parse(argc, argv);
  const bool quick = flags.GetBool("quick", false);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const uint64_t n =
      static_cast<uint64_t>(flags.GetInt("n", quick ? 20000 : 250000));
  const size_t num_queries =
      static_cast<size_t>(flags.GetInt("queries", quick ? 8 : 32));
  const size_t shard_count = static_cast<size_t>(flags.GetInt("shards", 8));
  const std::string json_path = flags.GetString("json", "BENCH_serve.json");
  const std::vector<uint64_t> thread_counts =
      ParseU64List(flags.GetString("threads", quick ? "1,2" : "1,2,8"));
  MAXRS_CHECK(!thread_counts.empty());
  MAXRS_CHECK_MSG(num_queries > 0, "--queries must be positive");

  const auto objects = MakeDistribution("uniform", n, seed);
  const auto rects = MakeWorkload(num_queries);

  std::printf("\n=== bench_serve: uniform n=%" PRIu64 ", %zu distinct rects, "
              "%zu shards (M=%zuKB) ===\n",
              n, rects.size(), shard_count, kBufferSynthetic >> 10);
  std::printf("%-12s%10s%12s%14s%16s%16s\n", "round", "workers", "qps",
              "s/query", "I/O/query", "blocks total");

  std::vector<BenchRecord> records;
  std::vector<double> reference_weights;
  for (uint64_t t : thread_counts) {
    const size_t workers = static_cast<size_t>(t);
    auto env = NewMemEnv(kBlockSize);
    MAXRS_CHECK_OK(WriteDataset(*env, "dataset", objects));

    DatasetHandleOptions ingest_options;
    ingest_options.shard_count = shard_count;
    ingest_options.memory_bytes = kBufferSynthetic;
    ingest_options.num_threads = workers;
    auto handle = DatasetHandle::Ingest(*env, "dataset", ingest_options);
    MAXRS_CHECK_MSG(handle.ok(), "ingest failed");

    MaxRSServerOptions server_options;
    server_options.num_workers = workers;
    server_options.memory_bytes = kBufferSynthetic;
    server_options.cache_entries = rects.size();  // warm round = all hits
    // Huge-rect admission must not skew the warm round: the scripted
    // workload's rects are all well below half the extent, but the bench
    // should not silently depend on that.
    server_options.cache_max_extent_fraction = 1.0;
    MaxRSServer server(*env, *handle, server_options);

    for (const bool warm : {false, true}) {
      const IoStatsSnapshot before = env->stats().Snapshot();
      double wall = 0.0;
      const std::vector<double> weights =
          RunRound(server, rects, workers, &wall);
      const uint64_t io = (env->stats().Snapshot() - before).total();

      // The serve contract, checked on live data: worker count and cache
      // state never change an answer; a warm round does zero I/O.
      if (reference_weights.empty()) {
        reference_weights = weights;
      } else {
        MAXRS_CHECK_MSG(weights == reference_weights,
                        "worker count or cache state changed a result");
      }
      if (warm) MAXRS_CHECK_MSG(io == 0, "warm round performed I/O");

      const double per_query = wall / static_cast<double>(rects.size());
      std::printf("%-12s%10zu%12.1f%14.6f%16" PRIu64 "%16" PRIu64 "\n",
                  warm ? "warm" : "cold", workers,
                  wall > 0.0 ? static_cast<double>(rects.size()) / wall : 0.0,
                  per_query, io / rects.size(), io);
      // io_blocks records the round's TOTAL transfers: exact, so the CI
      // baseline diff flags any growth (a truncated per-query average
      // could hide a small regression).
      records.push_back({"bench_serve", warm ? "serve_warm" : "serve_cold",
                         "uniform", n, workers,
                         kBufferSynthetic, per_query, io, weights[0]});
    }
  }

  // Clustered round: the same cold serve pipeline on the skewed dataset.
  // The workload mixes selective rects with one full-extent rect (whose
  // window reaches every shard), and the weights must match across worker
  // counts.
  const auto clustered = MakeClustered(n, seed);
  auto clustered_rects = MakeWorkload(num_queries);
  clustered_rects[0] = {1e6, 1e6};
  std::vector<double> clustered_reference;
  for (uint64_t t : thread_counts) {
    const size_t workers = static_cast<size_t>(t);
    auto env = NewMemEnv(kBlockSize);
    MAXRS_CHECK_OK(WriteDataset(*env, "dataset", clustered));

    DatasetHandleOptions ingest_options;
    ingest_options.shard_count = shard_count;
    ingest_options.memory_bytes = kBufferSynthetic;
    ingest_options.num_threads = workers;
    auto handle = DatasetHandle::Ingest(*env, "dataset", ingest_options);
    MAXRS_CHECK_MSG(handle.ok(), "ingest failed");

    MaxRSServerOptions options;
    options.num_workers = workers;
    options.memory_bytes = kBufferSynthetic;
    options.cache_entries = 0;  // cold by construction
    options.cache_max_extent_fraction = 1.0;
    MaxRSServer server(*env, *handle, options);
    const IoStatsSnapshot before = env->stats().Snapshot();
    double wall = 0.0;
    const std::vector<double> weights =
        RunRound(server, clustered_rects, workers, &wall);
    const uint64_t io = (env->stats().Snapshot() - before).total();
    if (clustered_reference.empty()) {
      clustered_reference = weights;
    } else {
      MAXRS_CHECK_MSG(weights == clustered_reference,
                      "worker count changed a clustered result");
    }

    const double per_query =
        wall / static_cast<double>(clustered_rects.size());
    std::printf("%-12s%10zu%12.1f%14.6f%16" PRIu64 "%16" PRIu64 "\n",
                "cold_clust", workers,
                wall > 0.0
                    ? static_cast<double>(clustered_rects.size()) / wall
                    : 0.0,
                per_query, io / clustered_rects.size(), io);
    records.push_back({"bench_serve", "serve_cold_clustered", "clustered", n,
                       workers, kBufferSynthetic, per_query, io, weights[0]});
  }

  if (!WriteBenchJson(json_path, records)) return 1;
  std::printf("\nwrote %zu records to %s\n", records.size(), json_path.c_str());
  return 0;
}

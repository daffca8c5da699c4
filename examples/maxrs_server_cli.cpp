// maxrs_server_cli: the serve-layer counterpart of maxrs_cli — loads (or
// generates) a dataset ONCE, ingests it into a sharded DatasetHandle (the
// two object sorts run here and never again), then answers a scripted
// workload of MaxRS queries of varying rectangle sizes on a MaxRSServer.
//
//   $ ./maxrs_server_cli --demo --queries=1000x1000,500x2000,250x250
//   $ ./maxrs_server_cli --input=points.csv --queries=800x800 --repeat=3
//   $ ./maxrs_server_cli --demo --workers=4 --shards=8
//   $ ./maxrs_server_cli --demo --chaos_seed=7 --retry_budget=5 --deadline_ms=2000
//
// Each query line reports the optimal location, the covered weight, and the
// block I/O the query added — repeat rounds hit the LRU cache and report 0.
// --workers=K serves up to K queries concurrently (submitted from K client
// threads); results are identical for any worker count.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datagen/dataset_io.h"
#include "datagen/generators.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "io/retry_env.h"
#include "serve/dataset_handle.h"
#include "serve/maxrs_server.h"
#include "util/flags.h"

using namespace maxrs;

namespace {

// Parses "WxH,WxH,..." into rect dimensions; returns false on bad syntax.
bool ParseQueries(const std::string& spec,
                  std::vector<std::pair<double, double>>* out) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    const size_t x = item.find('x');
    if (x == std::string::npos || x == 0 || x + 1 >= item.size()) return false;
    char* end = nullptr;
    const double w = std::strtod(item.c_str(), &end);
    if (end != item.c_str() + x) return false;  // trailing garbage before 'x'
    const double h = std::strtod(item.c_str() + x + 1, &end);
    if (end != item.c_str() + item.size()) return false;  // ... after it
    if (!(w > 0.0) || !(h > 0.0)) return false;
    out->emplace_back(w, h);
    pos = comma + 1;
  }
  return !out->empty();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.Parse(argc, argv);

  std::vector<SpatialObject> objects;
  if (flags.GetBool("demo", false)) {
    SyntheticOptions demo;
    demo.cardinality = static_cast<uint64_t>(flags.GetInt("n", 100000));
    demo.domain_size = 1e6;
    demo.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    objects = MakeGaussian(demo);
    std::printf("demo dataset: %zu Gaussian points in [0, 1e6]^2\n",
                objects.size());
  } else {
    const std::string input = flags.GetString("input", "");
    if (input.empty()) {
      std::fprintf(
          stderr,
          "usage: maxrs_server_cli --input=points.csv --queries=WxH[,WxH...]\n"
          "       maxrs_server_cli --demo [--n=100000]\n"
          "flags: --workers=K --shards=S --repeat=R --cache=E --memory-kb=M\n"
          "       --pool-kb=N (shared buffer pool over the dataset files;\n"
          "                    0 = off)\n"
          "       --deadline_ms=D (per-query deadline; 0 = none)\n"
          "       --retry_budget=R (transient-fault retries per block op)\n"
          "       --chaos_seed=S (inject a seeded fault schedule at serve "
          "time)\n");
      return 2;
    }
    auto loaded = LoadCsv(input);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", input.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    objects = std::move(loaded).value();
    std::printf("loaded %zu objects from %s\n", objects.size(), input.c_str());
  }

  std::vector<std::pair<double, double>> rects;
  if (!ParseQueries(
          flags.GetString("queries", "1000x1000,500x2000,2000x500,250x250"),
          &rects)) {
    std::fprintf(stderr, "bad --queries; expected WxH,WxH,...\n");
    return 2;
  }
  const size_t workers = static_cast<size_t>(flags.GetInt("workers", 2));
  const size_t repeat = static_cast<size_t>(flags.GetInt("repeat", 2));
  const size_t memory_bytes =
      static_cast<size_t>(flags.GetInt("memory-kb", 1024)) << 10;

  auto env = NewMemEnv(4096);
  if (Status st = WriteDataset(*env, "dataset", objects); !st.ok()) {
    std::fprintf(stderr, "staging failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // Ingest once: the last external sorts this dataset will ever need.
  DatasetHandleOptions ingest_options;
  ingest_options.shard_count = static_cast<size_t>(flags.GetInt("shards", 0));
  ingest_options.memory_bytes = memory_bytes;
  ingest_options.num_threads = workers;
  auto handle = DatasetHandle::Ingest(*env, "dataset", ingest_options);
  if (!handle.ok()) {
    std::fprintf(stderr, "ingest failed: %s\n",
                 handle.status().ToString().c_str());
    return 1;
  }
  std::printf("ingested %llu objects into %zu x-slab shards "
              "(%llu block transfers, %.3fs)\n",
              static_cast<unsigned long long>(handle->num_objects()),
              handle->shards().size(),
              static_cast<unsigned long long>(handle->ingest_stats().io.total()),
              handle->ingest_stats().wall_seconds);

  // Serve-time robustness stack: ingest above ran clean on the base Env
  // (recovery of damaged persistent state is DatasetHandle::Open's job);
  // --chaos_seed injects a seeded fault schedule into every query-time
  // block transfer, and --retry_budget absorbs the transient share of it.
  Env* serve_env = env.get();
  std::unique_ptr<ChaosEnv> chaos;
  const int64_t chaos_seed = flags.GetInt("chaos_seed", 0);
  if (chaos_seed > 0) {
    ChaosOptions chaos_options;
    chaos_options.seed = static_cast<uint64_t>(chaos_seed);
    chaos_options.transient_fault_p = 0.01;
    chaos_options.permanent_fault_p = 0.0005;
    chaos_options.bit_flip_read_p = 0.0005;
    chaos_options.torn_write_p = 0.0005;
    chaos = std::make_unique<ChaosEnv>(*serve_env, chaos_options);
    serve_env = chaos.get();
    std::printf("chaos: seed %lld fault schedule armed on serve-time I/O\n",
                static_cast<long long>(chaos_seed));
  }
  std::unique_ptr<RetryEnv> retry;
  const int64_t retry_budget =
      flags.GetInt("retry_budget", chaos_seed > 0 ? 3 : 0);
  if (retry_budget > 0) {
    RetryPolicy policy;
    policy.max_retries = static_cast<int>(retry_budget);
    policy.initial_backoff = std::chrono::microseconds(100);
    retry = std::make_unique<RetryEnv>(*serve_env, policy);
    serve_env = retry.get();
  }

  MaxRSServerOptions server_options;
  server_options.num_workers = workers;
  server_options.memory_bytes = memory_bytes;
  server_options.cache_entries =
      static_cast<size_t>(flags.GetInt("cache", 16));
  server_options.deadline_ms =
      static_cast<int64_t>(flags.GetInt("deadline_ms", 0));
  server_options.buffer_pool_bytes =
      static_cast<size_t>(flags.GetInt("pool-kb", 0)) << 10;
  MaxRSServer server(*serve_env, *handle, server_options);

  std::printf("\n%-6s%14s%14s%24s%16s%14s\n", "round", "rect", "weight",
              "location", "I/O (blocks)", "result");
  bool failed = false;
  for (size_t round = 0; round < repeat; ++round) {
    // Submit the round from `workers` client threads so up to that many
    // queries are genuinely in flight at once.
    // Seed with a real error so an index a client somehow skips reads as a
    // visible failure, not an empty-but-ok() Result (which would be UB to
    // dereference).
    std::vector<Result<QueryResponse>> results(
        rects.size(), Status::Internal("query was never submitted"));
    std::vector<std::thread> clients;
    const size_t num_clients = std::min(workers == 0 ? 1 : workers, rects.size());
    clients.reserve(num_clients);
    for (size_t c = 0; c < num_clients; ++c) {
      clients.emplace_back([&, c] {
        for (size_t i = c; i < rects.size(); i += num_clients) {
          QuerySpec spec;
          spec.width = rects[i].first;
          spec.height = rects[i].second;
          results[i] = server.Submit(spec);
        }
      });
    }
    for (std::thread& t : clients) t.join();

    for (size_t i = 0; i < rects.size(); ++i) {
      char rect_label[64], location[64];
      std::snprintf(rect_label, sizeof(rect_label), "%gx%g", rects[i].first,
                    rects[i].second);
      if (!results[i].ok()) {
        std::printf("%-6zu%14s  query failed: %s\n", round, rect_label,
                    results[i].status().ToString().c_str());
        failed = true;
        continue;
      }
      // QueryResponse.io is this submission's own share of the block
      // transfers: exact at any worker count (cache and dedup hits read 0).
      const QueryResponse& response = results[i].value();
      std::snprintf(location, sizeof(location), "(%.2f, %.2f)",
                    response.result.location.x, response.result.location.y);
      const char* served = response.served_from == ServedFrom::kCache ? "cache"
                           : response.served_from == ServedFrom::kDedup
                               ? "dedup"
                               : "executed";
      std::printf("%-6zu%14s%14.1f%24s%16llu%14s\n", round, rect_label,
                  response.result.total_weight, location,
                  static_cast<unsigned long long>(response.io.total()),
                  served);
    }
  }

  const ServerCounters counters = server.counters();
  std::printf("\nserved %llu queries: %llu executed, %llu cache hits, "
              "%llu dedup hits, %llu cache rejects\n",
              static_cast<unsigned long long>(counters.submitted),
              static_cast<unsigned long long>(counters.executed),
              static_cast<unsigned long long>(counters.cache_hits),
              static_cast<unsigned long long>(counters.dedup_hits),
              static_cast<unsigned long long>(counters.cache_rejects));
  const IoStatsSnapshot io = env->stats().Snapshot();
  std::printf("robustness: %llu shed, %llu degraded, %llu deadline-expired, "
              "%llu corruption-rejected; %llu reads + %llu writes retried\n",
              static_cast<unsigned long long>(counters.shed),
              static_cast<unsigned long long>(counters.degraded),
              static_cast<unsigned long long>(counters.deadlines),
              static_cast<unsigned long long>(counters.corruptions),
              static_cast<unsigned long long>(io.reads_retried),
              static_cast<unsigned long long>(io.writes_retried));
  if (server_options.buffer_pool_bytes > 0) {
    const BufferPoolStats pool = server.pool_stats();
    std::printf("buffer pool: %llu hits (free), %llu misses, "
                "%llu evictions\n",
                static_cast<unsigned long long>(pool.hits),
                static_cast<unsigned long long>(pool.misses),
                static_cast<unsigned long long>(pool.evictions));
  }
  if (chaos != nullptr) {
    std::printf("chaos delivered: %llu transient, %llu permanent, "
                "%llu bit flips, %llu torn writes\n",
                static_cast<unsigned long long>(chaos->transient_faults()),
                static_cast<unsigned long long>(chaos->permanent_faults()),
                static_cast<unsigned long long>(chaos->bit_flips()),
                static_cast<unsigned long long>(chaos->torn_writes()));
  }
  return failed ? 1 : 0;
}

// Streaming equivalence battery for the zero-materialization query
// pipeline (serve/maxrs_server.h, io/record_stream.h, and the channel-based
// division of core_internal::SolveSlabStream).
//
// The serve pipeline hands every routed record through an in-memory
// channel and overlaps routing with solving — but the answer, the division
// statistics, and the schedule-independence of the per-query IoStats must
// not move:
//
//   - bit-identical answers to one-shot RunExactMaxRS across shard counts
//     {1, 2, 7, 16, 64} x worker counts {1, 2, 8}, with per-query I/O
//     deterministic within each shard count (independent of workers);
//   - a memory-cap sweep from cap=0 (every routed record spills — the
//     materialization worst case) through mid-stream-crossing caps to
//     cap=SIZE_MAX (pure in-memory hand-off): identical answers at every
//     spill level, deterministic I/O per level;
//   - the streaming division (channels between parent routing and child
//     solves), served at one shard so the whole query is one shard solve,
//     against one-shot's division (the same recursion, fed by the sorted
//     piece file with zero-cap child channels): identical answers AND
//     identical division stats (base cases, merges, spans, levels) at 1
//     and 4 workers, I/O never above the one-shot run.
#include <cstddef>
#include <limits>
#include <vector>

#include "core/exact_maxrs.h"
#include "datagen/dataset_io.h"
#include "gtest/gtest.h"
#include "io/env.h"
#include "serve/dataset_handle.h"
#include "serve/maxrs_server.h"
#include "test_util.h"

namespace maxrs {
namespace {

constexpr char kDatasetFile[] = "objects";
constexpr size_t kShardCounts[] = {1, 2, 7, 16, 64};
constexpr size_t kWorkerCounts[] = {1, 2, 8};
constexpr size_t kIngestMemoryBytes = 512 * 1024;
// 64KB derives a ~1638-piece base case: shards at low counts still divide
// internally, so the streaming recursion (not just the top level) is on.
constexpr size_t kQueryMemoryBytes = 64 * 1024;
constexpr size_t kNoCap = std::numeric_limits<size_t>::max();
const double kRects[][2] = {{260, 140}, {800, 800}};

std::unique_ptr<Env> MakeEnv(uint64_t seed, size_t n) {
  auto env = NewMemEnv(4096);
  const std::vector<SpatialObject> objects = testing::RandomIntObjects(
      n, /*extent=*/6000, seed, /*random_weights=*/true);
  EXPECT_TRUE(WriteDataset(*env, kDatasetFile, objects).ok());
  return env;
}

MaxRSServerOptions BaseServerOptions(size_t workers) {
  MaxRSServerOptions options;
  options.num_workers = workers;
  options.memory_bytes = kQueryMemoryBytes;
  options.cache_entries = 0;  // every submit pays its full pipeline
  return options;
}

void ExpectBitIdentical(const MaxRSResult& a, const MaxRSResult& b) {
  EXPECT_EQ(a.total_weight, b.total_weight);
  EXPECT_EQ(a.location, b.location);
  EXPECT_EQ(a.region, b.region);
}

// The oracle: one-shot RunExactMaxRS per rect on the same budget (integer
// weights keep every sum exact under any division tree).
std::vector<MaxRSResult> OneShotAnswers(Env& env) {
  std::vector<MaxRSResult> answers;
  for (const auto& rect : kRects) {
    MaxRSOptions options;
    options.rect_width = rect[0];
    options.rect_height = rect[1];
    options.memory_bytes = kQueryMemoryBytes;
    auto r = RunExactMaxRS(env, kDatasetFile, options);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    answers.push_back(r.ok() ? *r : MaxRSResult{});
  }
  return answers;
}

TEST(StreamingEquivalenceTest, MatchesOneShotAcrossShardAndWorkerCounts) {
  constexpr size_t kN = 2816;  // realizes all 64 shards (shard_property_test)
  const uint64_t kSeed = 3;
  for (size_t shards : kShardCounts) {
    auto env = MakeEnv(kSeed, kN);
    DatasetHandleOptions ingest;
    ingest.shard_count = shards;
    ingest.memory_bytes = kIngestMemoryBytes;
    auto handle = DatasetHandle::Ingest(*env, kDatasetFile, ingest);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    ASSERT_EQ(handle->shards().size(), shards);

    const std::vector<MaxRSResult> oracle = OneShotAnswers(*env);

    // Every worker count: bit-identical answers, I/O deterministic across
    // worker counts.
    std::vector<IoStatsSnapshot> streaming_io(2);
    bool first_config = true;
    for (size_t workers : kWorkerCounts) {
      MaxRSServer server(*env, *handle, BaseServerOptions(workers));
      for (size_t q = 0; q < 2; ++q) {
        auto served = server.Submit(kRects[q][0], kRects[q][1]);
        ASSERT_TRUE(served.ok())
            << served.status().ToString() << " (" << shards << " shards, "
            << workers << " workers)";
        ExpectBitIdentical(*served, oracle[q]);
        if (first_config) {
          streaming_io[q] = served->stats.io;
        } else {
          EXPECT_EQ(served->stats.io.blocks_read, streaming_io[q].blocks_read)
              << shards << " shards, " << workers << " workers, query " << q;
          EXPECT_EQ(served->stats.io.blocks_written,
                    streaming_io[q].blocks_written)
              << shards << " shards, " << workers << " workers, query " << q;
        }
      }
      first_config = false;
    }
  }
}

TEST(StreamingEquivalenceTest, SpillCapSweepIdenticalAtEverySpillLevel) {
  // cap=0 spills every routed record (streaming degraded to materialization
  // through single spill files), mid caps cross the threshold mid-stream,
  // kNoCap never touches the Env for routing. Answers must be identical at
  // every level; I/O per level must be deterministic across worker counts,
  // and the cap=0 run must spend strictly more than the never-spill run
  // (proving the cap actually gates Env traffic).
  constexpr size_t kN = 2816;
  constexpr size_t kShards = 7;
  auto env = MakeEnv(11, kN);
  DatasetHandleOptions ingest;
  ingest.shard_count = kShards;
  ingest.memory_bytes = kIngestMemoryBytes;
  auto handle = DatasetHandle::Ingest(*env, kDatasetFile, ingest);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  ASSERT_EQ(handle->shards().size(), kShards);

  const std::vector<MaxRSResult> oracle = OneShotAnswers(*env);

  uint64_t io_at_zero_cap = 0, io_at_no_cap = 0;
  for (size_t cap : {size_t{0}, size_t{4096}, size_t{1} << 16, kNoCap}) {
    std::vector<IoStatsSnapshot> io_per_query(2);
    bool first_config = true;
    for (size_t workers : {size_t{1}, size_t{4}}) {
      MaxRSServerOptions options = BaseServerOptions(workers);
      options.stream_channel_bytes = cap;
      MaxRSServer server(*env, *handle, options);
      for (size_t q = 0; q < 2; ++q) {
        auto served = server.Submit(kRects[q][0], kRects[q][1]);
        ASSERT_TRUE(served.ok())
            << served.status().ToString() << " (cap " << cap << ", "
            << workers << " workers)";
        ExpectBitIdentical(*served, oracle[q]);
        if (first_config) {
          io_per_query[q] = served->stats.io;
        } else {
          EXPECT_EQ(served->stats.io.blocks_read, io_per_query[q].blocks_read)
              << "cap " << cap << ", " << workers << " workers, query " << q;
          EXPECT_EQ(served->stats.io.blocks_written,
                    io_per_query[q].blocks_written)
              << "cap " << cap << ", " << workers << " workers, query " << q;
        }
      }
      first_config = false;
    }
    if (cap == 0) io_at_zero_cap = io_per_query[0].total();
    if (cap == kNoCap) io_at_no_cap = io_per_query[0].total();
  }
  EXPECT_GT(io_at_zero_cap, io_at_no_cap)
      << "cap=0 must force spill traffic the in-memory hand-off avoids";
}

TEST(StreamingEquivalenceTest, OneShardStreamDivisionMatchesMaterialized) {
  // At one shard a served query is a single SolveSlabStream over the whole
  // dataset, so every division of its recursion routes through channels
  // between the parent's routing loop and the child solves. Division
  // decisions depend only on the record sequence, so answers AND division
  // stats must match one-shot's zero-cap recursion exactly; I/O must be
  // deterministic per cap across worker counts and never above the
  // one-shot run's.
  constexpr size_t kN = 12000;  // divides 2+ levels at the 64KB budget
  const double kW = 420, kH = 260;
  auto env = MakeEnv(5, kN);

  MaxRSOptions options;
  options.rect_width = kW;
  options.rect_height = kH;
  options.memory_bytes = kQueryMemoryBytes;
  IoStatsSnapshot before = env->stats().Snapshot();
  auto materialized = RunExactMaxRS(*env, kDatasetFile, options);
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  const uint64_t materialized_io = (env->stats().Snapshot() - before).total();
  ASSERT_GT(materialized->stats.merges, 0u) << "reference must divide";

  DatasetHandleOptions ingest;
  ingest.shard_count = 1;
  ingest.memory_bytes = kIngestMemoryBytes;
  auto handle = DatasetHandle::Ingest(*env, kDatasetFile, ingest);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  ASSERT_EQ(handle->shards().size(), 1u);

  for (size_t cap : {size_t{0}, size_t{1} << 20}) {
    uint64_t io_single = 0;
    for (size_t workers : {size_t{1}, size_t{4}}) {
      MaxRSServerOptions server_options = BaseServerOptions(workers);
      server_options.stream_channel_bytes = cap;
      MaxRSServer server(*env, *handle, server_options);
      auto result = server.Submit(kW, kH);
      ASSERT_TRUE(result.ok())
          << result.status().ToString() << " (workers " << workers
          << ", cap " << cap << ")";
      ExpectBitIdentical(*result, *materialized);
      EXPECT_EQ(result->stats.base_cases, materialized->stats.base_cases);
      EXPECT_EQ(result->stats.merges, materialized->stats.merges);
      EXPECT_EQ(result->stats.total_spans, materialized->stats.total_spans);
      EXPECT_EQ(result->stats.recursion_levels,
                materialized->stats.recursion_levels);
      const uint64_t io = result->stats.io.total();
      EXPECT_LE(io, materialized_io)
          << "workers " << workers << ", cap " << cap;
      // I/O is a pure function of (input, options): the worker count must
      // not move it at either spill level.
      if (workers == 1) {
        io_single = io;
      } else {
        EXPECT_EQ(io, io_single) << "workers " << workers << ", cap " << cap;
      }
    }
  }
}

}  // namespace
}  // namespace maxrs

// Shard-count invariance property battery for the per-shard solve
// (serve/maxrs_server.h).
//
// The x-slab shards form the top-level division of the query, so changing
// the shard count changes the whole division tree — yet the answer must
// not move: every slab-file tuple carries the true max of its stratum and
// the leftmost maximal argmax interval, both pure functions of the piece
// multiset whenever weight sums are exact in double arithmetic (integer
// weights here). The battery checks bit-identical best-point/best-sum
// against the one-shot pipeline at shard counts {1, 2, 7, 16, 64} x worker
// counts {1, 2, 8}, on uniform and on weight-skewed data, that serving
// never depends on the aggregate shard index, and that the per-query I/O
// stays in the linear no-sort/no-global-merge class: a bounded envelope
// across shard counts, strictly below the sort-paying one-shot run. The channel spill-cap
// matrix lives in streaming_equivalence_test.cc.
#include <algorithm>
#include <string>
#include <utility>
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
// Ingest budget: 64 shards need 65 in-flight stream blocks at ingest (one
// writer block per shard + the reader), comfortably inside 512KB / 4KB.
constexpr size_t kIngestMemoryBytes = 512 * 1024;
// Query budget: 64KB derives a ~1638-piece base case, so the one-shot
// reference actually divides at these
// cardinalities instead of shortcutting into the in-memory sweep.
constexpr size_t kQueryMemoryBytes = 64 * 1024;

std::unique_ptr<Env> MakeEnv(const std::vector<SpatialObject>& objects) {
  auto env = NewMemEnv(4096);
  EXPECT_TRUE(WriteDataset(*env, kDatasetFile, objects).ok());
  return env;
}

// Integer coordinates over a wide extent: enough distinct x values that the
// equal-count cut realizes all 64 shards, and integer weights so weight
// sums are exact under any division tree.
std::vector<SpatialObject> UniformObjects(uint64_t seed, size_t n) {
  return testing::RandomIntObjects(n, /*extent=*/6000, seed,
                                   /*random_weights=*/true);
}

std::unique_ptr<Env> MakeEnv(uint64_t seed, size_t n) {
  return MakeEnv(UniformObjects(seed, n));
}

MaxRSOptions OneShotOptions(double w, double h) {
  MaxRSOptions options;
  options.rect_width = w;
  options.rect_height = h;
  options.memory_bytes = kQueryMemoryBytes;
  return options;
}

DatasetHandleOptions IngestOptions(size_t shards) {
  DatasetHandleOptions options;
  options.shard_count = shards;
  options.memory_bytes = kIngestMemoryBytes;
  return options;
}

MaxRSServerOptions ServerOptions(size_t workers) {
  MaxRSServerOptions options;
  options.num_workers = workers;
  options.memory_bytes = kQueryMemoryBytes;
  return options;
}

void ExpectBitIdentical(const MaxRSResult& a, const MaxRSResult& b) {
  EXPECT_EQ(a.total_weight, b.total_weight);
  EXPECT_EQ(a.location, b.location);
  EXPECT_EQ(a.region, b.region);
}

TEST(ShardPropertyTest, BitIdenticalAcrossShardAndWorkerCounts) {
  const double kRects[][2] = {{260, 140}, {800, 800}};
  // 2816 objects = 64 shards x ~44: the equal-count cut (which only
  // advances on x-value changes and absorbs the remainder into the last
  // shard) reliably realizes all 64 requested shards.
  constexpr size_t kN = 2816;
  const std::pair<const char*, std::vector<SpatialObject>> kInputs[] = {
      {"uniform seed 3", UniformObjects(3, kN)},
      {"uniform seed 71", UniformObjects(71, kN)},
      {"skewed seed 7", testing::SkewedIntObjects(kN, 7)},
  };
  for (const auto& [input, objects] : kInputs) {
    SCOPED_TRACE(input);
    // One-shot references on a fresh env per input.
    auto reference_env = MakeEnv(objects);
    std::vector<MaxRSResult> reference;
    for (const auto& rect : kRects) {
      auto r = RunExactMaxRS(*reference_env, kDatasetFile,
                             OneShotOptions(rect[0], rect[1]));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      // The answer is a real cover weight, not just self-consistent.
      EXPECT_EQ(r->total_weight,
                CoveredWeight(objects, Rect::Centered(r->location, rect[0],
                                                      rect[1])));
      reference.push_back(*r);
    }

    for (size_t shards : kShardCounts) {
      auto env = MakeEnv(objects);
      auto handle =
          DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(shards));
      ASSERT_TRUE(handle.ok()) << handle.status().ToString();
      // The property is vacuous if the cut produced fewer shards.
      ASSERT_EQ(handle->shards().size(), shards);
      for (size_t workers : kWorkerCounts) {
        MaxRSServer server(*env, *handle, ServerOptions(workers));
        for (size_t q = 0; q < 2; ++q) {
          auto served = server.Submit(kRects[q][0], kRects[q][1]);
          ASSERT_TRUE(served.ok())
              << served.status().ToString() << " (" << shards
              << " shards, " << workers << " workers)";
          ExpectBitIdentical(*served, reference[q]);
        }
      }
    }
  }
}

TEST(ShardPropertyTest, ServingIgnoresTheAggregateIndex) {
  // The executor routes every source and solves every shard, so the
  // aggregate shard index cannot change a served query. On the skewed set
  // at 16 shards, where a per-shard weight bound would skip the background
  // shards for the selective rect, serving with the index and serving the
  // same files re-opened without it give the same answers and the same
  // block counts, and neither records a pruning decision.
  constexpr size_t kN = 2816;
  constexpr size_t kShards = 16;
  const double kRects[][2] = {{200, 200}, {1500, 1500}};
  auto env = MakeEnv(testing::SkewedIntObjects(kN, 19));
  auto handle =
      DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(kShards));
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  ASSERT_EQ(handle->shards().size(), kShards);
  ASSERT_NE(handle->agg_index(), nullptr);
  auto unindexed = testing::ReopenWithoutIndex(*env, *handle);
  ASSERT_TRUE(unindexed.ok()) << unindexed.status().ToString();
  ASSERT_EQ(unindexed->agg_index(), nullptr);

  MaxRSServerOptions options = ServerOptions(1);
  options.cache_entries = 0;  // every submit pays its full pipeline
  MaxRSServer indexed_server(*env, *handle, options);
  MaxRSServer unindexed_server(*env, *unindexed, options);
  for (const auto& rect : kRects) {
    SCOPED_TRACE(std::to_string(rect[0]) + "x" + std::to_string(rect[1]));
    auto indexed = indexed_server.Submit(rect[0], rect[1]);
    ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
    auto plain = unindexed_server.Submit(rect[0], rect[1]);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    ExpectBitIdentical(*indexed, *plain);
    EXPECT_EQ(indexed->stats.io.blocks_read, plain->stats.io.blocks_read);
    EXPECT_EQ(indexed->stats.io.blocks_written,
              plain->stats.io.blocks_written);
    for (const MaxRSResult* r : {&*indexed, &*plain}) {
      EXPECT_EQ(r->stats.io.shards_pruned, 0u);
      EXPECT_EQ(r->stats.io.bound_skips, 0u);
    }
  }
}

TEST(ShardPropertyTest, BitIdenticalAndIoIdenticalAcrossWorkers) {
  // Per query, the answer AND the IoStats block counts of a fresh ingest
  // and server match the serial server bit-for-bit at every shard and
  // worker count (pinning the shard routing scans, the per-shard solves and
  // the cross-shard MergeSweep all at once).
  constexpr size_t kN = 2816;
  const double kRects[][2] = {{260, 140}, {800, 800}};
  const uint64_t kSeed = 3;
  for (size_t shards : {size_t{1}, size_t{7}, size_t{16}}) {
    // Serial reference answers + per-query I/O on a fresh env.
    std::vector<MaxRSResult> reference;
    {
      auto env = MakeEnv(kSeed, kN);
      auto handle =
          DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(shards));
      ASSERT_TRUE(handle.ok()) << handle.status().ToString();
      ASSERT_EQ(handle->shards().size(), shards);
      MaxRSServerOptions options = ServerOptions(1);
      options.cache_entries = 0;  // every submit pays its full pipeline
      MaxRSServer server(*env, *handle, options);
      for (const auto& rect : kRects) {
        auto r = server.Submit(rect[0], rect[1]);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        reference.push_back(*r);
      }
    }

    for (size_t workers : kWorkerCounts) {
      auto env = MakeEnv(kSeed, kN);
      auto handle =
          DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(shards));
      ASSERT_TRUE(handle.ok()) << handle.status().ToString();
      ASSERT_EQ(handle->shards().size(), shards);
      MaxRSServerOptions options = ServerOptions(workers);
      options.cache_entries = 0;
      MaxRSServer server(*env, *handle, options);
      for (size_t q = 0; q < 2; ++q) {
        auto served = server.Submit(kRects[q][0], kRects[q][1]);
        ASSERT_TRUE(served.ok())
            << served.status().ToString() << " (" << shards << " shards, "
            << workers << " workers)";
        ExpectBitIdentical(*served, reference[q]);
        EXPECT_EQ(served->stats.io.blocks_read,
                  reference[q].stats.io.blocks_read)
            << shards << " shards, " << workers << " workers, query " << q;
        EXPECT_EQ(served->stats.io.blocks_written,
                  reference[q].stats.io.blocks_written)
            << shards << " shards, " << workers << " workers, query " << q;
      }
    }
  }
}

TEST(ShardPropertyTest, PerQueryIoStaysInTheLinearClass) {
  // 12000 objects: large enough that data volume (not per-file block
  // constants) carries the comparison, small enough for a unit test. The
  // 96KB query budget derives a ~2457-piece base case, so shard counts
  // >= 7 put every shard on the one-sweep path (the production shape:
  // shards sized to the memory budget) while the one-shot reference and
  // the 1-2 shard configs still divide.
  constexpr size_t kN = 12000;
  constexpr size_t kQueryMemory = 96 * 1024;
  const double kW = 300, kH = 200;
  auto one_shot_env = MakeEnv(5, kN);
  MaxRSOptions one_shot_options = OneShotOptions(kW, kH);
  one_shot_options.memory_bytes = kQueryMemory;
  auto one_shot = RunExactMaxRS(*one_shot_env, kDatasetFile, one_shot_options);
  ASSERT_TRUE(one_shot.ok());
  // The reference must be on the external path (it pays the sorts the
  // serve layer amortized away), or the comparison below is vacuous.
  ASSERT_GT(one_shot->stats.merges, 0u);

  std::vector<uint64_t> per_query_io;
  for (size_t shards : kShardCounts) {
    auto env = MakeEnv(5, kN);
    auto handle =
        DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(shards));
    ASSERT_TRUE(handle.ok());
    ASSERT_EQ(handle->shards().size(), shards);
    MaxRSServerOptions options = ServerOptions(1);
    options.memory_bytes = kQueryMemory;
    options.cache_entries = 0;  // every submit must pay its full pipeline
    MaxRSServer server(*env, *handle, options);

    const IoStatsSnapshot before = env->stats().Snapshot();
    ASSERT_TRUE(server.Submit(kW, kH).ok());
    const uint64_t io = (env->stats().Snapshot() - before).total();
    per_query_io.push_back(io);
    EXPECT_GT(io, 0u);

    // No sort phase and no global merge: when the shards fit the base
    // case, the per-query cost sits strictly below the one-shot run of
    // the same rect and budget, which pays the two external sorts plus
    // the root division pass. (At 1-2 shards the within-shard division
    // re-runs what sharding would have pre-paid, and at 64 shards the
    // ~190-object shards make per-file block constants dominate — those
    // configs are covered by the envelope below instead.)
    if (shards == 7 || shards == 16) {
      EXPECT_LT(io, one_shot->stats.io.total()) << shards << " shards";
    }
  }

  // Same complexity class at every shard count: a bounded number of
  // linear passes plus a per-shard file constant. The envelope — a small
  // multiple of the 1-shard cost plus a 70-block-per-shard allowance —
  // tolerates a division level shifting into or out of the shards as the
  // shard size crosses the base-case threshold (that moves one ~full-pass
  // term, bounded by the 3x factor) but fails on anything super-linear:
  // an accidental extra pass *per shard* would cost ~N/B = 115+ blocks
  // per shard, well past the allowance.
  const uint64_t base = per_query_io.front();  // shard count 1
  for (size_t i = 0; i < per_query_io.size(); ++i) {
    EXPECT_LE(per_query_io[i], 3 * base + 70 * kShardCounts[i])
        << kShardCounts[i] << " shards";
  }
}

}  // namespace
}  // namespace maxrs

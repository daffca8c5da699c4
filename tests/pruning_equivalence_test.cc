// Pruning-equivalence battery for index-pruned serving
// (serve/maxrs_server.h; index/shard_agg_index.h).
//
// The aggregate shard index lets the server skip shards whose weight upper
// bound cannot beat the best candidate found so far — but pruning is only
// admissible if it is invisible in the answer and strictly helpful in the
// I/O ledger:
//
//   - bit-identical answers to un-pruned serving — the same dataset
//     re-opened without its index file, so every shard bound is +inf —
//     itself checked against one-shot RunExactMaxRS — across shard counts
//     {1, 2, 7, 16, 64} x
//     worker counts {1, 2, 8}, with per-query block counts deterministic
//     within each shard count and never above the un-pruned pipeline's;
//   - on weight-skewed data with a selective rect, cold queries at >= 16
//     shards must actually skip shards (shards_pruned > 0 — i.e. open
//     strictly fewer shards than the shard count) and the cold block count
//     must grow sublinearly in the shard count;
//   - the pruning counters themselves are part of the determinism
//     contract: repeated cold runs of one configuration report the same
//     shards_pruned / bound_skips, and an index-less server reports zero.
//
// Data is weight-skewed (a heavy strip holds most of the mass) so
// the bound genuinely bites at high shard counts; at 1-2 shards the same
// battery degenerates to the no-pruning case and pins that the index
// never costs blocks.
#include <cmath>
#include <cstddef>
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
constexpr size_t kQueryMemoryBytes = 64 * 1024;
// A selective rect sized for the heavy strip, and a broad rect whose
// expanded window reaches most slabs (little to prune).
const double kRects[][2] = {{200, 200}, {1500, 1500}};

// Integer-coordinate weight-skewed set: every third point lands in a heavy
// strip (x in [4000, 6000], y in [0, 300], weight 50); the rest stay unit-
// weight background over [0, 6000]^2. The strip is wide in x relative to
// the 200-wide query rect, so even at 64 equal-count shards the strip
// shards' slab-local tuples genuinely see the heavy mass (a tight point
// cluster would lift everything into cross-shard spans, which the
// branch-and-bound incumbent deliberately under-counts), while a pure-
// background shard's upper bound tops out near three unit-weight shard
// weights — far below one well-placed rect over the strip. That is the
// regime where the per-shard upper bound prunes.
std::vector<SpatialObject> SkewedIntObjects(size_t n, uint64_t seed) {
  std::vector<SpatialObject> objects =
      testing::RandomIntObjects(n, /*extent=*/6000, seed);
  for (size_t i = 0; i < objects.size(); i += 3) {
    objects[i].x = 4000.0 + std::floor(objects[i].x / 3.0);
    objects[i].y = std::floor(objects[i].y / 20.0);
    objects[i].w = 50.0;
  }
  return objects;
}

std::unique_ptr<Env> MakeSkewedEnv(uint64_t seed, size_t n) {
  auto env = NewMemEnv(4096);
  EXPECT_TRUE(
      WriteDataset(*env, kDatasetFile, SkewedIntObjects(n, seed)).ok());
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

TEST(PruningEquivalenceTest, MatchesUnprunedAcrossShardAndWorkerCounts) {
  constexpr size_t kN = 2816;  // realizes all 64 shards (shard_property_test)
  const uint64_t kSeed = 7;
  for (size_t shards : kShardCounts) {
    auto env = MakeSkewedEnv(kSeed, kN);
    DatasetHandleOptions ingest;
    ingest.shard_count = shards;
    ingest.memory_bytes = kIngestMemoryBytes;
    auto handle = DatasetHandle::Ingest(*env, kDatasetFile, ingest);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    ASSERT_EQ(handle->shards().size(), shards);
    ASSERT_NE(handle->agg_index(), nullptr);

    // Un-pruned oracle, served from the index-less re-open: answers
    // (bit-identical to one-shot — integer weights keep every sum exact),
    // per-query block counts, and zero pruning counters.
    std::vector<MaxRSResult> oracle;
    {
      auto unindexed = testing::ReopenWithoutIndex(*env, *handle);
      ASSERT_TRUE(unindexed.ok()) << unindexed.status().ToString();
      ASSERT_EQ(unindexed->agg_index(), nullptr);
      MaxRSServer server(*env, *unindexed, BaseServerOptions(1));
      for (const auto& rect : kRects) {
        auto r = server.Submit(rect[0], rect[1]);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        MaxRSOptions one_shot;
        one_shot.rect_width = rect[0];
        one_shot.rect_height = rect[1];
        one_shot.memory_bytes = kQueryMemoryBytes;
        auto expected = RunExactMaxRS(*env, kDatasetFile, one_shot);
        ASSERT_TRUE(expected.ok()) << expected.status().ToString();
        ExpectBitIdentical(*r, *expected);
        EXPECT_EQ(r->stats.io.shards_pruned, 0u)
            << "un-pruned serving must not report pruned shards";
        EXPECT_EQ(r->stats.io.bound_skips, 0u);
        oracle.push_back(*r);
      }
    }

    // Pruned serving at every worker count: bit-identical answers, block
    // counts never above the un-pruned pipeline's, and the whole I/O
    // ledger (including the pruning counters) deterministic across worker
    // counts.
    std::vector<IoStatsSnapshot> pruned_io(2);
    bool first_config = true;
    for (size_t workers : kWorkerCounts) {
      MaxRSServer server(*env, *handle, BaseServerOptions(workers));
      for (size_t q = 0; q < 2; ++q) {
        auto served = server.Submit(kRects[q][0], kRects[q][1]);
        ASSERT_TRUE(served.ok())
            << served.status().ToString() << " (" << shards << " shards, "
            << workers << " workers)";
        ExpectBitIdentical(*served, oracle[q]);
        EXPECT_LE(served->stats.io.total(), oracle[q].stats.io.total())
            << shards << " shards, query " << q
            << ": pruning must never add block transfers";
        if (shards < 2) {
          EXPECT_EQ(served->stats.io.shards_pruned, 0u)
              << "single-shard serving has nothing to prune";
        }
        if (first_config) {
          pruned_io[q] = served->stats.io;
        } else {
          EXPECT_EQ(served->stats.io.blocks_read, pruned_io[q].blocks_read)
              << shards << " shards, " << workers << " workers, query " << q;
          EXPECT_EQ(served->stats.io.blocks_written,
                    pruned_io[q].blocks_written)
              << shards << " shards, " << workers << " workers, query " << q;
          EXPECT_EQ(served->stats.io.shards_pruned, pruned_io[q].shards_pruned)
              << "plan-time pruning must be schedule-independent";
          EXPECT_EQ(served->stats.io.bound_skips, pruned_io[q].bound_skips)
              << "bound skips must be schedule-independent";
        }
      }
      first_config = false;
    }
  }
}

TEST(PruningEquivalenceTest, SelectiveRectPrunesAndColdIoSublinear) {
  // The selective rect over weight-skewed data is the case the index exists
  // for: at >= 16 shards the cold query must open strictly fewer shards
  // than the shard count (shards_pruned > 0), spend fewer blocks than the
  // un-pruned pipeline, and the cold block count must grow sublinearly in
  // the shard count — quadrupling the shards from 16 to 64 must not
  // quadruple the blocks.
  constexpr size_t kN = 2816;
  const double kRectW = 200, kRectH = 200;
  uint64_t pruned_io_16 = 0;
  for (size_t shards : {size_t{16}, size_t{64}}) {
    auto env = MakeSkewedEnv(19, kN);
    DatasetHandleOptions ingest;
    ingest.shard_count = shards;
    ingest.memory_bytes = kIngestMemoryBytes;
    auto handle = DatasetHandle::Ingest(*env, kDatasetFile, ingest);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();

    auto unindexed = testing::ReopenWithoutIndex(*env, *handle);
    ASSERT_TRUE(unindexed.ok()) << unindexed.status().ToString();
    MaxRSServer unpruned_server(*env, *unindexed, BaseServerOptions(1));
    auto reference = unpruned_server.Submit(kRectW, kRectH);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();

    MaxRSServerOptions options = BaseServerOptions(1);
    MaxRSServer server(*env, *handle, options);
    auto served = server.Submit(kRectW, kRectH);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ExpectBitIdentical(*served, *reference);

    EXPECT_GT(served->stats.io.shards_pruned, 0u)
        << shards << " shards: the selective rect must skip shards";
    EXPECT_LT(served->stats.io.shards_pruned, shards)
        << "at least the winning shard must survive";
    EXPECT_LT(served->stats.io.total(), reference->stats.io.total())
        << shards << " shards: pruning must save blocks on this workload";

    if (shards == 16) {
      pruned_io_16 = served->stats.io.total();
    } else {
      EXPECT_LT(served->stats.io.total(), 4 * pruned_io_16)
          << "cold blocks must grow sublinearly in the shard count";
    }
  }
}

TEST(PruningEquivalenceTest, ColdCountersDeterministicAcrossRuns) {
  // Two fresh cold servers over the same immutable dataset must agree on
  // every observable: answer, block counts, and both pruning counters.
  constexpr size_t kN = 2816;
  constexpr size_t kShards = 16;
  auto env = MakeSkewedEnv(23, kN);
  DatasetHandleOptions ingest;
  ingest.shard_count = kShards;
  ingest.memory_bytes = kIngestMemoryBytes;
  auto handle = DatasetHandle::Ingest(*env, kDatasetFile, ingest);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();

  std::vector<MaxRSResult> runs;
  for (int run = 0; run < 2; ++run) {
    MaxRSServerOptions options = BaseServerOptions(2);
    MaxRSServer server(*env, *handle, options);
    auto served = server.Submit(kRects[0][0], kRects[0][1]);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    runs.push_back(*served);
  }
  ExpectBitIdentical(runs[0], runs[1]);
  EXPECT_EQ(runs[0].stats.io.blocks_read, runs[1].stats.io.blocks_read);
  EXPECT_EQ(runs[0].stats.io.blocks_written, runs[1].stats.io.blocks_written);
  EXPECT_EQ(runs[0].stats.io.shards_pruned, runs[1].stats.io.shards_pruned);
  EXPECT_EQ(runs[0].stats.io.bound_skips, runs[1].stats.io.bound_skips);
}

}  // namespace
}  // namespace maxrs

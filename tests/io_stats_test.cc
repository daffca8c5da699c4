#include "io/io_stats.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "io/buffer_pool.h"
#include "io/env.h"

namespace maxrs {
namespace {

TEST(IoStatsTest, CountersAccumulateAndReset) {
  IoStats stats;
  EXPECT_EQ(stats.Snapshot().blocks_read, 0u);
  EXPECT_EQ(stats.Snapshot().blocks_written, 0u);

  stats.RecordRead(3);
  stats.RecordWrite(2);
  stats.RecordRead(1);
  EXPECT_EQ(stats.Snapshot().blocks_read, 4u);
  EXPECT_EQ(stats.Snapshot().blocks_written, 2u);
  EXPECT_EQ(stats.Snapshot().total(), 6u);

  stats.Reset();
  EXPECT_EQ(stats.Snapshot().total(), 0u);
}

TEST(IoStatsTest, SnapshotDifferenceIsolatesAPhase) {
  IoStats stats;
  stats.RecordRead(10);
  stats.RecordWrite(5);
  const IoStatsSnapshot before = stats.Snapshot();

  stats.RecordRead(7);
  stats.RecordWrite(1);
  const IoStatsSnapshot delta = stats.Snapshot() - before;
  EXPECT_EQ(delta.blocks_read, 7u);
  EXPECT_EQ(delta.blocks_written, 1u);
  EXPECT_EQ(delta.total(), 8u);
}

TEST(IoStatsTest, RetryCountersAreSeparateFromTransferCounters) {
  IoStats stats;
  // A retried read reaching the base Env counts once in blocks_read AND
  // once in reads_retried — the retry counters say how many transfers were
  // repeat attempts, they never replace the transfer count.
  stats.RecordRead(2);
  stats.RecordReadRetry(1);
  stats.RecordWrite(3);
  stats.RecordWriteRetry(2);
  const IoStatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.blocks_read, 2u);
  EXPECT_EQ(snap.reads_retried, 1u);
  EXPECT_EQ(snap.blocks_written, 3u);
  EXPECT_EQ(snap.writes_retried, 2u);
  EXPECT_EQ(snap.total(), 5u);  // retries are not extra "blocks"

  const IoStatsSnapshot delta = stats.Snapshot() - snap;
  EXPECT_EQ(delta.reads_retried, 0u);
  EXPECT_EQ(delta.writes_retried, 0u);

  stats.Reset();
  EXPECT_EQ(stats.Snapshot().reads_retried, 0u);
  EXPECT_EQ(stats.Snapshot().writes_retried, 0u);
}

TEST(IoStatsTest, ObjectsFilteredIsNotABlockTransfer) {
  IoStats stats;
  stats.RecordRead(2);
  stats.RecordObjectsFiltered(40);
  const IoStatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.objects_filtered, 40u);
  EXPECT_EQ(snap.total(), 2u);

  stats.RecordObjectsFiltered(5);
  EXPECT_EQ((stats.Snapshot() - snap).objects_filtered, 5u);
  stats.Reset();
  EXPECT_EQ(stats.Snapshot().objects_filtered, 0u);
}

TEST(IoStatsTest, SnapshotIsAPointInTimeCopy) {
  IoStats stats;
  stats.RecordRead(1);
  const IoStatsSnapshot snap = stats.Snapshot();
  stats.RecordRead(100);
  EXPECT_EQ(snap.blocks_read, 1u);  // unaffected by later traffic
}

class IoStatsEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv(4096);
    auto file_or = env_->Create("f");
    ASSERT_TRUE(file_or.ok());
    file_ = std::move(file_or).value();
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<BlockFile> file_;
};

TEST_F(IoStatsEnvTest, MemEnvCountsEveryBlockTransfer) {
  std::vector<char> buf(env_->block_size(), 'x');
  for (int b = 0; b < 8; ++b) {
    ASSERT_TRUE(file_->WriteBlock(b, buf.data()).ok());
  }
  EXPECT_EQ(env_->stats().Snapshot().blocks_written, 8u);
  EXPECT_EQ(env_->stats().Snapshot().blocks_read, 0u);

  for (int b = 0; b < 3; ++b) {
    ASSERT_TRUE(file_->ReadBlock(b, buf.data()).ok());
  }
  EXPECT_EQ(env_->stats().Snapshot().blocks_read, 3u);
  EXPECT_EQ(env_->stats().Snapshot().blocks_written, 8u);
  EXPECT_EQ(env_->stats().Snapshot().total(), 11u);
}

TEST_F(IoStatsEnvTest, StatsAreSharedAcrossFilesOfOneEnv) {
  auto other_or = env_->Create("g");
  ASSERT_TRUE(other_or.ok());
  auto other = std::move(other_or).value();

  std::vector<char> buf(env_->block_size(), 'y');
  ASSERT_TRUE(file_->WriteBlock(0, buf.data()).ok());
  ASSERT_TRUE(other->WriteBlock(0, buf.data()).ok());
  EXPECT_EQ(env_->stats().Snapshot().blocks_written, 2u);
}

TEST_F(IoStatsEnvTest, BufferPoolHitsCostNoEnvIo) {
  std::vector<char> buf(env_->block_size());
  std::memset(buf.data(), 'a', buf.size());
  for (int b = 0; b < 4; ++b) {
    ASSERT_TRUE(file_->WriteBlock(b, buf.data()).ok());
  }
  env_->stats().Reset();

  BufferPool pool(*env_, 4 * env_->block_size());
  // Cold fetches: one counted read each, one pool miss each.
  for (int b = 0; b < 4; ++b) {
    auto page = pool.Fetch(*file_, b);
    ASSERT_TRUE(page.ok());
  }
  EXPECT_EQ(env_->stats().Snapshot().blocks_read, 4u);
  EXPECT_EQ(pool.pool_stats().misses, 4u);
  EXPECT_EQ(pool.pool_stats().hits, 0u);

  // Warm fetches: pool hits, zero additional Env traffic.
  for (int b = 0; b < 4; ++b) {
    auto page = pool.Fetch(*file_, b);
    ASSERT_TRUE(page.ok());
  }
  EXPECT_EQ(env_->stats().Snapshot().blocks_read, 4u);
  EXPECT_EQ(pool.pool_stats().hits, 4u);
}

TEST_F(IoStatsEnvTest, BufferPoolMissAndWritebackAccounting) {
  std::vector<char> buf(env_->block_size(), 'b');
  for (int b = 0; b < 8; ++b) {
    ASSERT_TRUE(file_->WriteBlock(b, buf.data()).ok());
  }
  env_->stats().Reset();

  // Single-frame pool: every distinct fetch is a miss; dirty blocks are
  // written back exactly once on eviction.
  BufferPool pool(*env_, env_->block_size());
  for (int b = 0; b < 8; ++b) {
    auto page = pool.Fetch(*file_, b);
    ASSERT_TRUE(page.ok());
    page->data()[0] = 'c';
    page->MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAll().ok());

  const IoStatsSnapshot snap = env_->stats().Snapshot();
  EXPECT_EQ(snap.blocks_read, 8u);     // 8 misses
  EXPECT_EQ(snap.blocks_written, 8u);  // 7 evictions + final flush
  EXPECT_EQ(pool.pool_stats().misses, 8u);
  EXPECT_EQ(pool.pool_stats().writebacks, 8u);
}

}  // namespace
}  // namespace maxrs

#include "io/buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "io/env.h"

namespace maxrs {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv(4096);
    auto file_or = env_->Create("f");
    ASSERT_TRUE(file_or.ok());
    file_ = std::move(file_or).value();
    std::vector<char> buf(4096);
    for (int b = 0; b < 16; ++b) {
      std::memset(buf.data(), 'a' + b, buf.size());
      ASSERT_TRUE(file_->WriteBlock(b, buf.data()).ok());
    }
    env_->stats().Reset();
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<BlockFile> file_;
};

TEST_F(BufferPoolTest, HitsAreFree) {
  BufferPool pool(*env_, 4 * 4096);
  {
    auto p = pool.Fetch(*file_, 0);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p->data()[0], 'a');
  }
  EXPECT_EQ(env_->stats().Snapshot().blocks_read, 1u);
  {
    auto p = pool.Fetch(*file_, 0);
    ASSERT_TRUE(p.ok());
  }
  EXPECT_EQ(env_->stats().Snapshot().blocks_read, 1u);  // second fetch: hit
  EXPECT_EQ(pool.pool_stats().hits, 1u);
  EXPECT_EQ(pool.pool_stats().misses, 1u);
}

TEST_F(BufferPoolTest, LruEvictionOrder) {
  BufferPool pool(*env_, 2 * 4096);
  ASSERT_TRUE(pool.Fetch(*file_, 0).ok());
  ASSERT_TRUE(pool.Fetch(*file_, 1).ok());
  ASSERT_TRUE(pool.Fetch(*file_, 0).ok());  // 0 becomes MRU
  ASSERT_TRUE(pool.Fetch(*file_, 2).ok());  // evicts 1 (LRU)
  env_->stats().Reset();
  ASSERT_TRUE(pool.Fetch(*file_, 0).ok());  // still cached
  EXPECT_EQ(env_->stats().Snapshot().blocks_read, 0u);
  ASSERT_TRUE(pool.Fetch(*file_, 1).ok());  // was evicted: counted read
  EXPECT_EQ(env_->stats().Snapshot().blocks_read, 1u);
}

TEST_F(BufferPoolTest, DirtyEvictionWritesBack) {
  BufferPool pool(*env_, 1 * 4096);
  {
    auto p = pool.Fetch(*file_, 3);
    ASSERT_TRUE(p.ok());
    p->data()[0] = 'Z';
    p->MarkDirty();
  }
  EXPECT_EQ(env_->stats().Snapshot().blocks_written, 0u);  // not yet
  ASSERT_TRUE(pool.Fetch(*file_, 4).ok());  // evicts dirty block 3
  EXPECT_EQ(env_->stats().Snapshot().blocks_written, 1u);
  // Verify persisted content.
  std::vector<char> buf(4096);
  ASSERT_TRUE(file_->ReadBlock(3, buf.data()).ok());
  EXPECT_EQ(buf[0], 'Z');
}

TEST_F(BufferPoolTest, PinnedPagesAreNotEvicted) {
  BufferPool pool(*env_, 2 * 4096);
  auto p0 = pool.Fetch(*file_, 0);
  ASSERT_TRUE(p0.ok());
  auto p1 = pool.Fetch(*file_, 1);
  ASSERT_TRUE(p1.ok());
  // Both frames pinned: a third fetch must fail, not evict.
  auto p2 = pool.Fetch(*file_, 2);
  EXPECT_FALSE(p2.ok());
  EXPECT_EQ(p2.status().code(), Status::Code::kResourceExhausted);
  p0->Release();
  auto p3 = pool.Fetch(*file_, 2);  // now frame 0 is evictable
  EXPECT_TRUE(p3.ok());
}

TEST_F(BufferPoolTest, FlushAllWritesDirtyPages) {
  BufferPool pool(*env_, 4 * 4096);
  {
    auto p = pool.Fetch(*file_, 5);
    ASSERT_TRUE(p.ok());
    p->data()[1] = 'Q';
    p->MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  std::vector<char> buf(4096);
  ASSERT_TRUE(file_->ReadBlock(5, buf.data()).ok());
  EXPECT_EQ(buf[1], 'Q');
  // Flushing twice does not double-write.
  env_->stats().Reset();
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(env_->stats().Snapshot().blocks_written, 0u);
}

TEST_F(BufferPoolTest, ZeroFillNewAppendsWithoutRead) {
  BufferPool pool(*env_, 4 * 4096);
  env_->stats().Reset();
  {
    auto p = pool.Fetch(*file_, 16, /*zero_fill_new=*/true);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p->data()[0], 0);
  }
  EXPECT_EQ(env_->stats().Snapshot().blocks_read, 0u);
  EXPECT_EQ(env_->stats().Snapshot().blocks_written, 1u);  // allocation write
}

TEST_F(BufferPoolTest, EvictDropsFileBlocks) {
  BufferPool pool(*env_, 4 * 4096);
  {
    auto p = pool.Fetch(*file_, 0);
    ASSERT_TRUE(p.ok());
    p->MarkDirty();
  }
  ASSERT_TRUE(pool.Evict(*file_).ok());
  env_->stats().Reset();
  ASSERT_TRUE(pool.Fetch(*file_, 0).ok());
  EXPECT_EQ(env_->stats().Snapshot().blocks_read, 1u);  // re-fetched
}

TEST_F(BufferPoolTest, MoveHandleTransfersPin) {
  BufferPool pool(*env_, 1 * 4096);
  auto p0 = pool.Fetch(*file_, 0);
  ASSERT_TRUE(p0.ok());
  PageHandle moved = std::move(p0).value();
  EXPECT_TRUE(moved.valid());
  // Still pinned: fetch of a different block cannot evict.
  EXPECT_FALSE(pool.Fetch(*file_, 1).ok());
  moved.Release();
  EXPECT_TRUE(pool.Fetch(*file_, 1).ok());
}

// --- Concurrency battery: the serve layer shares one pool across all query
// workers (io/pooled_env.h), so pin/evict/dirty transitions race across
// threads by design. These suites run under the TSan CI job (`sanitize`
// label): a missing lock or a write-back racing a re-fetch surfaces there
// even when the assertions below happen to pass.

TEST_F(BufferPoolTest, ConcurrentReadersSeeConsistentBlocks) {
  // 8 readers hammer 16 blocks through 4 frames: constant miss/evict churn
  // with frames handed between threads. Every fetch must observe the
  // block's real contents — a frame reused while still visible to another
  // thread shows up as a wrong fill byte.
  BufferPool pool(*env_, 4 * 4096, /*pin_wait_ms=*/2000);
  constexpr int kThreads = 8;
  constexpr int kIters = 300;
  std::atomic<int> wrong_bytes{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const uint64_t block = static_cast<uint64_t>((i * 7 + t * 3) % 16);
        auto p = pool.Fetch(*file_, block);
        if (!p.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (p->data()[0] != static_cast<char>('a' + block)) {
          wrong_bytes.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(wrong_bytes.load(), 0);
  EXPECT_EQ(failures.load(), 0);
  const BufferPoolStats stats = pool.pool_stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kIters);
}

TEST_F(BufferPoolTest, ConcurrentDirtyWritebackKeepsEveryUpdate) {
  // 8 writers each own one block and write a running sequence number to it
  // through the pool, with only 4 frames — dirty frames evict and write
  // back continuously while other threads fetch. After a final flush each
  // block must hold its owner's last value: a stale byte means an eviction
  // write-back raced a re-fetch or a dirty bit was lost.
  BufferPool pool(*env_, 4 * 4096, /*pin_wait_ms=*/2000);
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        auto p = pool.Fetch(*file_, static_cast<uint64_t>(t));
        ASSERT_TRUE(p.ok()) << p.status().ToString();
        p->data()[0] = static_cast<char>(i + 1);
        p->MarkDirty();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  ASSERT_TRUE(pool.FlushAll().ok());
  std::vector<char> buf(4096);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(file_->ReadBlock(static_cast<uint64_t>(t), buf.data()).ok());
    EXPECT_EQ(buf[0], static_cast<char>(kIters)) << "block " << t;
  }
}

TEST_F(BufferPoolTest, ConcurrentFetchAndFlushRace) {
  // Dirty fetches racing FlushAll: flush walks every frame and writes back
  // dirty ones while writers keep pinning and re-dirtying them. No
  // assertion beyond clean completion — the point is the interleaving of
  // pin, dirty and write-back state under TSan. The writers leave the page
  // bytes alone: FlushAll reads pinned dirty frames, so a byte written
  // while another thread flushes would race by the pool's contract.
  BufferPool pool(*env_, 2 * 4096, /*pin_wait_ms=*/2000);
  std::atomic<bool> stop{false};
  std::thread flusher([&] {
    while (!stop.load()) {
      EXPECT_TRUE(pool.FlushAll().ok());
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        auto p = pool.Fetch(*file_, static_cast<uint64_t>((t + i) % 6));
        if (!p.ok()) continue;  // transient all-pinned is legal here
        p->MarkDirty();
      }
    });
  }
  for (std::thread& th : writers) th.join();
  stop.store(true);
  flusher.join();
}

TEST_F(BufferPoolTest, FetchWaitsForUnpinInsteadOfFailing) {
  // Eviction-under-pin starvation regression: with every frame pinned, a
  // Fetch inside the pin-wait bound must park on the unpin signal and
  // succeed once a frame frees — the single-owner behaviour (immediate
  // ResourceExhausted) starved concurrent queries sharing a small pool.
  BufferPool pool(*env_, 1 * 4096, /*pin_wait_ms=*/30000);
  auto p0 = pool.Fetch(*file_, 0);
  ASSERT_TRUE(p0.ok());
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    p0->Release();
  });
  auto p1 = pool.Fetch(*file_, 1);  // must wait out the pin, not fail
  EXPECT_TRUE(p1.ok()) << p1.status().ToString();
  releaser.join();
}

TEST_F(BufferPoolTest, FetchTimesOutWhenPinNeverReleases) {
  // The wait is bounded: a pin that never releases must surface as
  // ResourceExhausted after the configured wait, not hang the caller.
  BufferPool pool(*env_, 1 * 4096, /*pin_wait_ms=*/50);
  auto p0 = pool.Fetch(*file_, 0);
  ASSERT_TRUE(p0.ok());
  auto p1 = pool.Fetch(*file_, 1);
  EXPECT_FALSE(p1.ok());
  EXPECT_EQ(p1.status().code(), Status::Code::kResourceExhausted);
}

}  // namespace
}  // namespace maxrs

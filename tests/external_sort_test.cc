#include "io/external_sort.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "io/env.h"
#include "util/rng.h"

namespace maxrs {
namespace {

struct KeyRec {
  uint64_t key;
  uint64_t payload;
};

bool KeyLess(const KeyRec& a, const KeyRec& b) { return a.key < b.key; }

// Total order: the comparator shape ExternalSort's determinism contract
// asks callers to provide (run formation is an unstable std::sort).
bool KeyPayloadLess(const KeyRec& a, const KeyRec& b) {
  if (a.key != b.key) return a.key < b.key;
  return a.payload < b.payload;
}

std::vector<KeyRec> RandomRecords(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<KeyRec> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) records.push_back({rng.NextU64() % 1000, i});
  return records;
}

class ExternalSortTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ExternalSortTest, SortsPermutationAtVariousMemoryBudgets) {
  const size_t memory = GetParam();
  auto env = NewMemEnv(512);  // small blocks force multi-block files
  auto records = RandomRecords(5000, 7);
  ASSERT_TRUE(WriteRecordFile(*env, "in", records).ok());

  sort_internal::SortRunInfo info;
  ASSERT_TRUE(ExternalSort<KeyRec>(*env, "in", "out", KeyLess,
                                   ExternalSortOptions{memory}, &info)
                  .ok());

  auto out = ReadRecordFile<KeyRec>(*env, "out");
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), records.size());
  // Sorted by key.
  EXPECT_TRUE(std::is_sorted(out->begin(), out->end(), KeyLess));
  // Same multiset of (key, payload): ExternalSort is not stable, so compare
  // under the total order, where the sorted sequence is unique.
  auto expected = records;
  std::sort(expected.begin(), expected.end(), KeyPayloadLess);
  auto got = *out;
  std::sort(got.begin(), got.end(), KeyPayloadLess);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got[i].key, expected[i].key) << "at " << i;
    EXPECT_EQ(got[i].payload, expected[i].payload) << "at " << i;
  }
}

TEST_P(ExternalSortTest, TotalOrderComparatorYieldsCanonicalOutput) {
  // With a total-order comparator the output is one canonical sequence —
  // equal to std::sort of the whole input — at any memory budget (i.e. any
  // run/merge structure) and any thread count.
  const size_t memory = GetParam();
  auto records = RandomRecords(5000, 7);
  auto expected = records;
  std::sort(expected.begin(), expected.end(), KeyPayloadLess);

  for (size_t threads : {size_t{1}, size_t{4}}) {
    auto env = NewMemEnv(512);
    ASSERT_TRUE(WriteRecordFile(*env, "in", records).ok());
    ThreadPool pool(threads);
    ExternalSortOptions options{memory, threads > 1 ? &pool : nullptr};
    ASSERT_TRUE(
        ExternalSort<KeyRec>(*env, "in", "out", KeyPayloadLess, options).ok());
    auto out = ReadRecordFile<KeyRec>(*env, "out");
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out->size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ((*out)[i].key, expected[i].key) << "threads=" << threads;
      ASSERT_EQ((*out)[i].payload, expected[i].payload) << "threads=" << threads;
    }
  }
}

TEST(ExternalSortParallelTest, PoolMatchesSerialRunAndPassCounts) {
  // The pool reschedules the sort; it must not change the run/pass structure
  // or the I/O. 1KB memory over 4000 records forces multi-pass merging.
  auto records = RandomRecords(4000, 11);

  sort_internal::SortRunInfo serial_info, pooled_info;
  auto serial_env = NewMemEnv(512);
  ASSERT_TRUE(WriteRecordFile(*serial_env, "in", records).ok());
  ASSERT_TRUE(ExternalSort<KeyRec>(*serial_env, "in", "out", KeyPayloadLess,
                                   ExternalSortOptions{1 << 10}, &serial_info)
                  .ok());

  auto threaded_env = NewMemEnv(512);
  ASSERT_TRUE(WriteRecordFile(*threaded_env, "in", records).ok());
  ThreadPool pool(4);
  ASSERT_TRUE(ExternalSort<KeyRec>(*threaded_env, "in", "out", KeyPayloadLess,
                                   ExternalSortOptions{1 << 10, &pool},
                                   &pooled_info)
                  .ok());

  EXPECT_EQ(pooled_info.initial_runs, serial_info.initial_runs);
  EXPECT_EQ(pooled_info.merge_passes, serial_info.merge_passes);
  EXPECT_EQ(threaded_env->stats().Snapshot().blocks_read,
            serial_env->stats().Snapshot().blocks_read);
  EXPECT_EQ(threaded_env->stats().Snapshot().blocks_written,
            serial_env->stats().Snapshot().blocks_written);

  auto serial_out = ReadRecordFile<KeyRec>(*serial_env, "out");
  auto pooled_out = ReadRecordFile<KeyRec>(*threaded_env, "out");
  ASSERT_TRUE(serial_out.ok());
  ASSERT_TRUE(pooled_out.ok());
  ASSERT_EQ(serial_out->size(), pooled_out->size());
  for (size_t i = 0; i < serial_out->size(); ++i) {
    ASSERT_EQ((*serial_out)[i].key, (*pooled_out)[i].key);
    ASSERT_EQ((*serial_out)[i].payload, (*pooled_out)[i].payload);
  }
}

INSTANTIATE_TEST_SUITE_P(MemoryBudgets, ExternalSortTest,
                         ::testing::Values(1 << 10, 1 << 12, 1 << 14, 1 << 20));

TEST(ExternalSortBasicTest, EmptyInput) {
  auto env = NewMemEnv(512);
  ASSERT_TRUE(WriteRecordFile(*env, "in", std::vector<KeyRec>{}).ok());
  ASSERT_TRUE(ExternalSort<KeyRec>(*env, "in", "out", KeyLess).ok());
  auto out = ReadRecordFile<KeyRec>(*env, "out");
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST(ExternalSortBasicTest, SingleRun) {
  auto env = NewMemEnv(512);
  auto records = RandomRecords(10, 3);
  ASSERT_TRUE(WriteRecordFile(*env, "in", records).ok());
  sort_internal::SortRunInfo info;
  ASSERT_TRUE(ExternalSort<KeyRec>(*env, "in", "out", KeyLess,
                                   ExternalSortOptions{1 << 20}, &info)
                  .ok());
  EXPECT_EQ(info.initial_runs, 1u);
  EXPECT_EQ(info.merge_passes, 0u);
  auto out = ReadRecordFile<KeyRec>(*env, "out");
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(std::is_sorted(out->begin(), out->end(), KeyLess));
}

TEST(ExternalSortBasicTest, MultiPassMergeHappensUnderTinyMemory) {
  auto env = NewMemEnv(512);
  auto records = RandomRecords(4000, 11);
  ASSERT_TRUE(WriteRecordFile(*env, "in", records).ok());
  sort_internal::SortRunInfo info;
  // 1KB memory, 512B blocks: fan-in 2, run of 64 records -> several passes.
  ASSERT_TRUE(ExternalSort<KeyRec>(*env, "in", "out", KeyLess,
                                   ExternalSortOptions{1 << 10}, &info)
                  .ok());
  EXPECT_GT(info.initial_runs, 1u);
  EXPECT_GT(info.merge_passes, 1u);
  auto out = ReadRecordFile<KeyRec>(*env, "out");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), records.size());
  EXPECT_TRUE(std::is_sorted(out->begin(), out->end(), KeyLess));
}

TEST(ExternalSortBasicTest, LeavesInputIntact) {
  auto env = NewMemEnv(512);
  auto records = RandomRecords(100, 5);
  ASSERT_TRUE(WriteRecordFile(*env, "in", records).ok());
  ASSERT_TRUE(ExternalSort<KeyRec>(*env, "in", "out", KeyLess).ok());
  auto in_again = ReadRecordFile<KeyRec>(*env, "in");
  ASSERT_TRUE(in_again.ok());
  ASSERT_EQ(in_again->size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ((*in_again)[i].payload, records[i].payload);
  }
}

TEST(ExternalSortBasicTest, CleansUpTempFiles) {
  auto env = NewMemEnv(512);
  auto records = RandomRecords(2000, 13);
  ASSERT_TRUE(WriteRecordFile(*env, "in", records).ok());
  ASSERT_TRUE(ExternalSort<KeyRec>(*env, "in", "out", KeyLess,
                                   ExternalSortOptions{1 << 10})
                  .ok());
  for (const std::string& name : env->ListFiles()) {
    EXPECT_TRUE(name == "in" || name == "out") << "leftover: " << name;
  }
}

TEST(ExternalSortComplexityTest, IoWithinSortBound) {
  // Measured I/O should be O((N/B) log_{M/B}(N/B)) with a small constant.
  auto env = NewMemEnv(512);
  auto records = RandomRecords(20000, 17);  // 20000*16B = 625 blocks
  ASSERT_TRUE(WriteRecordFile(*env, "in", records).ok());
  const size_t memory = 8 << 10;  // 16 blocks
  const IoStatsSnapshot before = env->stats().Snapshot();
  ASSERT_TRUE(ExternalSort<KeyRec>(*env, "in", "out", KeyLess,
                                   ExternalSortOptions{memory})
                  .ok());
  const IoStatsSnapshot after = env->stats().Snapshot();
  const double n_blocks = 20000.0 * sizeof(KeyRec) / 512.0;
  const double fan = memory / 512.0;
  const double levels =
      1.0 + std::ceil(std::log(n_blocks / fan) / std::log(fan - 1));
  // Each level reads and writes the data once; allow 3x slack for headers
  // and partial blocks.
  EXPECT_LT(static_cast<double>(after.total() - before.total()),
            3.0 * 2.0 * n_blocks * (levels + 1));
}

}  // namespace
}  // namespace maxrs

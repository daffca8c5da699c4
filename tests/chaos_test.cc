// Seeded chaos battery: the end-to-end fault-tolerance contract is that a
// query submitted against a chaotic storage stack either returns the
// bit-identical fault-free answer or a clean, specific non-OK Status —
// never a hang, a wrong answer, or leaked scratch files.
//
// The stack under test is MemEnv -> ChaosEnv -> RetryEnv -> MaxRSServer.
// The dataset is always ingested cleanly (chaos models serve-time storage
// trouble, not a corrupted ingest — recovery_test.cc covers damaged
// persistent state); every fault the battery injects strikes query-time
// reads of the shard files and the per-query scratch I/O.
//
// Three invariants are pinned exactly, not probabilistically:
//  1. Transient-only schedules converge: with retries, every query
//     succeeds with the fault-free answer, and the base Env's block
//     counts equal the fault-free run's — faulted attempts never reach
//     storage, so retrying adds retry-counter ticks but zero transfers.
//  2. Each transient fault drawn costs exactly one retry attempt
//     (retries() == transient_faults() when all are absorbed), and those
//     attempts are visible in IoStats reads_retried / writes_retried.
//  3. Permanent-only schedules are never retried (retries() == 0).
//
// MAXRS_CHAOS_SEED_BASE offsets every schedule seed, so a CI matrix can
// sweep disjoint fault schedules with the same binary.
#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "datagen/dataset_io.h"
#include "gtest/gtest.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "io/io_stats.h"
#include "io/retry_env.h"
#include "serve/dataset_handle.h"
#include "serve/maxrs_server.h"
#include "test_util.h"

namespace maxrs {
namespace {

constexpr char kDatasetFile[] = "objects";
constexpr char kPrefix[] = "ds";

uint64_t SeedBase() {
  const char* v = std::getenv("MAXRS_CHAOS_SEED_BASE");
  return v == nullptr ? 0 : std::strtoull(v, nullptr, 10);
}

const std::vector<std::pair<double, double>>& QueryRects() {
  static const std::vector<std::pair<double, double>> kRects = {
      {60.0, 340.0}, {120.0, 90.0},  {200.0, 200.0},
      {35.0, 500.0}, {410.0, 55.0},  {150.0, 260.0},
  };
  return kRects;
}

std::unique_ptr<Env> MakeIngestedEnv() {
  auto env = NewMemEnv(512);
  const std::vector<SpatialObject> objects = testing::RandomIntObjects(
      /*n=*/2500, /*extent=*/1000, /*seed=*/23, /*random_weights=*/true);
  EXPECT_TRUE(WriteDataset(*env, kDatasetFile, objects).ok());
  DatasetHandleOptions options;
  options.shard_count = 3;
  options.memory_bytes = 64 * 1024;
  options.prefix = kPrefix;
  EXPECT_TRUE(DatasetHandle::Ingest(*env, kDatasetFile, options).ok());
  return env;
}

MaxRSServerOptions ServerOptions() {
  MaxRSServerOptions options;
  options.num_workers = 1;    // deterministic op sequence per seed
  options.cache_entries = 0;  // every query must survive the storage stack
  options.memory_bytes = 64 * 1024;
  return options;
}

struct QueryOutcome {
  Result<MaxRSResult> result{Status::Internal("query not run")};
  IoStatsSnapshot io;  ///< base-Env transfers attributed to this query
};

/// Runs the full rect battery through a fresh server over `env`, isolating
/// each query's base-Env block transfers via snapshot deltas.
std::vector<QueryOutcome> RunBattery(Env& env, const DatasetHandle& dataset,
                                     IoStats& base_stats) {
  MaxRSServer server(env, dataset, ServerOptions());
  std::vector<QueryOutcome> outcomes;
  for (const auto& rect : QueryRects()) {
    const IoStatsSnapshot before = base_stats.Snapshot();
    QueryOutcome outcome;
    outcome.result = server.Submit(rect.first, rect.second);
    outcome.io = base_stats.Snapshot() - before;
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

std::vector<std::string> SortedFiles(const Env& env) {
  std::vector<std::string> files = env.ListFiles();
  std::sort(files.begin(), files.end());
  return files;
}

void ExpectSameAnswer(const Result<MaxRSResult>& got,
                      const Result<MaxRSResult>& want) {
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(got->total_weight, want->total_weight);
  EXPECT_EQ(got->location, want->location);
  EXPECT_EQ(got->region, want->region);
}

TEST(ChaosTest, TransientOnlySchedulesConvergeToTheFaultFreeRun) {
  for (uint64_t seed = SeedBase() + 1; seed <= SeedBase() + 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto env = MakeIngestedEnv();
    auto dataset = DatasetHandle::Open(*env, kPrefix);
    ASSERT_TRUE(dataset.ok());
    const std::vector<std::string> clean_files = SortedFiles(*env);

    const std::vector<QueryOutcome> reference =
        RunBattery(*env, *dataset, env->stats());
    for (const QueryOutcome& outcome : reference) {
      ASSERT_TRUE(outcome.result.ok()) << outcome.result.status().ToString();
    }

    ChaosOptions chaos_options;
    chaos_options.seed = seed;
    chaos_options.transient_fault_p = 0.05;
    ChaosEnv chaos(*env, chaos_options);
    RetryPolicy policy;
    policy.max_retries = 16;  // with p=0.05 one op failing 17 draws is ~1e-22
    RetryEnv retry(chaos, policy);

    const IoStatsSnapshot before = env->stats().Snapshot();
    const std::vector<QueryOutcome> chaotic =
        RunBattery(retry, *dataset, env->stats());
    const IoStatsSnapshot delta = env->stats().Snapshot() - before;

    for (size_t i = 0; i < chaotic.size(); ++i) {
      SCOPED_TRACE("query " + std::to_string(i));
      ExpectSameAnswer(chaotic[i].result, reference[i].result);
      // Faulted attempts fail before reaching storage, so a converged run
      // performs exactly the fault-free transfers, query by query.
      EXPECT_EQ(chaotic[i].io.blocks_read, reference[i].io.blocks_read);
      EXPECT_EQ(chaotic[i].io.blocks_written, reference[i].io.blocks_written);
    }

    // Every transient fault cost exactly one retry attempt, and every
    // attempt is visible in the shared IoStats retry counters.
    EXPECT_GT(chaos.transient_faults(), 0u);
    EXPECT_EQ(retry.retries(), chaos.transient_faults());
    EXPECT_EQ(delta.reads_retried + delta.writes_retried, retry.retries());
    EXPECT_EQ(chaos.permanent_faults(), 0u);
    EXPECT_EQ(chaos.bit_flips(), 0u);
    EXPECT_EQ(chaos.torn_writes(), 0u);

    EXPECT_EQ(SortedFiles(*env), clean_files);  // no scratch residue
  }
}

TEST(ChaosTest, MixedFaultsYieldCorrectAnswersOrCleanSpecificErrors) {
  uint64_t total_faults = 0;
  for (uint64_t seed = SeedBase() + 1; seed <= SeedBase() + 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto env = MakeIngestedEnv();
    auto dataset = DatasetHandle::Open(*env, kPrefix);
    ASSERT_TRUE(dataset.ok());
    const std::vector<std::string> clean_files = SortedFiles(*env);

    const std::vector<QueryOutcome> reference =
        RunBattery(*env, *dataset, env->stats());

    ChaosOptions chaos_options;
    chaos_options.seed = seed;
    chaos_options.transient_fault_p = 0.01;
    chaos_options.permanent_fault_p = 0.004;
    chaos_options.bit_flip_read_p = 0.004;
    chaos_options.torn_write_p = 0.004;
    ChaosEnv chaos(*env, chaos_options);
    RetryEnv retry(chaos, RetryPolicy{});

    size_t failures = 0;
    {
      MaxRSServer server(retry, *dataset, ServerOptions());
      for (size_t i = 0; i < QueryRects().size(); ++i) {
        SCOPED_TRACE("query " + std::to_string(i));
        const auto& rect = QueryRects()[i];
        auto result = server.Submit(rect.first, rect.second);
        if (result.ok()) {
          // A query that survives chaos must be *right*, bit for bit.
          ExpectSameAnswer(result, reference[i].result);
        } else {
          ++failures;
          const Status::Code code = result.status().code();
          EXPECT_TRUE(code == Status::Code::kIOError ||
                      code == Status::Code::kCorruption ||
                      code == Status::Code::kUnavailable)
              << result.status().ToString();
          EXPECT_FALSE(result.status().message().empty());
        }
      }
      const ServerCounters counters = server.counters();
      EXPECT_EQ(counters.failed, failures);
      EXPECT_EQ(counters.shed, 0u);
      EXPECT_EQ(counters.deadlines, 0u);
    }  // ~MaxRSServer: clean shutdown even with failed queries in history

    // Failed queries must release their scratch files on the way out.
    EXPECT_EQ(SortedFiles(*env), clean_files);
    total_faults += chaos.permanent_faults() + chaos.bit_flips() +
                    chaos.torn_writes() + chaos.transient_faults();
  }
  // The schedule must actually have exercised the fault paths across the
  // seed sweep, or the battery is vacuous.
  EXPECT_GT(total_faults, 0u);
}

TEST(ChaosTest, PermanentFaultsFailFastAndAreNeverRetried) {
  auto env = MakeIngestedEnv();
  auto dataset = DatasetHandle::Open(*env, kPrefix);
  ASSERT_TRUE(dataset.ok());
  const std::vector<std::string> clean_files = SortedFiles(*env);

  const std::vector<QueryOutcome> reference =
      RunBattery(*env, *dataset, env->stats());

  ChaosOptions chaos_options;
  chaos_options.seed = SeedBase() + 99;
  chaos_options.permanent_fault_p = 0.05;
  ChaosEnv chaos(*env, chaos_options);
  RetryEnv retry(chaos, RetryPolicy{});

  const IoStatsSnapshot before = env->stats().Snapshot();
  const std::vector<QueryOutcome> chaotic =
      RunBattery(retry, *dataset, env->stats());
  const IoStatsSnapshot delta = env->stats().Snapshot() - before;

  for (size_t i = 0; i < chaotic.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    if (chaotic[i].result.ok()) {
      ExpectSameAnswer(chaotic[i].result, reference[i].result);
    } else {
      EXPECT_EQ(chaotic[i].result.status().code(), Status::Code::kIOError)
          << chaotic[i].result.status().ToString();
    }
  }

  // kIOError is terminal under the default policy: zero retry attempts, no
  // retry-counter noise — failing fast is part of the taxonomy's contract.
  EXPECT_EQ(retry.retries(), 0u);
  EXPECT_EQ(delta.reads_retried, 0u);
  EXPECT_EQ(delta.writes_retried, 0u);
  EXPECT_EQ(SortedFiles(*env), clean_files);
}

TEST(ChaosTest, BitFlippedReadsAreCaughtByChecksumsNotReturnedAsAnswers) {
  // Read-side corruption only: every fault is a silently flipped bit in an
  // otherwise-successful read. The only acceptable outcomes are the exact
  // answer (the flip hit a block the query never decoded, or a buffer
  // whose checksum was verified on a clean re-read) or kCorruption — a
  // flipped bit must never escape into a "successful" wrong answer.
  for (uint64_t seed = SeedBase() + 1; seed <= SeedBase() + 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto env = MakeIngestedEnv();
    auto dataset = DatasetHandle::Open(*env, kPrefix);
    ASSERT_TRUE(dataset.ok());

    const std::vector<QueryOutcome> reference =
        RunBattery(*env, *dataset, env->stats());

    ChaosOptions chaos_options;
    chaos_options.seed = seed;
    chaos_options.bit_flip_read_p = 0.01;
    ChaosEnv chaos(*env, chaos_options);

    const std::vector<QueryOutcome> chaotic =
        RunBattery(chaos, *dataset, env->stats());
    for (size_t i = 0; i < chaotic.size(); ++i) {
      SCOPED_TRACE("query " + std::to_string(i));
      if (chaotic[i].result.ok()) {
        ExpectSameAnswer(chaotic[i].result, reference[i].result);
      } else {
        EXPECT_EQ(chaotic[i].result.status().code(), Status::Code::kCorruption)
            << chaotic[i].result.status().ToString();
      }
    }
    EXPECT_GT(chaos.bit_flips(), 0u);
  }
}

TEST(ChaosTest, DegradedIndexServesExactAnswersUnderTransientFaults) {
  // The aggregate index is corrupted on disk before the dataset is opened,
  // so the handle attaches degraded (null index, kCorruption reason) —
  // then the whole battery rides a transient-fault schedule. The contract composes: degradation must never trade
  // correctness for availability, and every result must report zero
  // shards pruned and zero bound skips.
  auto env = MakeIngestedEnv();
  {
    auto file_or = env->Open("ds/agg_index");
    ASSERT_TRUE(file_or.ok());
    std::vector<char> buf((*file_or)->block_size());
    ASSERT_TRUE((*file_or)->ReadBlock(0, buf.data()).ok());
    buf[17] ^= 0x20;
    ASSERT_TRUE((*file_or)->WriteBlock(0, buf.data()).ok());
  }
  auto dataset = DatasetHandle::Open(*env, kPrefix);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  ASSERT_EQ(dataset->agg_index(), nullptr);
  EXPECT_EQ(dataset->index_status().code(), Status::Code::kCorruption);

  const std::vector<QueryOutcome> reference =
      RunBattery(*env, *dataset, env->stats());
  for (const QueryOutcome& outcome : reference) {
    ASSERT_TRUE(outcome.result.ok()) << outcome.result.status().ToString();
    EXPECT_EQ(outcome.result->stats.io.shards_pruned, 0u);
    EXPECT_EQ(outcome.result->stats.io.bound_skips, 0u);
  }

  ChaosOptions chaos_options;
  chaos_options.seed = SeedBase() + 5;
  chaos_options.transient_fault_p = 0.05;
  ChaosEnv chaos(*env, chaos_options);
  RetryPolicy policy;
  policy.max_retries = 16;
  RetryEnv retry(chaos, policy);

  MaxRSServer server(retry, *dataset, ServerOptions());
  for (size_t i = 0; i < QueryRects().size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    const auto& rect = QueryRects()[i];
    auto result = server.Submit(rect.first, rect.second);
    ExpectSameAnswer(result, reference[i].result);
    if (result.ok()) {
      EXPECT_EQ(result->stats.io.shards_pruned, 0u)
          << "a degraded handle must not claim pruned shards";
      EXPECT_EQ(result->stats.io.bound_skips, 0u);
    }
  }
  EXPECT_GT(chaos.transient_faults(), 0u);
}

}  // namespace
}  // namespace maxrs

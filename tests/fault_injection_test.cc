// Failure-path coverage: every layer must propagate injected I/O errors as
// Status, never crash or silently succeed.
#include "io/fault_env.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/exact_maxrs.h"
#include "datagen/dataset_io.h"
#include "io/external_sort.h"
#include "io/record_io.h"
#include "serve/dataset_handle.h"
#include "serve/maxrs_server.h"
#include "test_util.h"

namespace maxrs {
namespace {

struct Rec {
  uint64_t a;
};

TEST(FaultEnvTest, FailsExactlyTheArmedOperation) {
  auto base = NewMemEnv(512);
  FaultEnv env(*base);
  auto file_or = env.Create("f");
  ASSERT_TRUE(file_or.ok());
  std::vector<char> buf(512);
  env.ArmAfter(2);
  EXPECT_TRUE((*file_or)->WriteBlock(0, buf.data()).ok());      // op 1
  EXPECT_FALSE((*file_or)->WriteBlock(1, buf.data()).ok());     // op 2: fault
  EXPECT_TRUE((*file_or)->WriteBlock(1, buf.data()).ok());      // disarmed
  EXPECT_EQ(env.faults_delivered(), 1u);
}

TEST(FaultEnvTest, RecordWriterPropagatesWriteFault) {
  auto base = NewMemEnv(512);
  FaultEnv env(*base);
  auto writer_or = RecordWriter<Rec>::Make(env, "f");
  ASSERT_TRUE(writer_or.ok());
  env.ArmAfter(1);
  Status st = Status::OK();
  // 512/8 = 64 records per block: the 64th append triggers the block flush.
  for (uint64_t i = 0; i < 64 && st.ok(); ++i) st = writer_or->Append({i});
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kIOError);
}

TEST(FaultEnvTest, RecordReaderPropagatesReadFault) {
  auto base = NewMemEnv(512);
  {
    std::vector<Rec> records(200);
    ASSERT_TRUE(WriteRecordFile(*base, "f", records).ok());
  }
  FaultEnv env(*base);
  auto reader_or = RecordReader<Rec>::Make(env, "f");
  ASSERT_TRUE(reader_or.ok());
  env.ArmAfter(2);  // header already read; fail the second data block
  Rec r;
  Status st = Status::OK();
  while (st.ok()) st = reader_or->Read(&r);
  EXPECT_EQ(st.code(), Status::Code::kIOError);
}

TEST(FaultEnvTest, ExternalSortSurfacesFaults) {
  auto base = NewMemEnv(512);
  {
    std::vector<Rec> records;
    for (uint64_t i = 0; i < 5000; ++i) records.push_back({5000 - i});
    ASSERT_TRUE(WriteRecordFile(*base, "in", records).ok());
  }
  FaultEnv env(*base);
  // Try faults at several depths of the sort pipeline.
  for (uint64_t k : {1u, 10u, 50u, 200u}) {
    env.ArmAfter(k);
    Status st = ExternalSort<Rec>(
        env, "in", "out",
        [](const Rec& a, const Rec& b) { return a.a < b.a; },
        ExternalSortOptions{1 << 10});
    env.Disarm();
    EXPECT_FALSE(st.ok()) << "fault at op " << k << " was swallowed";
    EXPECT_EQ(st.code(), Status::Code::kIOError);
  }
}

class ExactMaxRSFaultTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExactMaxRSFaultTest, SurfacesFaultsAtEveryStage) {
  auto base = NewMemEnv(512);
  auto objects = testing::RandomIntObjects(1000, 400, 3);
  ASSERT_TRUE(WriteDataset(*base, "data", objects).ok());
  FaultEnv env(*base);
  MaxRSOptions options;
  options.rect_width = 20;
  options.rect_height = 20;
  options.memory_bytes = 1 << 13;
  options.fanout = 3;
  options.base_case_max_pieces = 64;

  // The fault must surface as a Status at the caller, never crash a
  // worker, and the failed run must sweep every scratch file it made.
  // (The channel-based division is covered by the one-shard leg of
  // StreamingSpillFaultTest below.)
  env.ArmAfter(GetParam());
  auto result = RunExactMaxRS(env, "data", options);
  env.Disarm();
  ASSERT_FALSE(result.ok()) << "fault at op " << GetParam() << " swallowed";
  EXPECT_EQ(result.status().code(), Status::Code::kIOError);
  EXPECT_EQ(base->ListFiles(), std::vector<std::string>{"data"});
}

// Operation indices chosen to land in: dataset read, transform writes, sort
// runs, merge passes, division routing, plane-sweep slab write, merge sweep.
INSTANTIATE_TEST_SUITE_P(Depths, ExactMaxRSFaultTest,
                         ::testing::Values(1, 3, 20, 100, 300, 700, 1200));

TEST(StreamingSpillFaultTest, SpillFaultSurfacesAtSubmitWithoutWedgingServer) {
  // Streaming serve with a zero channel cap: every routed record takes the
  // spill path, so armed faults land on spill writes (and spill read-backs)
  // mid-routing. Each fault must surface as kIOError from Submit — no hang,
  // and the server must stay serviceable afterwards (workers alive, scratch
  // released), which the follow-up healthy Submit proves. Two layouts: five
  // shards, and one shard with a small base case, whose solve divides
  // through the zero-cap child channels of SolveSlabStream.
  auto base = NewMemEnv(512);
  auto objects = testing::RandomIntObjects(1500, 500, 7);
  ASSERT_TRUE(WriteDataset(*base, "data", objects).ok());
  FaultEnv env(*base);
  for (const size_t shards : {size_t{5}, size_t{1}}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    DatasetHandleOptions ingest;
    ingest.shard_count = shards;
    ingest.memory_bytes = 1 << 13;
    ingest.prefix = "ds" + std::to_string(shards);
    auto handle = DatasetHandle::Ingest(env, "data", ingest);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();

    MaxRSServerOptions options;
    options.memory_bytes = 1 << 13;
    options.num_workers = 2;
    options.cache_entries = 0;
    options.stream_channel_bytes = 0;
    if (shards == 1) {
      options.fanout = 3;
      options.base_case_max_pieces = 64;
    }
    MaxRSServer server(env, *handle, options);

    // Healthy run first: pins the answer and proves the sweep's failures
    // below are injected, not latent.
    auto want = server.Submit(24, 24);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    if (shards == 1) {
      ASSERT_GT(want->stats.merges, 0u) << "the one-shard solve must divide";
    }

    for (uint64_t k : {3u, 15u, 40u, 90u, 250u}) {
      env.ArmAfter(k);
      auto result = server.Submit(24, 24);
      env.Disarm();
      ASSERT_FALSE(result.ok())
          << "spill-path fault at op " << k << " swallowed";
      EXPECT_EQ(result.status().code(), Status::Code::kIOError) << "op " << k;
      auto after = server.Submit(24, 24);
      ASSERT_TRUE(after.ok()) << "server wedged after fault at op " << k
                              << ": " << after.status().ToString();
      EXPECT_EQ(after->total_weight, want->total_weight);
    }
  }
}

TEST(FaultRecoveryTest, RerunAfterFaultSucceeds) {
  // A failed run leaves no scratch files behind, and a fresh run still
  // produces the correct answer.
  auto base = NewMemEnv(512);
  auto objects = testing::RandomIntObjects(800, 300, 9);
  ASSERT_TRUE(WriteDataset(*base, "data", objects).ok());
  FaultEnv env(*base);
  MaxRSOptions options;
  options.rect_width = 16;
  options.rect_height = 16;
  options.memory_bytes = 1 << 13;
  options.fanout = 3;
  options.base_case_max_pieces = 32;

  env.ArmAfter(150);
  auto failed = RunExactMaxRS(env, "data", options);
  EXPECT_FALSE(failed.ok());
  env.Disarm();
  EXPECT_EQ(base->ListFiles(), std::vector<std::string>{"data"});

  auto retry = RunExactMaxRS(env, "data", options);
  ASSERT_TRUE(retry.ok());
  auto clean_env = NewMemEnv(512);
  auto want = RunExactMaxRS(*clean_env, objects, options);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(retry->total_weight, want->total_weight);
}

// Delegating Env that fails exactly one operation — the k-th counted
// read/write from construction — with retryable kUnavailable (FaultEnv
// injects terminal kIOError; the degradation path needs the retryable
// flavor).
class UnavailableOnceEnv : public Env {
 public:
  UnavailableOnceEnv(Env& base, uint64_t fail_after)
      : base_(&base), remaining_(fail_after) {}

  Result<std::unique_ptr<BlockFile>> Create(const std::string& name) override {
    return Wrap(base_->Create(name));
  }
  Result<std::unique_ptr<BlockFile>> Open(const std::string& name) override {
    return Wrap(base_->Open(name));
  }
  Status Delete(const std::string& name) override {
    return base_->Delete(name);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  bool Exists(const std::string& name) const override {
    return base_->Exists(name);
  }
  std::vector<std::string> ListFiles() const override {
    return base_->ListFiles();
  }
  size_t block_size() const override { return base_->block_size(); }
  IoStats& stats() override { return base_->stats(); }

  bool ShouldFail() {
    uint64_t current = remaining_.load(std::memory_order_relaxed);
    while (true) {
      if (current == 0) return false;
      if (remaining_.compare_exchange_weak(current, current - 1,
                                           std::memory_order_relaxed)) {
        return current == 1;
      }
    }
  }

 private:
  class File : public BlockFile {
   public:
    File(std::unique_ptr<BlockFile> base, UnavailableOnceEnv* env)
        : base_(std::move(base)), env_(env) {}
    Status ReadBlock(uint64_t index, void* buf) override {
      if (env_->ShouldFail()) {
        return Status::Unavailable("injected transient fault");
      }
      return base_->ReadBlock(index, buf);
    }
    Status WriteBlock(uint64_t index, const void* buf) override {
      if (env_->ShouldFail()) {
        return Status::Unavailable("injected transient fault");
      }
      return base_->WriteBlock(index, buf);
    }
    uint64_t NumBlocks() const override { return base_->NumBlocks(); }
    Status Truncate(uint64_t num_blocks) override {
      return base_->Truncate(num_blocks);
    }
    size_t block_size() const override { return base_->block_size(); }
    const std::string& name() const override { return base_->name(); }

   private:
    std::unique_ptr<BlockFile> base_;
    UnavailableOnceEnv* env_;
  };

  Result<std::unique_ptr<BlockFile>> Wrap(
      Result<std::unique_ptr<BlockFile>> file) {
    if (!file.ok()) return file;
    return {std::make_unique<File>(std::move(file).value(), this)};
  }

  Env* base_;
  std::atomic<uint64_t> remaining_;
};

TEST(DegradedRerunTest, RetryableFaultReRunsTheQueryOnceAndAnswersExactly) {
  // A retryable (kUnavailable) fault that fails a query's execution makes
  // the server re-run that query once through the same executor: the
  // caller still gets the exact answer, and `degraded` counts the rerun.
  auto base = NewMemEnv(1024);
  ASSERT_TRUE(WriteDataset(*base, "data",
                           testing::RandomIntObjects(2500, 1000, 41,
                                                     /*random_weights=*/true))
                  .ok());
  DatasetHandleOptions ingest;
  ingest.shard_count = 3;
  ingest.memory_bytes = 64 * 1024;
  auto handle = DatasetHandle::Ingest(*base, "data", ingest);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  MaxRSServerOptions options;
  options.memory_bytes = 64 * 1024;
  options.cache_entries = 0;  // every submission executes
  const std::vector<std::pair<double, double>> rects = {
      {100.0, 100.0}, {120.0, 180.0}, {150.0, 75.0}, {200.0, 200.0},
      {250.0, 130.0}, {300.0, 90.0},  {350.0, 220.0}, {400.0, 160.0}};

  std::vector<MaxRSResult> expected;
  {
    MaxRSServer server(*base, *handle, options);
    for (const auto& rect : rects) {
      auto r = server.Submit(rect.first, rect.second);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      expected.push_back(*r);
    }
  }

  UnavailableOnceEnv flaky(*base, /*fail_after=*/40);
  MaxRSServer server(flaky, *handle, options);
  for (size_t i = 0; i < rects.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    auto r = server.Submit(rects[i].first, rects[i].second);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->total_weight, expected[i].total_weight);
    EXPECT_EQ(r->location, expected[i].location);
    EXPECT_EQ(r->region, expected[i].region);
  }
  const ServerCounters counters = server.counters();
  EXPECT_EQ(counters.degraded, 1u);
  EXPECT_EQ(counters.failed, 0u);
}

// Delegating Env that calls `hook(name)` before every block read of a file
// Open()ed under one of the `watched` names; a non-OK hook status fails
// that read without touching storage.
class ReadHookEnv : public Env {
 public:
  using Hook = std::function<Status(const std::string& name)>;

  ReadHookEnv(Env& base, std::vector<std::string> watched, Hook hook)
      : base_(&base), watched_(std::move(watched)), hook_(std::move(hook)) {}

  Result<std::unique_ptr<BlockFile>> Create(const std::string& name) override {
    return base_->Create(name);
  }
  Result<std::unique_ptr<BlockFile>> Open(const std::string& name) override {
    auto file = base_->Open(name);
    if (!file.ok() ||
        std::find(watched_.begin(), watched_.end(), name) == watched_.end()) {
      return file;
    }
    return {std::make_unique<File>(std::move(file).value(), &hook_)};
  }
  Status Delete(const std::string& name) override {
    return base_->Delete(name);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  bool Exists(const std::string& name) const override {
    return base_->Exists(name);
  }
  std::vector<std::string> ListFiles() const override {
    return base_->ListFiles();
  }
  size_t block_size() const override { return base_->block_size(); }
  IoStats& stats() override { return base_->stats(); }

 private:
  class File : public BlockFile {
   public:
    File(std::unique_ptr<BlockFile> base, const Hook* hook)
        : base_(std::move(base)), hook_(hook) {}
    Status ReadBlock(uint64_t index, void* buf) override {
      MAXRS_RETURN_IF_ERROR((*hook_)(base_->name()));
      return base_->ReadBlock(index, buf);
    }
    Status WriteBlock(uint64_t index, const void* buf) override {
      return base_->WriteBlock(index, buf);
    }
    uint64_t NumBlocks() const override { return base_->NumBlocks(); }
    Status Truncate(uint64_t num_blocks) override {
      return base_->Truncate(num_blocks);
    }
    size_t block_size() const override { return base_->block_size(); }
    const std::string& name() const override { return base_->name(); }

   private:
    std::unique_ptr<BlockFile> base_;
    const Hook* hook_;
  };

  Env* base_;
  std::vector<std::string> watched_;
  Hook hook_;
};

TEST(LazyEdgeReadTest, XFileFaultInADividingShardIsClassified) {
  // Only a shard that overflows its base case reads x-files, through its
  // edge provider on the solving worker. One read fault there surfaces as
  // a classified error: a permanent one (kIOError) fails the query, a
  // retryable one (kUnavailable) goes through the degraded re-run and
  // answers exactly. Either way the base Env keeps only the dataset files.
  auto base = NewMemEnv(1024);
  ASSERT_TRUE(WriteDataset(*base, "data",
                           testing::RandomIntObjects(2500, 1000, 43,
                                                     /*random_weights=*/true))
                  .ok());
  DatasetHandleOptions ingest;
  ingest.shard_count = 3;
  ingest.memory_bytes = 64 * 1024;
  auto handle = DatasetHandle::Ingest(*base, "data", ingest);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  MaxRSOptions one_shot_options;
  one_shot_options.rect_width = 100;
  one_shot_options.rect_height = 100;
  one_shot_options.memory_bytes = 64 * 1024;
  auto want = RunExactMaxRS(*base, "data", one_shot_options);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  const std::vector<std::string> dataset_files = base->ListFiles();

  MaxRSServerOptions options;
  options.memory_bytes = 64 * 1024;
  options.cache_entries = 0;
  options.fanout = 3;
  options.base_case_max_pieces = 64;
  {
    MaxRSServer healthy(*base, *handle, options);
    auto r = healthy.Submit(100, 100);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_GT(r->stats.merges, 1u) << "some shard must divide";
  }

  for (const Status& fault :
       {Status::IOError("injected permanent fault"),
        Status::Unavailable("injected transient fault")}) {
    SCOPED_TRACE(fault.ToString());
    std::atomic<uint64_t> reads{0};
    ReadHookEnv env(*base, {handle->shards()[1].x_file},
                    [&](const std::string&) {
                      return reads.fetch_add(1) == 0 ? fault : Status::OK();
                    });
    MaxRSServer server(env, *handle, options);
    auto r = server.Submit(100, 100);
    EXPECT_GT(reads.load(), 0u);
    const ServerCounters counters = server.counters();
    if (fault.is_retryable()) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->total_weight, want->total_weight);
      EXPECT_EQ(r->location, want->location);
      EXPECT_EQ(r->region, want->region);
      EXPECT_EQ(counters.degraded, 1u);
      EXPECT_EQ(counters.failed, 0u);
    } else {
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), Status::Code::kIOError);
      EXPECT_EQ(counters.degraded, 0u);
      EXPECT_EQ(counters.failed, 1u);
    }
    server.Shutdown();
    EXPECT_EQ(base->ListFiles(), dataset_files);
  }
}

TEST(LazyEdgeReadTest, DeadlineInsideTheEdgeScanStopsIt) {
  // One shard with a 64-piece base case: the solve divides, so its edge
  // provider scans the shard's x-file. The first read of that file parks
  // until the query's deadline has passed; the scan must then stop with
  // kDeadlineExceeded instead of reading the file through.
  auto base = NewMemEnv(512);
  ASSERT_TRUE(
      WriteDataset(*base, "data", testing::RandomIntObjects(1500, 500, 7))
          .ok());
  DatasetHandleOptions ingest;
  ingest.shard_count = 1;
  ingest.memory_bytes = 1 << 13;
  auto handle = DatasetHandle::Ingest(*base, "data", ingest);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  const std::string& x_file = handle->shards()[0].x_file;
  auto file = base->Open(x_file);
  ASSERT_TRUE(file.ok());
  const uint64_t x_blocks = (*file)->NumBlocks();
  ASSERT_GT(x_blocks, 20u);

  constexpr int64_t kDeadlineMs = 500;
  std::chrono::steady_clock::time_point start;
  std::atomic<uint64_t> reads{0};
  ReadHookEnv env(*base, {x_file}, [&](const std::string&) {
    if (reads.fetch_add(1) == 0) {
      std::this_thread::sleep_until(
          start + std::chrono::milliseconds(kDeadlineMs + 100));
    }
    return Status::OK();
  });
  MaxRSServerOptions options;
  options.memory_bytes = 1 << 13;
  options.cache_entries = 0;
  options.fanout = 3;
  options.base_case_max_pieces = 64;
  MaxRSServer server(env, *handle, options);
  QuerySpec spec;
  spec.width = 24;
  spec.height = 24;
  spec.deadline_ms = kDeadlineMs;
  start = std::chrono::steady_clock::now();
  auto r = server.Submit(spec);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kDeadlineExceeded);
  EXPECT_GT(reads.load(), 0u) << "the deadline passed before the edge scan";
  EXPECT_LT(reads.load(), x_blocks / 2);
  server.Shutdown();
  EXPECT_EQ(server.counters().deadlines, 1u);
}

}  // namespace
}  // namespace maxrs

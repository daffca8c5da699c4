// Stress/soak battery for the server's concurrency features: 8 workers x
// 64 in-flight queries with a 75% duplicate rate, exercising in-flight
// dedup (duplicates of an executing query attach to the leader's pending
// slot; exactly one leader solve runs per distinct rect), the LRU for
// late duplicates, and the shutdown path under load. Built to run under
// ThreadSanitizer (cmake -DMAXRS_SANITIZE=thread; see the `tsan` CI job):
// the assertions are deterministic, so a pass is meaningful with and
// without instrumentation.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
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
constexpr size_t kClients = 8;
constexpr size_t kQueries = 64;
constexpr size_t kDistinct = 16;  // 64 queries over 16 rects = 75% dupes

std::unique_ptr<Env> MakeEnv(std::vector<SpatialObject>* out = nullptr) {
  auto env = NewMemEnv(4096);
  std::vector<SpatialObject> objects = testing::RandomIntObjects(
      /*n=*/1500, /*extent=*/2000, /*seed=*/23, /*random_weights=*/true);
  EXPECT_TRUE(WriteDataset(*env, kDatasetFile, objects).ok());
  if (out != nullptr) *out = objects;
  return env;
}

// The scripted workload: query q uses rect q % kDistinct, so every distinct
// rect appears exactly kQueries / kDistinct times.
void RectOf(size_t q, double* w, double* h) {
  const size_t r = q % kDistinct;
  *w = 60.0 + 20.0 * static_cast<double>(r);
  *h = 340.0 - 15.0 * static_cast<double>(r);
}

TEST(ServeStressTest, DedupedInFlightDuplicatesSolveOncePerRect) {
  auto env = MakeEnv();
  auto handle = [&] {
    DatasetHandleOptions options;
    options.shard_count = 4;
    options.memory_bytes = 64 * 1024;
    return DatasetHandle::Ingest(*env, kDatasetFile, options);
  }();
  ASSERT_TRUE(handle.ok());

  MaxRSServerOptions options;
  options.num_workers = kClients;
  options.memory_bytes = 64 * 1024;
  options.cache_entries = kDistinct;  // late duplicates hit the LRU
  options.queue_capacity = kQueries;  // every query can be in flight at once
  MaxRSServer server(*env, *handle, options);

  // One-shot references for every distinct rect.
  std::vector<MaxRSResult> expected(kDistinct);
  {
    auto reference_env = MakeEnv();
    for (size_t r = 0; r < kDistinct; ++r) {
      MaxRSOptions one_shot;
      RectOf(r, &one_shot.rect_width, &one_shot.rect_height);
      one_shot.memory_bytes = 64 * 1024;
      auto result = RunExactMaxRS(*reference_env, kDatasetFile, one_shot);
      ASSERT_TRUE(result.ok());
      expected[r] = *result;
    }
  }

  // Fire all 64 queries from 8 clients at once (atomic ticket draw, so the
  // interleaving of duplicates across workers varies run to run — that is
  // the point of a soak).
  std::vector<MaxRSResult> got(kQueries);
  std::vector<Status> statuses(kQueries, Status::OK());
  std::atomic<size_t> ticket{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (;;) {
        const size_t q = ticket.fetch_add(1);
        if (q >= kQueries) return;
        double w = 0.0, h = 0.0;
        RectOf(q, &w, &h);
        auto result = server.Submit(w, h);
        statuses[q] = result.status();
        if (result.ok()) got[q] = *result;
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (size_t q = 0; q < kQueries; ++q) {
    ASSERT_TRUE(statuses[q].ok()) << "query " << q << ": "
                                  << statuses[q].ToString();
    const MaxRSResult& want = expected[q % kDistinct];
    EXPECT_EQ(got[q].total_weight, want.total_weight) << "query " << q;
    EXPECT_EQ(got[q].location, want.location) << "query " << q;
    EXPECT_EQ(got[q].region, want.region) << "query " << q;
  }

  // One leader solve per distinct rect; every duplicate either attached to
  // an in-flight leader or hit the cache afterwards.
  const ServerCounters counters = server.counters();
  EXPECT_EQ(counters.submitted, kQueries);
  EXPECT_EQ(counters.executed, kDistinct);
  EXPECT_EQ(counters.failed, 0u);
  EXPECT_EQ(counters.dedup_hits + counters.cache_hits, kQueries - kDistinct);
}

// Env wrapper whose ReadBlock parks while the gate is closed. Wedging the
// single worker mid-query makes queue/admission/deadline states reachable
// deterministically — no sleeps standing in for synchronization.
class GateEnv : public Env {
 public:
  explicit GateEnv(Env& base) : base_(base) {}

  void CloseGate() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = false;
  }
  void OpenGate() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  /// Spins until some reader is parked on the closed gate.
  void WaitUntilBlocked() const {
    while (blocked_.load() == 0) std::this_thread::yield();
  }

  Result<std::unique_ptr<BlockFile>> Create(const std::string& name) override {
    return base_.Create(name);
  }
  Result<std::unique_ptr<BlockFile>> Open(const std::string& name) override {
    auto file_or = base_.Open(name);
    if (!file_or.ok()) return {file_or.status()};
    return {std::unique_ptr<BlockFile>(
        new GateFile(std::move(file_or).value(), this))};
  }
  Status Delete(const std::string& name) override {
    return base_.Delete(name);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return base_.Rename(from, to);
  }
  bool Exists(const std::string& name) const override {
    return base_.Exists(name);
  }
  std::vector<std::string> ListFiles() const override {
    return base_.ListFiles();
  }
  size_t block_size() const override { return base_.block_size(); }
  IoStats& stats() override { return base_.stats(); }

 private:
  class GateFile : public BlockFile {
   public:
    GateFile(std::unique_ptr<BlockFile> base, GateEnv* env)
        : base_(std::move(base)), env_(env) {}
    Status ReadBlock(uint64_t index, void* buf) override {
      env_->Block();
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
    GateEnv* env_;
  };

  void Block() {
    std::unique_lock<std::mutex> lock(mu_);
    if (open_) return;
    blocked_.fetch_add(1);
    cv_.wait(lock, [this] { return open_; });
    blocked_.fetch_sub(1);
  }

  Env& base_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = true;
  std::atomic<int> blocked_{0};
};

TEST(ServeStressTest, FullQueuePastAdmissionBudgetShedsWithUnavailable) {
  // Regression: Submit used to block indefinitely on a full queue. With a
  // bounded admission budget the third query — one executing (wedged on
  // the gate), one occupying the single queue slot — must be refused with
  // kUnavailable, not park the submitter.
  auto base = MakeEnv();
  GateEnv env(*base);
  auto handle = [&] {
    DatasetHandleOptions options;
    options.shard_count = 2;
    options.memory_bytes = 64 * 1024;
    return DatasetHandle::Ingest(env, kDatasetFile, options);
  }();
  ASSERT_TRUE(handle.ok());

  MaxRSServerOptions options;
  options.num_workers = 1;
  options.memory_bytes = 64 * 1024;
  options.cache_entries = 0;  // keep every submit on the execute path
  options.queue_capacity = 1;
  options.admission_timeout_ms = 0;  // shed the moment the queue is full
  MaxRSServer server(env, *handle, options);

  env.CloseGate();
  std::thread first([&] {
    auto result = server.Submit(60.0, 340.0);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  });
  env.WaitUntilBlocked();  // the only worker is wedged mid-query
  std::thread second([&] {
    auto result = server.Submit(80.0, 325.0);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  });
  while (server.queue_depth() < 1) std::this_thread::yield();

  auto shed = server.Submit(100.0, 310.0);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), Status::Code::kUnavailable);
  EXPECT_EQ(server.counters().shed, 1u);

  env.OpenGate();
  first.join();
  second.join();
  EXPECT_EQ(server.counters().failed, 0u);
}

TEST(ServeStressTest, ExpiredDeadlinesFailCleanlyWithDeadlineExceeded) {
  // One query wedged on the gate past its deadline, one expiring in the
  // queue behind it. Both must unwind with kDeadlineExceeded — channels
  // closed, no hang — and be counted.
  auto base = MakeEnv();
  GateEnv env(*base);
  auto handle = [&] {
    DatasetHandleOptions options;
    options.shard_count = 2;
    options.memory_bytes = 64 * 1024;
    return DatasetHandle::Ingest(env, kDatasetFile, options);
  }();
  ASSERT_TRUE(handle.ok());

  MaxRSServerOptions options;
  options.num_workers = 1;
  options.memory_bytes = 64 * 1024;
  options.cache_entries = 0;
  options.deadline_ms = 5;
  MaxRSServer server(env, *handle, options);

  env.CloseGate();
  std::thread first([&] {
    // The wedged query's own deadline must outlast its trip through the
    // queue: one that expired before reaching the gate would never wedge,
    // and WaitUntilBlocked below would spin forever on a loaded machine.
    QuerySpec spec;
    spec.width = 60.0;
    spec.height = 340.0;
    spec.deadline_ms = 200;
    auto result = server.Submit(spec);
    EXPECT_EQ(result.status().code(), Status::Code::kDeadlineExceeded)
        << result.status().ToString();
  });
  env.WaitUntilBlocked();
  std::thread second([&] {
    auto result = server.Submit(80.0, 325.0);
    EXPECT_EQ(result.status().code(), Status::Code::kDeadlineExceeded)
        << result.status().ToString();
  });
  while (server.queue_depth() < 1) std::this_thread::yield();
  // Hold the gate until both tokens are unambiguously past their 200 ms /
  // 5 ms deadlines, then release: the wedged query observes expiry at its
  // next poll, the queued one before it touches the Env at all.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  env.OpenGate();
  first.join();
  second.join();

  const ServerCounters counters = server.counters();
  EXPECT_EQ(counters.deadlines, 2u);
  EXPECT_EQ(counters.failed, 2u);
  EXPECT_EQ(counters.degraded, 0u);  // deadline errors are never re-run
}

TEST(ServeStressTest, ExpiredLoneQueryStopsItsRoutingScan) {
  // A query's routing scan must stop at the query's deadline like every
  // other loop it reaches. The query is wedged on the gate past its deadline,
  // then released; it must fail with kDeadlineExceeded having read fewer
  // blocks than the same query run to completion — and less than half of
  // one routing scan, which a scan that never polled the token would read
  // in full after the gate opens.
  auto base = MakeEnv();
  GateEnv env(*base);
  auto handle = [&] {
    DatasetHandleOptions options;
    options.shard_count = 2;
    options.memory_bytes = 64 * 1024;
    return DatasetHandle::Ingest(env, kDatasetFile, options);
  }();
  ASSERT_TRUE(handle.ok());
  // One full routing scan: every block of every shard's y- and x-file.
  uint64_t scan_blocks = 0;
  for (const ShardInfo& shard : handle->shards()) {
    for (const std::string& name : {shard.y_file, shard.x_file}) {
      auto file = base->Open(name);
      ASSERT_TRUE(file.ok()) << file.status().ToString();
      scan_blocks += (*file)->NumBlocks();
    }
  }

  MaxRSServerOptions options;
  options.num_workers = 1;
  options.memory_bytes = 64 * 1024;
  options.cache_entries = 0;
  MaxRSServer server(env, *handle, options);

  const IoStatsSnapshot before_full = env.stats().Snapshot();
  ASSERT_TRUE(server.Submit(60.0, 340.0).ok());
  const uint64_t full_reads =
      (env.stats().Snapshot() - before_full).blocks_read;

  QuerySpec spec;
  spec.width = 60.0;
  spec.height = 340.0;
  spec.deadline_ms = 200;
  const IoStatsSnapshot before = env.stats().Snapshot();
  env.CloseGate();
  std::thread wedged([&] {
    auto result = server.Submit(spec);
    EXPECT_EQ(result.status().code(), Status::Code::kDeadlineExceeded)
        << result.status().ToString();
  });
  env.WaitUntilBlocked();  // executing, past the in-queue expiry check
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  env.OpenGate();
  wedged.join();
  const uint64_t expired_reads = (env.stats().Snapshot() - before).blocks_read;
  EXPECT_LT(expired_reads, full_reads);
  EXPECT_LT(2 * expired_reads, scan_blocks)
      << "expired query read " << expired_reads << " blocks; one routing "
      << "scan is " << scan_blocks;
  EXPECT_EQ(server.counters().deadlines, 1u);
}

TEST(ServeStressTest, ShutdownUnderLoadFailsFollowersCleanly) {
  // Submitters racing a Shutdown must each get a definite outcome: a real
  // result (the queue drains in-flight queries) or NotSupported — never a
  // hang or a broken promise, including followers attached to a leader
  // whose Push lost the race with Close.
  auto env = MakeEnv();
  auto handle = [&] {
    DatasetHandleOptions options;
    options.shard_count = 2;
    options.memory_bytes = 64 * 1024;
    return DatasetHandle::Ingest(*env, kDatasetFile, options);
  }();
  ASSERT_TRUE(handle.ok());

  for (int round = 0; round < 4; ++round) {
    MaxRSServerOptions options;
    options.num_workers = 2;
    options.memory_bytes = 64 * 1024;
    options.cache_entries = 0;  // keep every submit on the execute path
    MaxRSServer server(*env, *handle, options);

    std::atomic<size_t> done{0};
    std::vector<std::thread> clients;
    for (size_t c = 0; c < 4; ++c) {
      clients.emplace_back([&, c] {
        for (size_t q = 0; q < 8; ++q) {
          double w = 0.0, h = 0.0;
          RectOf((c + q) % 3, &w, &h);  // heavy duplication across clients
          auto result = server.Submit(w, h);
          EXPECT_TRUE(result.ok() ||
                      result.status().code() == Status::Code::kNotSupported)
              << result.status().ToString();
          done.fetch_add(1);
        }
      });
    }
    // Let some queries through, then slam the door mid-traffic.
    while (done.load() < 2) std::this_thread::yield();
    server.Shutdown();
    for (std::thread& t : clients) t.join();
    EXPECT_EQ(done.load(), 32u);
  }
}

}  // namespace
}  // namespace maxrs

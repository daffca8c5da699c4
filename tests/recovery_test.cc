// Crash-recovery battery for the serve layer's persistent state: a dataset
// is exactly its published manifest plus the shard files it references, and
// every way that state can be damaged — truncation, bit rot, a crash
// between temp-manifest write and rename, a missing shard file — must
// surface as a specific clean error at Open, never a hang, a wrong answer,
// or a half-attached handle. Drop must remove every residue file,
// including the unpublished temp manifest a crashed ingest leaves behind.
// The aggregate index is the one deliberate exception: damage to it (bit
// rot, truncation, a missing file) degrades the handle — null agg_index(),
// the reason in index_status(), exact answers still served — because the
// shard files alone are the truth and query execution never reads the
// index.
// Version-2 manifests (pre-index) keep opening and serving.
#include <algorithm>
#include <string>
#include <vector>

#include "datagen/dataset_io.h"
#include "gtest/gtest.h"
#include "io/env.h"
#include "io/record_io.h"
#include "serve/dataset_handle.h"
#include "serve/maxrs_server.h"
#include "test_util.h"

namespace maxrs {
namespace {

constexpr char kDatasetFile[] = "objects";
constexpr char kPrefix[] = "ds";
constexpr char kManifest[] = "ds/manifest";
constexpr char kTempManifest[] = "ds/manifest.tmp";
constexpr char kAggIndex[] = "ds/agg_index";

std::unique_ptr<Env> MakeEnv() {
  auto env = NewMemEnv(4096);
  const std::vector<SpatialObject> objects = testing::RandomIntObjects(
      /*n=*/800, /*extent=*/1000, /*seed=*/11, /*random_weights=*/true);
  EXPECT_TRUE(WriteDataset(*env, kDatasetFile, objects).ok());
  return env;
}

Result<DatasetHandle> IngestInto(Env& env) {
  DatasetHandleOptions options;
  options.shard_count = 3;
  options.memory_bytes = 64 * 1024;
  options.prefix = kPrefix;
  return DatasetHandle::Ingest(env, kDatasetFile, options);
}

std::vector<std::string> FilesUnderPrefix(const Env& env) {
  std::vector<std::string> files;
  for (const std::string& name : env.ListFiles()) {
    if (name.rfind(kPrefix, 0) == 0) files.push_back(name);
  }
  return files;
}

void FlipBit(Env& env, const std::string& name, uint64_t block, size_t bit) {
  auto file_or = env.Open(name);
  ASSERT_TRUE(file_or.ok());
  std::vector<char> buf((*file_or)->block_size());
  ASSERT_TRUE((*file_or)->ReadBlock(block, buf.data()).ok());
  buf[bit / 8] ^= static_cast<char>(1u << (bit % 8));
  ASSERT_TRUE((*file_or)->WriteBlock(block, buf.data()).ok());
}

TEST(RecoveryTest, TruncatedManifestIsCleanCorruption) {
  auto env = MakeEnv();
  ASSERT_TRUE(IngestInto(*env).ok());
  // Chop the manifest's data blocks off, keeping the header that promises
  // them — the shape a torn copy or interrupted restore produces.
  auto file_or = env->Open(kManifest);
  ASSERT_TRUE(file_or.ok());
  ASSERT_TRUE((*file_or)->Truncate(1).ok());

  auto handle = DatasetHandle::Open(*env, kPrefix);
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), Status::Code::kCorruption);
  EXPECT_NE(handle.status().message().find("truncated"), std::string::npos);
}

TEST(RecoveryTest, BitFlippedManifestIsCleanCorruption) {
  auto env = MakeEnv();
  ASSERT_TRUE(IngestInto(*env).ok());
  FlipBit(*env, kManifest, /*block=*/1, /*bit=*/200);

  auto handle = DatasetHandle::Open(*env, kPrefix);
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), Status::Code::kCorruption);
  EXPECT_NE(handle.status().message().find("checksum mismatch"),
            std::string::npos);
}

TEST(RecoveryTest, OrphanedTempManifestIsInvisibleAndReingestable) {
  // A crash after writing the temp manifest but before the atomic rename:
  // the dataset was never published, so Open must report NotFound (not
  // corruption — there is nothing half-valid to misread), and a fresh
  // ingest under the same prefix must succeed.
  auto env = MakeEnv();
  {
    auto orphan = env->Create(kTempManifest);
    ASSERT_TRUE(orphan.ok());
    std::vector<char> junk(env->block_size(), 0x5a);
    ASSERT_TRUE((*orphan)->WriteBlock(0, junk.data()).ok());
  }
  EXPECT_EQ(DatasetHandle::Open(*env, kPrefix).status().code(),
            Status::Code::kNotFound);

  auto handle = IngestInto(*env);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_EQ(handle->num_objects(), 800u);
  EXPECT_FALSE(env->Exists(kTempManifest));  // publish consumed the temp name
}

TEST(RecoveryTest, MissingShardFileIsCleanCorruption) {
  auto env = MakeEnv();
  auto ingested = IngestInto(*env);
  ASSERT_TRUE(ingested.ok());
  ASSERT_TRUE(env->Delete(ingested->shards()[1].y_file).ok());

  auto handle = DatasetHandle::Open(*env, kPrefix);
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), Status::Code::kCorruption);
  EXPECT_NE(handle.status().message().find("missing shard files"),
            std::string::npos);
}

TEST(RecoveryTest, DropRemovesAllResidueIncludingOrphanedTempManifest) {
  auto env = MakeEnv();
  auto handle = IngestInto(*env);
  ASSERT_TRUE(handle.ok());
  ASSERT_FALSE(FilesUnderPrefix(*env).empty());
  // Plant the residue of a later crashed re-ingest attempt.
  ASSERT_TRUE(env->Create(kTempManifest).ok());

  ASSERT_TRUE(handle->Drop().ok());
  EXPECT_TRUE(FilesUnderPrefix(*env).empty());
  EXPECT_TRUE(env->Exists(kDatasetFile));  // the source file is not ours
}

TEST(RecoveryTest, ReopenedDatasetAnswersQueriesAfterPublish) {
  // End-to-end over the atomic-publish path: ingest, re-attach via Open
  // (exercising the renamed manifest), and answer a query through the
  // server against a one-shot reference.
  auto env = NewMemEnv(4096);
  const std::vector<SpatialObject> objects = testing::RandomIntObjects(
      /*n=*/800, /*extent=*/1000, /*seed=*/11, /*random_weights=*/true);
  ASSERT_TRUE(WriteDataset(*env, kDatasetFile, objects).ok());
  ASSERT_TRUE(IngestInto(*env).ok());

  auto reopened = DatasetHandle::Open(*env, kPrefix);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened->has_bounds());

  MaxRSServerOptions server_options;
  server_options.memory_bytes = 64 * 1024;
  MaxRSServer server(*env, *reopened, server_options);
  auto served = server.Submit(90.0, 120.0);
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  MaxRSOptions one_shot;
  one_shot.rect_width = 90.0;
  one_shot.rect_height = 120.0;
  one_shot.memory_bytes = 64 * 1024;
  auto reference = RunExactMaxRS(*env, kDatasetFile, one_shot);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(served->total_weight, reference->total_weight);
  EXPECT_EQ(served->location, reference->location);
}

// Serves a query through `handle` and checks it against the fault-free
// answer computed straight from the source objects, and that the execution
// recorded no pruning decision.
void ServeAndExpectExactAnswer(Env& env, const DatasetHandle& handle) {
  MaxRSServerOptions server_options;
  server_options.memory_bytes = 64 * 1024;
  MaxRSServer server(env, handle, server_options);
  auto served = server.Submit(90.0, 120.0);
  EXPECT_TRUE(served.ok()) << served.status().ToString();

  MaxRSOptions one_shot;
  one_shot.rect_width = 90.0;
  one_shot.rect_height = 120.0;
  one_shot.memory_bytes = 64 * 1024;
  auto reference = RunExactMaxRS(env, kDatasetFile, one_shot);
  EXPECT_TRUE(reference.ok());
  if (served.ok() && reference.ok()) {
    EXPECT_EQ(served->total_weight, reference->total_weight);
    EXPECT_EQ(served->location, reference->location);
    EXPECT_EQ(served->stats.io.shards_pruned, 0u);
    EXPECT_EQ(served->stats.io.bound_skips, 0u);
  }
}

TEST(RecoveryTest, BitFlippedAggIndexDegradesToUnprunedServing) {
  // Bit rot in the aggregate-index file must never condemn the dataset:
  // the manifest and shard files are the truth, the index is only a
  // summary of them. Open succeeds with a null index and a kCorruption
  // index_status, and the server serves the exact answer.
  auto env = MakeEnv();
  ASSERT_TRUE(IngestInto(*env).ok());
  FlipBit(*env, kAggIndex, /*block=*/0, /*bit=*/300);

  auto handle = DatasetHandle::Open(*env, kPrefix);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_EQ(handle->agg_index(), nullptr);
  EXPECT_EQ(handle->index_status().code(), Status::Code::kCorruption);
  ServeAndExpectExactAnswer(*env, *handle);
}

TEST(RecoveryTest, TruncatedAggIndexDegradesToUnprunedServing) {
  // A torn copy that chops the index file's blocks off: same contract as
  // bit rot — clean kCorruption in index_status, dataset opens, exact
  // answers.
  auto env = MakeEnv();
  ASSERT_TRUE(IngestInto(*env).ok());
  auto file_or = env->Open(kAggIndex);
  ASSERT_TRUE(file_or.ok());
  ASSERT_TRUE((*file_or)->Truncate(0).ok());

  auto handle = DatasetHandle::Open(*env, kPrefix);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_EQ(handle->agg_index(), nullptr);
  EXPECT_EQ(handle->index_status().code(), Status::Code::kCorruption);
  ServeAndExpectExactAnswer(*env, *handle);
}

TEST(RecoveryTest, MissingAggIndexFileDegradesToUnprunedServing) {
  // The manifest promises an index (kind-4 descriptor) but the file is
  // gone entirely — still a degraded open, not a failed one.
  auto env = MakeEnv();
  ASSERT_TRUE(IngestInto(*env).ok());
  ASSERT_TRUE(env->Delete(kAggIndex).ok());

  auto handle = DatasetHandle::Open(*env, kPrefix);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_EQ(handle->agg_index(), nullptr);
  EXPECT_FALSE(handle->index_status().ok());
  ServeAndExpectExactAnswer(*env, *handle);
}

TEST(RecoveryTest, V2ManifestWithoutIndexOpensAndServes) {
  // Backward compatibility: a version-2 manifest (no kind-4 index
  // descriptor) written before the aggregate index existed must open with
  // agg_index() == nullptr, an OK index_status (nothing was promised),
  // and serve exact answers.
  auto env = MakeEnv();
  ASSERT_TRUE(IngestInto(*env).ok());

  // Rewrite the published manifest as a v2 manifest: drop the index
  // descriptor and stamp format version 2 in the header.
  auto records_or = ReadRecordFile<ShardManifestRecord>(*env, kManifest);
  ASSERT_TRUE(records_or.ok());
  std::vector<ShardManifestRecord> v2_records;
  for (const ShardManifestRecord& r : *records_or) {
    if (r.kind == 4) continue;
    v2_records.push_back(r);
  }
  ASSERT_LT(v2_records.size(), records_or->size())
      << "the v3 manifest must have carried an index descriptor";
  v2_records[0].index = 2;
  ASSERT_TRUE(env->Delete(kManifest).ok());
  ASSERT_TRUE(env->Delete(kAggIndex).ok());  // v2 datasets have no index file
  ASSERT_TRUE(WriteRecordFile(*env, kManifest, v2_records).ok());

  auto handle = DatasetHandle::Open(*env, kPrefix);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_EQ(handle->agg_index(), nullptr);
  EXPECT_TRUE(handle->index_status().ok())
      << "a v2 manifest promises no index, so nothing is degraded";
  ServeAndExpectExactAnswer(*env, *handle);
}

TEST(RecoveryTest, PosixEnvPublishesAtomicallyViaRename) {
  // The POSIX Rename is the real crash-consistency primitive; round-trip
  // ingest -> open -> drop on it to prove the rename lands and Drop leaves
  // nothing behind.
  auto env = NewPosixEnv(::testing::TempDir() + "/maxrs_recovery_env", 4096);
  const std::vector<SpatialObject> objects = testing::RandomIntObjects(
      /*n=*/300, /*extent=*/500, /*seed=*/7);
  ASSERT_TRUE(WriteDataset(*env, kDatasetFile, objects).ok());
  ASSERT_TRUE(IngestInto(*env).ok());
  EXPECT_TRUE(env->Exists(kManifest));
  EXPECT_FALSE(env->Exists(kTempManifest));

  auto handle = DatasetHandle::Open(*env, kPrefix);
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(handle->num_objects(), 300u);
  ASSERT_TRUE(handle->Drop().ok());
  EXPECT_TRUE(FilesUnderPrefix(*env).empty());
  ASSERT_TRUE(env->Delete(kDatasetFile).ok());
}

}  // namespace
}  // namespace maxrs

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
// across shard counts, strictly below the sort-paying one-shot run. A
// second battery makes chosen shards divide and checks that each one's
// edge file holds exactly the kept edges landing in it, read only from the
// x-files of the sources that can reach it. The channel spill-cap matrix
// lives in streaming_equivalence_test.cc.
#include <algorithm>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/exact_maxrs.h"
#include "datagen/dataset_io.h"
#include "gtest/gtest.h"
#include "io/env.h"
#include "io/record_io.h"
#include "serve/dataset_handle.h"
#include "serve/density_bound.h"
#include "serve/maxrs_server.h"
#include "test_util.h"
#include "util/rng.h"

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

// Env wrapper that counts the Open()s of every file and keeps a copy of
// each query edge file ("q_edges") written through it; when the query
// releases that file, its edges are decoded (in a scratch Env, so the
// capture moves no counted block) and appended to edge_files().
class EdgeCaptureEnv : public Env {
 public:
  explicit EdgeCaptureEnv(Env& base) : base_(base) {}

  Result<std::unique_ptr<BlockFile>> Create(const std::string& name) override {
    auto file = base_.Create(name);
    if (!file.ok() || name.find("q_edges") == std::string::npos) return file;
    return {std::make_unique<CapturingFile>(std::move(file).value(),
                                            &Captured(name))};
  }
  Result<std::unique_ptr<BlockFile>> Open(const std::string& name) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++opens_[name];
    }
    return base_.Open(name);
  }
  Status Delete(const std::string& name) override {
    std::map<uint64_t, std::string> blocks;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = captured_.find(name);
      if (it != captured_.end()) {
        blocks = std::move(it->second);
        captured_.erase(it);
      }
    }
    if (!blocks.empty()) Decode(blocks);
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

  uint64_t opens(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    return opens_[name];
  }
  std::vector<std::vector<double>> edge_files() {
    std::lock_guard<std::mutex> lock(mu_);
    return edge_files_;
  }
  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    opens_.clear();
    edge_files_.clear();
  }

 private:
  class CapturingFile : public BlockFile {
   public:
    CapturingFile(std::unique_ptr<BlockFile> base,
                  std::map<uint64_t, std::string>* blocks)
        : base_(std::move(base)), blocks_(blocks) {}
    Status ReadBlock(uint64_t index, void* buf) override {
      return base_->ReadBlock(index, buf);
    }
    Status WriteBlock(uint64_t index, const void* buf) override {
      (*blocks_)[index].assign(static_cast<const char*>(buf),
                               base_->block_size());
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
    std::map<uint64_t, std::string>* blocks_;
  };

  // The capture slot of a new edge file; written only by its one writer.
  std::map<uint64_t, std::string>& Captured(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    return captured_[name];
  }

  void Decode(const std::map<uint64_t, std::string>& blocks) {
    auto scratch = NewMemEnv(base_.block_size());
    {
      auto file = scratch->Create("edges");
      ASSERT_TRUE(file.ok());
      for (const auto& [index, bytes] : blocks) {
        ASSERT_TRUE((*file)->WriteBlock(index, bytes.data()).ok());
      }
    }
    auto reader = RecordReader<EdgeRecord>::Make(*scratch, "edges");
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    std::vector<double> edges;
    EdgeRecord e{};
    while (reader->Next(&e)) edges.push_back(e.x);
    ASSERT_TRUE(reader->final_status().ok());
    std::lock_guard<std::mutex> lock(mu_);
    edge_files_.push_back(std::move(edges));
  }

  Env& base_;
  std::mutex mu_;
  std::map<std::string, uint64_t> opens_;
  std::map<std::string, std::map<uint64_t, std::string>> captured_;
  std::vector<std::vector<double>> edge_files_;
};

// 1200 objects at the single x = 3000 (y in [2900, 3100]) over background
// objects on [0, 6000]^2 with no x in (3000, 3200). The equal-count cut
// never splits equal x, so the whole cluster lands in one shard, which
// ends at the gap. Integer weights turn the threshold filter on; adding
// 0.5 to every weight turns it off and keeps every sum exact.
std::vector<SpatialObject> ClusterInOneShard(size_t background,
                                             bool fractional) {
  std::vector<SpatialObject> objects = testing::RandomIntObjects(
      background, /*extent=*/6000, /*seed=*/29, /*random_weights=*/true);
  for (SpatialObject& o : objects) {
    if (o.x > 3000 && o.x < 3200) o.x += 200;
  }
  Rng rng(31);
  for (size_t i = 0; i < 1200; ++i) {
    const double y = 2900.0 + static_cast<double>(rng.UniformU64(201));
    objects.push_back({3000.0, y, 1.0 + static_cast<double>(rng.UniformU64(9))});
  }
  if (fractional) {
    for (SpatialObject& o : objects) o.w += 0.5;
  }
  return objects;
}

size_t ShardOf(const DatasetHandle& handle, double v) {
  const std::vector<double>& bounds = handle.interior_bounds();
  return std::min<size_t>(
      std::upper_bound(bounds.begin(), bounds.end(), v) - bounds.begin(),
      bounds.size());
}

// The edge file of target shard t, from first principles: both edges of
// every object the query's filter keeps, where they route to t, in
// EdgeXLess order.
std::vector<double> ExpectedEdges(const std::vector<SpatialObject>& objects,
                                  const DatasetHandle& handle,
                                  const ObjectFilter& filter, double width,
                                  size_t t) {
  std::vector<double> edges;
  for (const SpatialObject& o : objects) {
    if (!filter.Keep(o)) continue;
    for (double x : {o.x - width / 2.0, o.x + width / 2.0}) {
      if (ShardOf(handle, x) == t) edges.push_back(x);
    }
  }
  std::sort(edges.begin(), edges.end(), [](double a, double b) {
    return DoubleOrderKey(a) < DoubleOrderKey(b);
  });
  return edges;
}

std::vector<uint64_t> Keys(const std::vector<double>& values) {
  std::vector<uint64_t> keys;
  for (double v : values) keys.push_back(DoubleOrderKey(v));
  return keys;
}

TEST(ShardPropertyTest, DividingShardsReadOnlyTheirEdgeWindows) {
  // Chosen shards divide while every other shard stays a base case. Each
  // dividing shard's edge file must hold exactly the kept edges that land
  // in it, and it may read only the x-files of the sources whose shifted
  // slab ends bracket it (one open per window holding the source); base
  // cases read no x-file. "one shard": only the cluster's shard divides,
  // and the gap after the cluster keeps its right edges inside it, so its
  // right-edge stream runs to the end of its window. "wide rect": a rect
  // wider than two slabs puts the cluster's edges two or more shards away
  // from it, in the two shards that divide. Each runs with the threshold
  // filter on (integer weights) and off (fractional weights), and every
  // answer equals one-shot RunExactMaxRS bit for bit.
  struct Case {
    const char* name;
    size_t background;
    size_t shards;
    double width, height;
    uint64_t base_case_filtered, base_case_unfiltered;
  };
  const Case kCases[] = {
      {"one shard", 3000, 4, 40, 60, 300, 1400},
      {"wide rect", 4000, 8, 2200, 60, 300, 1900},
  };
  for (const Case& c : kCases) {
    for (bool fractional : {false, true}) {
      SCOPED_TRACE(std::string(c.name) +
                   (fractional ? ", filter off" : ", filter on"));
      const std::vector<SpatialObject> objects =
          ClusterInOneShard(c.background, fractional);
      auto env = MakeEnv(objects);
      auto one_shot = RunExactMaxRS(*env, kDatasetFile,
                                    OneShotOptions(c.width, c.height));
      ASSERT_TRUE(one_shot.ok()) << one_shot.status().ToString();
      auto handle =
          DatasetHandle::Ingest(*env, kDatasetFile, IngestOptions(c.shards));
      ASSERT_TRUE(handle.ok()) << handle.status().ToString();
      ASSERT_EQ(handle->shards().size(), c.shards);
      ASSERT_EQ(handle->density_bound() == nullptr, fractional);
      const ObjectFilter filter(handle->density_bound(), c.width, c.height);

      const size_t cluster = ShardOf(*handle, 3000);

      std::vector<size_t> dividing = {cluster};
      if (c.width > 1000) {
        dividing = {ShardOf(*handle, 3000 - c.width / 2),
                    ShardOf(*handle, 3000 + c.width / 2)};
        ASSERT_GE(cluster, dividing[0] + 2);
        ASSERT_GE(dividing[1], cluster + 2);
      }
      // The x-file opens each dividing shard's windows allow.
      std::vector<uint64_t> allowed(c.shards, 0);
      for (size_t t : dividing) {
        for (double shift : {-c.width / 2, c.width / 2}) {
          for (size_t s = 0; s < c.shards; ++s) {
            const Interval& slab = handle->shards()[s].x_range;
            if (ShardOf(*handle, slab.lo + shift) <= t &&
                t <= ShardOf(*handle, slab.hi + shift)) {
              ++allowed[s];
            }
          }
        }
      }

      EdgeCaptureEnv capture(*env);
      for (size_t workers : {size_t{1}, size_t{4}}) {
        SCOPED_TRACE(std::to_string(workers) + " workers");
        capture.Reset();
        MaxRSServerOptions options = ServerOptions(workers);
        options.base_case_max_pieces =
            fractional ? c.base_case_unfiltered : c.base_case_filtered;
        MaxRSServer server(capture, *handle, options);
        auto served = server.Submit(c.width, c.height);
        ASSERT_TRUE(served.ok()) << served.status().ToString();
        ExpectBitIdentical(*served, *one_shot);
        EXPECT_EQ(served->stats.io.objects_filtered > 0, !fractional);

        // One cross-shard MergeSweep plus one division per dividing shard,
        // each into at least two children that are all base cases.
        EXPECT_EQ(served->stats.merges, 1 + dividing.size());
        EXPECT_EQ(served->stats.recursion_levels, 2u);
        EXPECT_GE(served->stats.base_cases, 2 * dividing.size());

        const std::vector<std::vector<double>> files = capture.edge_files();
        ASSERT_EQ(files.size(), dividing.size());
        for (size_t i = 0; i < dividing.size(); ++i) {
          SCOPED_TRACE("shard " + std::to_string(dividing[i]));
          const std::vector<double> want = ExpectedEdges(
              objects, *handle, filter, c.width, dividing[i]);
          EXPECT_FALSE(want.empty());
          EXPECT_EQ(Keys(files[i]), Keys(want));
        }
        for (size_t s = 0; s < c.shards; ++s) {
          EXPECT_LE(capture.opens(handle->shards()[s].x_file), allowed[s])
              << "x-file of shard " << s;
        }
      }
    }
  }
}

}  // namespace
}  // namespace maxrs

// Differential fuzzing: many randomized configurations, each checking that
// every implementation of the same problem agrees. Configurations are
// generated deterministically from the fuzz index so failures reproduce.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <utility>

#include "baseline/baseline.h"
#include "core/brute_force.h"
#include "core/exact_maxrs.h"
#include "core/extensions.h"
#include "datagen/dataset_io.h"
#include "io/env.h"
#include "serve/dataset_handle.h"
#include "serve/maxrs_server.h"
#include "test_util.h"
#include "util/rng.h"

namespace maxrs {
namespace {

struct FuzzConfig {
  size_t n;
  uint64_t extent;
  double rect_w;
  double rect_h;
  bool weights;
  size_t memory_bytes;
  size_t fanout;
  uint64_t base_max;
  uint64_t data_seed;
};

FuzzConfig MakeConfig(uint64_t index) {
  Rng rng(0xF0220000 + index);
  FuzzConfig c;
  c.n = 20 + rng.UniformU64(280);
  c.extent = 8 + rng.UniformU64(400);
  // Rect sizes: even integers, occasionally huge relative to the domain.
  c.rect_w = 2.0 * static_cast<double>(1 + rng.UniformU64(
                       std::max<uint64_t>(2, c.extent / 3)));
  c.rect_h = 2.0 * static_cast<double>(1 + rng.UniformU64(
                       std::max<uint64_t>(2, c.extent / 3)));
  c.weights = rng.NextDouble() < 0.5;
  c.memory_bytes = (4 + rng.UniformU64(28)) << 10;
  c.fanout = 2 + rng.UniformU64(7);
  c.base_max = 4 + rng.UniformU64(60);
  c.data_seed = rng.NextU64();
  return c;
}

// Runs every implementation on `objects` and asserts they agree with the
// brute-force oracle. `tag` names the failing configuration in diagnostics.
void CheckAllImplementationsAgree(const std::vector<SpatialObject>& objects,
                                  const FuzzConfig& c, const std::string& tag) {
  // Ground truth.
  const BruteForceResult oracle = BruteForceMaxRS(objects, c.rect_w, c.rect_h);

  // In-memory sweep.
  const MaxRSResult mem = ExactMaxRSInMemory(objects, c.rect_w, c.rect_h);
  ASSERT_EQ(mem.total_weight, oracle.total_weight)
      << "in-memory sweep diverged, config " << tag;

  // External pipeline under the fuzzed memory/fan-out knobs.
  auto env = NewMemEnv(512);
  MaxRSOptions options;
  options.rect_width = c.rect_w;
  options.rect_height = c.rect_h;
  options.memory_bytes = c.memory_bytes;
  options.fanout = c.fanout;
  options.base_case_max_pieces = c.base_max;
  auto external = RunExactMaxRS(*env, objects, options);
  ASSERT_TRUE(external.ok()) << external.status().ToString();
  ASSERT_EQ(external->total_weight, oracle.total_weight)
      << "external pipeline diverged, config " << tag
      << " (n=" << c.n << " extent=" << c.extent << " rect=" << c.rect_w << "x"
      << c.rect_h << " fanout=" << c.fanout << " base=" << c.base_max << ")";
  // Witness realizes the optimum.
  ASSERT_EQ(CoveredWeight(objects,
                          Rect::Centered(external->location, c.rect_w, c.rect_h)),
            oracle.total_weight)
      << "external witness wrong, config " << tag;

  // Baselines (cheap enough at fuzz sizes).
  ASSERT_TRUE(WriteDataset(*env, "fuzz_data", objects).ok());
  BaselineOptions baseline_options;
  baseline_options.rect_width = c.rect_w;
  baseline_options.rect_height = c.rect_h;
  baseline_options.memory_bytes = c.memory_bytes;
  auto naive = RunNaivePlaneSweep(*env, "fuzz_data", baseline_options);
  ASSERT_TRUE(naive.ok());
  ASSERT_EQ(naive->total_weight, oracle.total_weight)
      << "naive diverged, config " << tag;
  auto asb = RunASBTreeSweep(*env, "fuzz_data", baseline_options);
  ASSERT_TRUE(asb.ok());
  ASSERT_EQ(asb->total_weight, oracle.total_weight)
      << "aSB-tree diverged, config " << tag;

  // Prepared/sharded serve path: per-shard solve with a cross-shard
  // MergeSweep, under the same fuzzed memory/fan-out/base-case knobs as
  // the external pipeline — a completely different division tree (the
  // shards are the top-level cut), so agreement with the oracle is a
  // genuine differential. The shard count varies with the data seed and
  // is clamped by the ingest budget's stream-block cap.
  {
    DatasetHandleOptions ingest_options;
    ingest_options.shard_count = 1 + c.data_seed % 7;
    ingest_options.memory_bytes = c.memory_bytes;
    ingest_options.prefix = "fuzz_sharded";
    auto handle = DatasetHandle::Ingest(*env, "fuzz_data", ingest_options);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    // Two serve legs of the same per-shard solve: streaming channels (the
    // default) and streaming with a cap of zero so every routed record
    // takes the spill path.
    struct ServeLeg {
      const char* name;
      size_t channel_bytes;
    };
    const ServeLeg legs[] = {
        {"streaming", 1 << 20},
        {"streaming/spill", 0},
    };
    for (const ServeLeg& leg : legs) {
      MaxRSServerOptions server_options;
      server_options.memory_bytes = c.memory_bytes;
      server_options.fanout = c.fanout;
      server_options.base_case_max_pieces = c.base_max;
      server_options.stream_channel_bytes = leg.channel_bytes;
      MaxRSServer server(*env, *handle, server_options);
      auto served = server.Submit(c.rect_w, c.rect_h);
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      ASSERT_EQ(served->total_weight, oracle.total_weight)
          << "sharded serve (" << leg.name << ") diverged, config " << tag
          << " (" << handle->shards().size() << " shards)";
      ASSERT_EQ(CoveredWeight(objects, Rect::Centered(served->location,
                                                      c.rect_w, c.rect_h)),
                oracle.total_weight)
          << "sharded serve (" << leg.name << ") witness wrong, config "
          << tag;
    }
    ASSERT_TRUE(handle->Drop().ok());
  }

  // Streaming division: served at one shard, the query is one
  // SolveSlabStream over the whole dataset, the same recursion as the
  // external pipeline fed through channels instead of materialized part
  // files — once with a cap small enough that every division spills
  // mid-stream and once with the pure in-memory hand-off.
  {
    DatasetHandleOptions ingest_options;
    ingest_options.shard_count = 1;
    ingest_options.memory_bytes = c.memory_bytes;
    ingest_options.prefix = "fuzz_one_shard";
    auto handle = DatasetHandle::Ingest(*env, "fuzz_data", ingest_options);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    for (size_t cap : {size_t{256}, size_t{1} << 20}) {
      MaxRSServerOptions server_options;
      server_options.memory_bytes = c.memory_bytes;
      server_options.fanout = c.fanout;
      server_options.base_case_max_pieces = c.base_max;
      server_options.stream_channel_bytes = cap;
      MaxRSServer server(*env, *handle, server_options);
      auto streamed = server.Submit(c.rect_w, c.rect_h);
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
      ASSERT_EQ(streamed->total_weight, oracle.total_weight)
          << "streaming division diverged, config " << tag << " (cap " << cap
          << ")";
      ASSERT_EQ(streamed->location, external->location)
          << "streaming division witness moved, config " << tag << " (cap "
          << cap << ")";
    }
    ASSERT_TRUE(handle->Drop().ok());
  }
}

class MaxRSFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MaxRSFuzzTest, AllImplementationsAgree) {
  const FuzzConfig c = MakeConfig(GetParam());
  auto objects = testing::RandomIntObjects(c.n, c.extent, c.data_seed, c.weights);
  CheckAllImplementationsAgree(objects, c,
                               "fuzz index " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Configs, MaxRSFuzzTest, ::testing::Range<uint64_t>(0, 40));

// ---------------------------------------------------------------------------
// Fixed-seed regression corpus.
//
// Each entry pins one configuration forever, so a differential failure found
// by fuzzing (or by hand) reproduces deterministically from its seed alone.
// The corpus deliberately stresses the two classic sweep edge cases:
//   - duplicate coordinates: a tiny extent plus a re-appended prefix forces
//     many objects onto identical points (coincident interval endpoints);
//   - zero-weight objects: every third object contributes w = 0, which must
//     not perturb any implementation's optimum.
// ---------------------------------------------------------------------------

std::vector<SpatialObject> MakeRegressionObjects(uint64_t seed, size_t n,
                                                 uint64_t extent) {
  auto objects = testing::RandomIntObjects(n, extent, seed, /*random_weights=*/true);
  for (size_t i = 2; i < n; i += 3) objects[i].w = 0.0;
  // Duplicate the first quarter verbatim: exact coordinate collisions.
  objects.reserve(n + n / 4);
  for (size_t i = 0; i < n / 4; ++i) objects.push_back(objects[i]);
  return objects;
}

struct RegressionCase {
  uint64_t seed;
  size_t n;
  uint64_t extent;
  double rect_w;
  double rect_h;
  size_t fanout;
  uint64_t base_max;
};

class MaxRSRegressionTest : public ::testing::TestWithParam<RegressionCase> {};

TEST_P(MaxRSRegressionTest, CorpusReproducesDeterministically) {
  const RegressionCase rc = GetParam();
  const auto objects = MakeRegressionObjects(rc.seed, rc.n, rc.extent);

  FuzzConfig c;
  c.n = objects.size();
  c.extent = rc.extent;
  c.rect_w = rc.rect_w;
  c.rect_h = rc.rect_h;
  c.weights = true;
  c.memory_bytes = 8 << 10;
  c.fanout = rc.fanout;
  c.base_max = rc.base_max;
  c.data_seed = rc.seed;
  CheckAllImplementationsAgree(objects, c,
                               "regression seed " + std::to_string(rc.seed));

  // The corpus only has value if it actually exercises the edge cases:
  // assert the generated dataset contains duplicates and zero weights.
  size_t zero_weight = 0;
  std::map<std::pair<double, double>, size_t> at;
  for (const auto& o : objects) {
    if (o.w == 0.0) ++zero_weight;
    ++at[{o.x, o.y}];
  }
  size_t duplicated_points = 0;
  for (const auto& [point, count] : at) {
    (void)point;
    if (count > 1) ++duplicated_points;
  }
  EXPECT_GE(zero_weight, objects.size() / 4) << "seed " << rc.seed;
  EXPECT_GE(duplicated_points, 5u) << "seed " << rc.seed;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, MaxRSRegressionTest,
    ::testing::Values(
        // seed, n, extent, rect_w, rect_h, fanout, base_max
        RegressionCase{0xC0FFEE01, 120, 12, 4, 4, 2, 8},
        RegressionCase{0xC0FFEE02, 200, 16, 6, 2, 3, 16},
        RegressionCase{0xC0FFEE03, 80, 6, 2, 2, 5, 4},     // dense collisions
        RegressionCase{0xC0FFEE04, 256, 24, 10, 10, 2, 32},
        RegressionCase{0xC0FFEE05, 150, 10, 30, 30, 4, 8},  // rect covers all
        RegressionCase{0xC0FFEE06, 60, 4, 3, 5, 7, 6}));    // tiny domain

// ---------------------------------------------------------------------------
// Skewed-serving corpus.
//
// The generic fuzz data is near-uniform. This leg serves weight-skewed
// draws: a heavy strip holds most of the mass and is wide in x relative to
// the rect, so the optimum sits in a few shards while whole background
// shards weigh less than it. Served answers at 8-24 shards must match the
// brute-force oracle, and the witness must realize that weight.
// ---------------------------------------------------------------------------

TEST(MaxRSSkewedServeFuzzTest, ServedAnswerMatchesOracle) {
  for (uint64_t index = 0; index < 8; ++index) {
    SCOPED_TRACE("skewed-serve index " + std::to_string(index));
    Rng rng(0xF0221000 + index);
    const size_t n = 600 + rng.UniformU64(600);
    const uint64_t extent = 4000 + rng.UniformU64(4000);
    const double rect_w = 2.0 * static_cast<double>(40 + rng.UniformU64(80));
    const double rect_h = 2.0 * static_cast<double>(40 + rng.UniformU64(80));
    const size_t shards = 8 + rng.UniformU64(17);

    // Heavy strip: two thirds of the points, weight 40, in the top third
    // of x and a rect-height band of y.
    auto objects = testing::RandomIntObjects(n, extent, rng.NextU64());
    const double strip_x = std::floor(2.0 * static_cast<double>(extent) / 3.0);
    for (size_t i = 0; i < objects.size(); ++i) {
      if (i % 3 == 0) continue;
      objects[i].x = strip_x + std::floor(objects[i].x / 3.0);
      objects[i].y = std::floor(objects[i].y / 4.0);
      objects[i].w = 40.0;
    }

    const BruteForceResult oracle = BruteForceMaxRS(objects, rect_w, rect_h);

    auto env = NewMemEnv(512);
    ASSERT_TRUE(WriteDataset(*env, "skewed_fuzz", objects).ok());
    DatasetHandleOptions ingest_options;
    ingest_options.shard_count = shards;
    ingest_options.memory_bytes = 32 << 10;
    ingest_options.prefix = "skewed_fuzz_ds";
    auto handle = DatasetHandle::Ingest(*env, "skewed_fuzz", ingest_options);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();

    MaxRSServerOptions server_options;
    server_options.memory_bytes = 32 << 10;
    MaxRSServer server(*env, *handle, server_options);
    auto served = server.Submit(rect_w, rect_h);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ASSERT_EQ(served->total_weight, oracle.total_weight)
        << "serving diverged (" << handle->shards().size() << " shards)";
    ASSERT_EQ(CoveredWeight(objects,
                            Rect::Centered(served->location, rect_w, rect_h)),
              oracle.total_weight)
        << "serve witness wrong";
    ASSERT_TRUE(handle->Drop().ok());
  }
}

// ---------------------------------------------------------------------------
// Real-weight, tiny-rect corpus.
//
// Rects far smaller than the spacing of the points leave the extremal
// interval alone at most sweep events, so base cases drop most of their
// tuples as repeats of their predecessor, and a MergeSweep above them sees
// far fewer events than PlaneSweep over all pieces. Weights are eighths:
// not integers, zero or negative on the odd draws, yet every partial sum
// is exact, so every division tree must give the same bits. The in-memory
// weight must equal the brute-force oracle's, the external answers must
// equal the in-memory ones in weight, location and region, and the served
// answer at 1, 3 and 8 shards must equal one-shot.
// ---------------------------------------------------------------------------

void ExpectSameRegion(const RankedRegion& a, const RankedRegion& b,
                      const std::string& what) {
  EXPECT_EQ(a.total_weight, b.total_weight) << what;
  EXPECT_EQ(a.location, b.location) << what;
  EXPECT_EQ(a.region, b.region) << what;
}

void ExpectSameResult(const MaxRSResult& a, const MaxRSResult& b,
                      const std::string& what) {
  ExpectSameRegion({a.location, a.total_weight, a.region},
                   {b.location, b.total_weight, b.region}, what);
}

TEST(MaxRSRealWeightFuzzTest, TinyRectsAgreeBitForBit) {
  for (uint64_t index = 0; index < 12; ++index) {
    SCOPED_TRACE("real-weight index " + std::to_string(index));
    Rng rng(0xF0222000 + index);
    const size_t n = 150 + rng.UniformU64(250);
    const uint64_t extent = 200 + rng.UniformU64(400);
    const double rect_w = static_cast<double>(1 + rng.UniformU64(8));
    const double rect_h = static_cast<double>(1 + rng.UniformU64(8));
    const bool mixed_sign = index % 2 == 1;
    auto objects = testing::RandomIntObjects(n, extent, rng.NextU64());
    for (SpatialObject& o : objects) {
      const int64_t eighths =
          static_cast<int64_t>(rng.UniformU64(mixed_sign ? 57 : 41)) -
          (mixed_sign ? 16 : 0);
      o.w = static_cast<double>(eighths) / 8.0;
    }

    auto env = NewMemEnv(512);
    ASSERT_TRUE(WriteDataset(*env, "real_fuzz", objects).ok());
    MaxRSOptions options;
    options.rect_width = rect_w;
    options.rect_height = rect_h;
    options.memory_bytes = 8 << 10;
    options.fanout = 2 + rng.UniformU64(5);
    options.base_case_max_pieces = 4 + rng.UniformU64(40);

    const MaxRSResult mem = ExactMaxRSInMemory(objects, rect_w, rect_h);
    EXPECT_EQ(mem.total_weight,
              BruteForceMaxRS(objects, rect_w, rect_h).total_weight);
    auto exact = RunExactMaxRS(*env, "real_fuzz", options);
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    ExpectSameResult(*exact, mem, "RunExactMaxRS");
    EXPECT_EQ(CoveredWeight(objects,
                            Rect::Centered(exact->location, rect_w, rect_h)),
              exact->total_weight);

    auto top = RunTopKMaxRS(*env, "real_fuzz", options, 3);
    ASSERT_TRUE(top.ok()) << top.status().ToString();
    const std::vector<RankedRegion> top_mem =
        TopKMaxRSInMemory(objects, rect_w, rect_h, 3);
    ASSERT_EQ(top->size(), top_mem.size());
    for (size_t i = 0; i < top_mem.size(); ++i) {
      ExpectSameRegion((*top)[i], top_mem[i],
                       "RunTopKMaxRS rank " + std::to_string(i));
    }

    auto min_rs = RunMinRS(*env, "real_fuzz", options);
    ASSERT_TRUE(min_rs.ok()) << min_rs.status().ToString();
    const MaxRSResult min_mem = MinRSInMemory(objects, rect_w, rect_h);
    ExpectSameResult(*min_rs, min_mem, "RunMinRS");
    EXPECT_EQ(CoveredWeight(objects,
                            Rect::Centered(min_rs->location, rect_w, rect_h)),
              min_rs->total_weight);

    for (const size_t shards : {size_t{1}, size_t{3}, size_t{8}}) {
      DatasetHandleOptions ingest_options;
      ingest_options.shard_count = shards;
      ingest_options.memory_bytes = 64 << 10;
      ingest_options.prefix = "real_fuzz_" + std::to_string(shards);
      auto handle = DatasetHandle::Ingest(*env, "real_fuzz", ingest_options);
      ASSERT_TRUE(handle.ok()) << handle.status().ToString();
      ASSERT_EQ(handle->shards().size(), shards);
      MaxRSServerOptions server_options;
      server_options.memory_bytes = options.memory_bytes;
      server_options.fanout = options.fanout;
      server_options.base_case_max_pieces = options.base_case_max_pieces;
      MaxRSServer server(*env, *handle, server_options);
      auto served = server.Submit(rect_w, rect_h);
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      ExpectSameResult(*served, *exact,
                       "served at " + std::to_string(shards) + " shards");
      ASSERT_TRUE(handle->Drop().ok());
    }
  }
}

}  // namespace
}  // namespace maxrs

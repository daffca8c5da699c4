// The threshold filter (serve/density_bound.h): its bound, its threshold,
// and the answers served through it.
//
// The bound must never fall below the weight of any placement that covers
// the object (checked against a brute-force sweep of candidate placements,
// on integer weights with zeros, duplicate points, objects on cell edges and
// objects exactly at and just inside x +/- w and y +/- h). A served answer
// must equal one-shot RunExactMaxRS bit for bit at 1, 3 and 8 shards, on
// clustered, uniform and tied data, also when filtered edges feed an
// in-shard division; datasets the filter does not accept serve with
// objects_filtered == 0; and a handle from Open filters exactly like the
// handle that was ingested.
#include "serve/density_bound.h"

#include <algorithm>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "core/exact_maxrs.h"
#include "datagen/dataset_io.h"
#include "datagen/generators.h"
#include "gtest/gtest.h"
#include "io/env.h"
#include "serve/dataset_handle.h"
#include "serve/maxrs_server.h"
#include "test_util.h"

namespace maxrs {
namespace {

constexpr char kDatasetFile[] = "objects";

std::unique_ptr<Env> MakeEnv(const std::vector<SpatialObject>& objects) {
  auto env = NewMemEnv(4096);
  EXPECT_TRUE(WriteDataset(*env, kDatasetFile, objects).ok());
  return env;
}

Rect BoundsOf(const std::vector<SpatialObject>& objects) {
  Rect box{kInf, -kInf, kInf, -kInf};
  for (const SpatialObject& o : objects) {
    box.x_lo = std::min(box.x_lo, o.x);
    box.x_hi = std::max(box.x_hi, o.x);
    box.y_lo = std::min(box.y_lo, o.y);
    box.y_hi = std::max(box.y_hi, o.y);
  }
  return box;
}

std::shared_ptr<const DensityBound> BuildBound(
    const std::vector<SpatialObject>& objects) {
  auto env = MakeEnv(objects);
  auto bound = DensityBound::Build(*env, {kDatasetFile}, BoundsOf(objects));
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  return bound.ok() ? *bound : nullptr;
}

// The best weight of any placement covering `o`, by brute force under the
// sweep's half-open cover: a placement centred at q covers o' iff q lies in
// o''s piece [x - w/2, x + w/2) x [y - h/2, y + h/2). The covered set is
// constant between consecutive piece edges, so the candidates for q are the
// edges inside o's piece.
double BestCovering(const std::vector<SpatialObject>& objects,
                    const SpatialObject& o, double w, double h) {
  const PieceRecord p = TransformObject(o, w, h);
  std::vector<PieceRecord> near;
  std::vector<double> xs{p.x_lo}, ys{p.y_lo};
  for (const SpatialObject& other : objects) {
    const PieceRecord q = TransformObject(other, w, h);
    if (q.x_lo >= p.x_hi || q.x_hi <= p.x_lo || q.y_lo >= p.y_hi ||
        q.y_hi <= p.y_lo) {
      continue;
    }
    near.push_back(q);
    for (double x : {q.x_lo, q.x_hi}) {
      if (x >= p.x_lo && x < p.x_hi) xs.push_back(x);
    }
    for (double y : {q.y_lo, q.y_hi}) {
      if (y >= p.y_lo && y < p.y_hi) ys.push_back(y);
    }
  }
  double best = 0.0;
  for (double x : xs) {
    for (double y : ys) {
      double sum = 0.0;
      for (const PieceRecord& q : near) {
        if (q.x_lo <= x && x < q.x_hi && q.y_lo <= y && y < q.y_hi) {
          sum += q.w;
        }
      }
      best = std::max(best, sum);
    }
  }
  return best;
}

// The grid's side: zero-weight corners at 0 and kSide make every grid cell
// one unit wide.
constexpr double kSide = DensityBound::kGrid;

// Dense integer points on [0, kSide]^2, so every point lies on cell edges;
// weights in [0, 3] (zeros included), with every seventh point duplicated.
std::vector<SpatialObject> LatticeObjects(uint64_t seed) {
  Rng rng(seed);
  std::vector<SpatialObject> objects = {{0, 0, 0}, {kSide, kSide, 0}};
  for (int i = 0; i < 600; ++i) {
    objects.push_back({static_cast<double>(rng.UniformU64(static_cast<uint64_t>(kSide) + 1)),
                       static_cast<double>(rng.UniformU64(static_cast<uint64_t>(kSide) + 1)),
                       static_cast<double>(rng.UniformU64(4))});
    if (i % 7 == 0) objects.push_back(objects.back());
  }
  return objects;
}

// Isolated pairs on the same unit grid, for a 4 x 4 rect: an anchor at a
// half-unit position with one partner. The first four partners lie just
// inside its reach (3.75 away, in the grid cell of x + w, x - w, y + h or
// y - h), the last four exactly at x +/- w or y +/- h, out of reach under
// the half-open cover. Pairs are 20 units apart, out of each other's reach.
constexpr double kReachOffsets[][2] = {{3.75, 0}, {-3.75, 0}, {0, 3.75},
                                       {0, -3.75}, {4, 0},    {-4, 0},
                                       {0, 4},     {0, -4}};

SpatialObject ReachAnchor(size_t k) {
  const double a = 20.5 + 20.0 * static_cast<double>(k);
  return {a, a, 1};
}

std::vector<SpatialObject> ReachObjects() {
  std::vector<SpatialObject> objects = {{0, 0, 0}, {kSide, kSide, 0}};
  for (size_t k = 0; k < 8; ++k) {
    const SpatialObject anchor = ReachAnchor(k);
    objects.push_back(anchor);
    objects.push_back({anchor.x + kReachOffsets[k][0],
                       anchor.y + kReachOffsets[k][1], 1});
  }
  return objects;
}

TEST(DensityBoundTest, BoundIsNeverBelowAnyPlacementCoveringTheObject) {
  const double kRects[][2] = {{1, 1}, {2, 3}, {4, 4}, {7.5, 2.5}, {40, 25}};
  const std::pair<const char*, std::vector<SpatialObject>> kInputs[] = {
      {"lattice seed 1", LatticeObjects(1)},
      {"lattice seed 2", LatticeObjects(2)},
      {"reach", ReachObjects()},
  };
  for (const auto& [input, objects] : kInputs) {
    SCOPED_TRACE(input);
    const auto bound = BuildBound(objects);
    ASSERT_NE(bound, nullptr);
    for (const auto& rect : kRects) {
      for (const SpatialObject& o : objects) {
        const double best = BestCovering(objects, o, rect[0], rect[1]);
        ASSERT_GE(static_cast<double>(bound->Bound(o, rect[0], rect[1])), best)
            << "object (" << o.x << ", " << o.y << ") rect " << rect[0]
            << " x " << rect[1];
      }
    }
  }
}

TEST(DensityBoundTest, BoundIsTightOnIsolatedPairs) {
  // A pair in reach: each object's best placement covers both, and the
  // window meets exactly the two cells, so the bound is exactly 2 — one
  // cell less on the partner's side would be 1. A pair exactly w or h
  // apart is out of reach: the best is 1, and the bound may still count
  // the partner.
  const std::vector<SpatialObject> objects = ReachObjects();
  const auto bound = BuildBound(objects);
  ASSERT_NE(bound, nullptr);
  for (size_t k = 0; k < 8; ++k) {
    SCOPED_TRACE("pair " + std::to_string(k));
    const SpatialObject anchor = ReachAnchor(k);
    const SpatialObject partner{anchor.x + kReachOffsets[k][0],
                                anchor.y + kReachOffsets[k][1], 1};
    const double best = k < 4 ? 2.0 : 1.0;
    EXPECT_EQ(BestCovering(objects, anchor, 4, 4), best);
    EXPECT_EQ(BestCovering(objects, partner, 4, 4), best);
    EXPECT_EQ(bound->Bound(anchor, 4, 4), 2u);
    EXPECT_EQ(bound->Bound(partner, 4, 4), 2u);
  }
}

TEST(DensityBoundTest, OnlyFiniteNonNegativeIntegerWeightsAreEligible) {
  std::vector<SpatialObject> objects = {{1, 1, 0}, {2, 5, 3}, {9, 4, 1}};
  EXPECT_NE(BuildBound(objects), nullptr);
  const std::pair<const char*, double> kIneligible[] = {
      {"fractional", 1.5},
      {"negative", -1.0},
      {"infinite", kInf},
      {"NaN", std::nan("")},
      {"above UINT32_MAX", 5e9},
  };
  for (const auto& [what, weight] : kIneligible) {
    SCOPED_TRACE(what);
    std::vector<SpatialObject> bad = objects;
    bad[1].w = weight;
    EXPECT_EQ(BuildBound(bad), nullptr);
  }
  // Every weight fits, the total does not.
  EXPECT_EQ(BuildBound({{1, 1, 3e9}, {2, 2, 3e9}}), nullptr);
  // A total of exactly UINT32_MAX still fits.
  const auto full = BuildBound({{1, 1, 4294967295.0}, {2, 2, 0}});
  ASSERT_NE(full, nullptr);
  EXPECT_EQ(full->total_weight(), UINT32_MAX);
  EXPECT_EQ(full->Bound({1, 1, 0}, 10, 10), UINT32_MAX);
}

TEST(DensityBoundTest, ThresholdIsTheProbeOptimumAndNeverAboveTheAnswer) {
  for (uint64_t seed : {3, 4}) {
    ClusterOptions options;
    options.cardinality = 3000;
    options.domain_size = 1e5;
    options.num_clusters = 6;
    options.seed = seed;
    const std::vector<SpatialObject> objects = MakeClustered(options);
    const auto bound = BuildBound(objects);
    ASSERT_NE(bound, nullptr);
    EXPECT_GT(bound->probe().size(), 0u);
    EXPECT_LE(bound->probe().size(), DensityBound::kMaxProbeObjects);
    for (double w : {50.0, 150.0, 400.0}) {
      const double tau = bound->Threshold(w, w);
      EXPECT_EQ(tau, ExactMaxRSInMemory(bound->probe(), w, w).total_weight);
      EXPECT_LE(tau, ExactMaxRSInMemory(objects, w, w).total_weight);
      EXPECT_GT(tau, 0.0);
    }
  }
}

TEST(DensityBoundTest, ProbeSetKeepsAPrefixAtTheCap) {
  // 5000 points stacked on one spot: every probe window holds them all,
  // and the probe keeps the first kMaxProbeObjects in scan order.
  std::vector<SpatialObject> objects = {{0, 0, 0}, {1000, 1000, 0}};
  for (int i = 0; i < 5000; ++i) objects.push_back({500, 500, 1});
  const auto bound = BuildBound(objects);
  ASSERT_NE(bound, nullptr);
  ASSERT_EQ(bound->probe().size(), DensityBound::kMaxProbeObjects);
  EXPECT_EQ(bound->Threshold(10, 10), 4096.0);
}

TEST(ObjectFilterTest, KeepsAnObjectWhoseBoundEqualsTheThreshold) {
  // Two objects 3.75 apart on a unit grid: both in reach of each other
  // under a 4 x 4 rect, so tau = the optimum = 2 = each object's bound.
  const std::vector<SpatialObject> objects = {
      {0, 0, 0}, {kSide, kSide, 0}, {100.5, 100.5, 1}, {104.25, 100.5, 1}};
  const auto bound = BuildBound(objects);
  ASSERT_NE(bound, nullptr);
  const ObjectFilter filter(bound.get(), 4, 4);
  EXPECT_EQ(filter.tau(), 2.0);
  EXPECT_EQ(bound->Bound(objects[2], 4, 4), 2u);
  EXPECT_TRUE(filter.Keep(objects[2]));
  EXPECT_TRUE(filter.Keep(objects[3]));
  EXPECT_FALSE(filter.Keep(objects[0]));  // zero weight, alone in reach
  EXPECT_TRUE(ObjectFilter().Keep(objects[0]));
}

// --- Answers served through the filter ---

void ExpectBitIdentical(const MaxRSResult& got, const MaxRSResult& want) {
  EXPECT_EQ(got.total_weight, want.total_weight);
  EXPECT_EQ(got.location, want.location);
  EXPECT_EQ(got.region, want.region);
}

struct Served {
  std::vector<MaxRSResult> results;
  uint64_t objects_filtered = 0;
};

// Submits every rect at once (the workers read the bound concurrently)
// and returns the results in rect order.
Served ServeAll(Env& env, const DatasetHandle& handle,
                const std::vector<std::pair<double, double>>& rects,
                MaxRSServerOptions options) {
  options.cache_entries = 0;
  MaxRSServer server(env, handle, options);
  const IoStatsSnapshot before = env.stats().Snapshot();
  std::vector<std::future<Result<QueryResponse>>> pending;
  for (const auto& [w, h] : rects) {
    QuerySpec spec;
    spec.width = w;
    spec.height = h;
    pending.push_back(server.SubmitAsync(spec));
  }
  Served served;
  for (auto& future : pending) {
    Result<QueryResponse> response = future.get();
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    served.results.push_back(response.ok() ? response->result : MaxRSResult{});
  }
  server.Shutdown();
  served.objects_filtered =
      (env.stats().Snapshot() - before).objects_filtered;
  return served;
}

std::vector<MaxRSResult> OneShot(
    Env& env, const std::vector<std::pair<double, double>>& rects) {
  std::vector<MaxRSResult> results;
  for (const auto& [w, h] : rects) {
    MaxRSOptions options;
    options.rect_width = w;
    options.rect_height = h;
    auto r = RunExactMaxRS(env, kDatasetFile, options);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    results.push_back(r.ok() ? *r : MaxRSResult{});
  }
  return results;
}

std::vector<SpatialObject> ClusteredObjects(uint64_t seed) {
  ClusterOptions options;
  options.cardinality = 4000;
  options.domain_size = 1e5;
  options.num_clusters = 8;
  options.seed = seed;
  return MakeClustered(options);
}

// Unit weights on a 10-unit lattice: a 15 x 15 rect covers at most four
// points, and hundreds of placements tie at four.
std::vector<SpatialObject> TiedObjects() {
  std::vector<SpatialObject> objects;
  for (int i = 0; i < 40; ++i) {
    for (int j = 0; j < 40; ++j) objects.push_back({10.0 * i, 10.0 * j, 1});
  }
  return objects;
}

TEST(ThresholdFilterServeTest, BitIdenticalToOneShotAcrossShardsAndData) {
  struct Input {
    const char* name;
    std::vector<SpatialObject> objects;
    std::vector<std::pair<double, double>> rects;
    bool filters;  // whether some object's bound falls below tau
  };
  const Input kInputs[] = {
      {"clustered", ClusteredObjects(5),
       {{300, 300}, {1000, 600}, {80, 2500}, {20000, 20000}},
       true},
      {"uniform", testing::RandomIntObjects(3000, 6000, 9, true),
       {{260, 140}, {800, 800}, {50, 50}},
       true},
      // Every lattice point's window is as dense as the best one's.
      {"ties", TiedObjects(), {{15, 15}, {10, 10}, {25, 5}}, false},
      {"lattice with zeros", LatticeObjects(3), {{4, 4}, {9, 13}}, true},
  };
  for (const Input& input : kInputs) {
    SCOPED_TRACE(input.name);
    auto env = MakeEnv(input.objects);
    const std::vector<MaxRSResult> want = OneShot(*env, input.rects);
    for (size_t shards : {1, 3, 8}) {
      SCOPED_TRACE(std::to_string(shards) + " shards");
      DatasetHandleOptions ingest;
      ingest.shard_count = shards;
      ingest.prefix = "ds" + std::to_string(shards);
      auto handle = DatasetHandle::Ingest(*env, kDatasetFile, ingest);
      ASSERT_TRUE(handle.ok()) << handle.status().ToString();
      ASSERT_NE(handle->density_bound(), nullptr);
      MaxRSServerOptions options;
      options.num_workers = 4;
      const Served served = ServeAll(*env, *handle, input.rects, options);
      for (size_t q = 0; q < input.rects.size(); ++q) {
        SCOPED_TRACE("rect " + std::to_string(q));
        ExpectBitIdentical(served.results[q], want[q]);
      }
      EXPECT_EQ(served.objects_filtered > 0, input.filters);
    }
  }
}

TEST(ThresholdFilterServeTest, FilteredEdgesFeedAnInShardDivision) {
  // One shard with a 32-piece base case and fanout 3: the survivors still
  // overflow it, so the solve divides on the filtered edge stream.
  const std::vector<SpatialObject> objects = ClusteredObjects(6);
  const std::vector<std::pair<double, double>> rects = {
      {3000, 3000}, {1200, 5000}, {8000, 800}};
  auto env = MakeEnv(objects);
  const std::vector<MaxRSResult> want = OneShot(*env, rects);
  for (size_t shards : {1, 3}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    DatasetHandleOptions ingest;
    ingest.shard_count = shards;
    ingest.prefix = "ds" + std::to_string(shards);
    auto handle = DatasetHandle::Ingest(*env, kDatasetFile, ingest);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    MaxRSServerOptions options;
    options.num_workers = 2;
    options.fanout = 3;
    options.base_case_max_pieces = 32;
    const Served served = ServeAll(*env, *handle, rects, options);
    EXPECT_GT(served.objects_filtered, 0u);
    for (size_t q = 0; q < rects.size(); ++q) {
      SCOPED_TRACE("rect " + std::to_string(q));
      ExpectBitIdentical(served.results[q], want[q]);
      EXPECT_GT(served.results[q].stats.merges, 0u)
          << "the survivors must overflow the base case";
    }
  }
}

TEST(ThresholdFilterServeTest, IneligibleWeightsServeUnfiltered) {
  // Dyadic fractions keep every sum exact, so answers still compare bit
  // for bit; negative weights make the bound unsound, so neither set may
  // be filtered.
  std::vector<SpatialObject> fractional =
      testing::RandomIntObjects(1500, 2000, 11, true);
  std::vector<SpatialObject> negative = fractional;
  for (size_t i = 0; i < fractional.size(); i += 5) {
    fractional[i].w += 0.25;
    negative[i].w = -negative[i].w;
  }
  const std::vector<std::pair<double, double>> rects = {{100, 100},
                                                        {400, 150}};
  for (const auto& [name, objects] :
       {std::make_pair("fractional", fractional),
        std::make_pair("negative", negative)}) {
    SCOPED_TRACE(name);
    auto env = MakeEnv(objects);
    const std::vector<MaxRSResult> want = OneShot(*env, rects);
    for (size_t shards : {1, 3}) {
      DatasetHandleOptions ingest;
      ingest.shard_count = shards;
      ingest.prefix = "ds" + std::to_string(shards);
      auto handle = DatasetHandle::Ingest(*env, kDatasetFile, ingest);
      ASSERT_TRUE(handle.ok()) << handle.status().ToString();
      EXPECT_EQ(handle->density_bound(), nullptr);
      MaxRSServerOptions options;
      options.num_workers = 2;
      const Served served = ServeAll(*env, *handle, rects, options);
      EXPECT_EQ(served.objects_filtered, 0u);
      for (size_t q = 0; q < rects.size(); ++q) {
        ExpectBitIdentical(served.results[q], want[q]);
      }
    }
  }
}

TEST(ThresholdFilterServeTest, OpenedHandleFiltersLikeTheIngestedHandle) {
  const std::vector<SpatialObject> objects = ClusteredObjects(7);
  const std::vector<std::pair<double, double>> rects = {
      {300, 300}, {700, 200}, {1500, 1500}};
  auto env = MakeEnv(objects);
  DatasetHandleOptions ingest;
  ingest.shard_count = 3;
  ingest.prefix = "ds";
  auto ingested = DatasetHandle::Ingest(*env, kDatasetFile, ingest);
  ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
  auto opened = DatasetHandle::Open(*env, "ds");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_NE(ingested->density_bound(), nullptr);
  ASSERT_NE(opened->density_bound(), nullptr);
  EXPECT_EQ(opened->density_bound()->total_weight(),
            ingested->density_bound()->total_weight());
  EXPECT_EQ(opened->density_bound()->probe().size(),
            ingested->density_bound()->probe().size());

  // One worker: each query's objects_filtered is its own.
  MaxRSServerOptions options;
  options.num_workers = 1;
  const std::vector<MaxRSResult> want = OneShot(*env, rects);
  for (size_t q = 0; q < rects.size(); ++q) {
    SCOPED_TRACE("rect " + std::to_string(q));
    const Served a = ServeAll(*env, *ingested, {rects[q]}, options);
    const Served b = ServeAll(*env, *opened, {rects[q]}, options);
    ExpectBitIdentical(a.results[0], want[q]);
    ExpectBitIdentical(b.results[0], want[q]);
    EXPECT_GT(a.objects_filtered, 0u);
    EXPECT_EQ(b.objects_filtered, a.objects_filtered);
    EXPECT_EQ(b.results[0].stats.io.objects_filtered, a.objects_filtered);
    EXPECT_EQ(b.results[0].stats.io.blocks_read,
              a.results[0].stats.io.blocks_read);
    EXPECT_EQ(b.results[0].stats.io.blocks_written,
              a.results[0].stats.io.blocks_written);
  }
}

}  // namespace
}  // namespace maxrs

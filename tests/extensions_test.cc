#include "core/extensions.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/brute_force.h"
#include "datagen/dataset_io.h"
#include "io/env.h"
#include "test_util.h"

namespace maxrs {
namespace {

MaxRSOptions SmallOptions(double rect) {
  MaxRSOptions options;
  options.rect_width = rect;
  options.rect_height = rect;
  options.memory_bytes = 1 << 14;
  options.fanout = 3;
  options.base_case_max_pieces = 16;
  return options;
}

/// Brute-force MinRS over centers strictly inside the bounding box: the min
/// is piecewise constant with breakpoints at o.x +- w/2 (and the box edges),
/// so probing the midpoints of consecutive breakpoints is exact for the open
/// domain the library defines.
double BruteForceMinRS(const std::vector<SpatialObject>& objects, double w,
                       double h) {
  Rect box = BoundingBox(objects);
  if (box.x_lo == box.x_hi) box.x_hi = box.x_lo + 1.0;
  if (box.y_lo == box.y_hi) box.y_hi = box.y_lo + 1.0;
  auto breakpoints = [&](bool x_axis) {
    std::vector<double> values = {x_axis ? box.x_lo : box.y_lo,
                                  x_axis ? box.x_hi : box.y_hi};
    for (const auto& o : objects) {
      const double c = x_axis ? o.x : o.y;
      const double half = (x_axis ? w : h) / 2.0;
      for (double v : {c - half, c + half}) {
        if (v >= values[0] && v <= values[1]) values.push_back(v);
      }
    }
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    std::vector<double> candidates;
    for (size_t i = 0; i + 1 < values.size(); ++i) {
      candidates.push_back((values[i] + values[i + 1]) / 2.0);
    }
    return candidates;
  };
  double best = kInf;
  for (double cx : breakpoints(true)) {
    for (double cy : breakpoints(false)) {
      best = std::min(best, CoveredWeight(objects, Rect::Centered({cx, cy}, w, h)));
    }
  }
  return best;
}

TEST(TopKMaxRSTest, KEqualsOneMatchesExactMaxRS) {
  auto objects = testing::RandomIntObjects(300, 100, 5);
  auto topk = TopKMaxRSInMemory(objects, 10, 10, 1);
  ASSERT_EQ(topk.size(), 1u);
  const MaxRSResult single = ExactMaxRSInMemory(objects, 10, 10);
  EXPECT_EQ(topk[0].total_weight, single.total_weight);
}

TEST(TopKMaxRSTest, ResultsSortedAndRealizable) {
  auto objects = testing::RandomIntObjects(400, 200, 7, /*random_weights=*/true);
  auto topk = TopKMaxRSInMemory(objects, 12, 12, 5);
  ASSERT_EQ(topk.size(), 5u);
  for (size_t i = 1; i < topk.size(); ++i) {
    EXPECT_GE(topk[i - 1].total_weight, topk[i].total_weight);
  }
  for (const RankedRegion& r : topk) {
    EXPECT_EQ(CoveredWeight(objects, Rect::Centered(r.location, 12, 12)),
              r.total_weight);
  }
}

TEST(TopKMaxRSTest, KLargerThanStrataCount) {
  std::vector<SpatialObject> objects = {{5, 5, 1.0}};
  auto topk = TopKMaxRSInMemory(objects, 4, 4, 100);
  // One rectangle yields two strata (open + close).
  EXPECT_LE(topk.size(), 2u);
  ASSERT_FALSE(topk.empty());
  EXPECT_EQ(topk[0].total_weight, 1.0);
}

TEST(TopKMaxRSTest, ExternalMatchesInMemory) {
  auto env = NewMemEnv(512);
  auto objects = testing::RandomIntObjects(1500, 400, 9);
  ASSERT_TRUE(WriteDataset(*env, "data", objects).ok());
  MaxRSStats stats;
  auto external = RunTopKMaxRS(*env, "data", SmallOptions(8), 4, &stats);
  ASSERT_TRUE(external.ok()) << external.status().ToString();
  auto internal = TopKMaxRSInMemory(objects, 8, 8, 4);
  ASSERT_EQ(external->size(), internal.size());
  for (size_t i = 0; i < internal.size(); ++i) {
    EXPECT_EQ((*external)[i].total_weight, internal[i].total_weight) << i;
  }
  EXPECT_GT(stats.recursion_levels, 0u);
}

TEST(TopKMaxRSTest, EmptyDataset) {
  auto env = NewMemEnv(512);
  ASSERT_TRUE(WriteDataset(*env, "data", {}).ok());
  MaxRSOptions options;
  options.memory_bytes = 1 << 14;
  auto topk = RunTopKMaxRS(*env, "data", options, 3);
  ASSERT_TRUE(topk.ok());
  EXPECT_TRUE(topk->empty());
}

struct MinCase {
  size_t n;
  uint64_t extent;
  double rect;
  bool weights;
};

class MinRSOracleTest : public ::testing::TestWithParam<MinCase> {};

TEST_P(MinRSOracleTest, MatchesBruteForce) {
  const MinCase& c = GetParam();
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    auto objects = testing::RandomIntObjects(c.n, c.extent, seed, c.weights);
    const MaxRSResult got = MinRSInMemory(objects, c.rect, c.rect);
    const double want = BruteForceMinRS(objects, c.rect, c.rect);
    ASSERT_EQ(got.total_weight, want)
        << "n=" << c.n << " extent=" << c.extent << " seed=" << seed;
    // The witness location realizes the weight and lies in the domain.
    EXPECT_EQ(CoveredWeight(objects, Rect::Centered(got.location, c.rect, c.rect)),
              got.total_weight);
    EXPECT_TRUE(got.stats.domain.Contains(got.location));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MinRSOracleTest,
    ::testing::Values(MinCase{20, 10, 4, false},    // dense: nonzero minimum
                      MinCase{40, 12, 8, true},     // very dense, weighted
                      MinCase{60, 100, 10, false},  // sparse: minimum 0
                      MinCase{100, 24, 10, true},
                      MinCase{30, 8, 12, false}));  // rect covers ~whole box

TEST(MinRSTest, DenseGridHasPositiveMinimum) {
  // A full 10x10 unit grid with a 3x3 window: every placement in the box
  // covers at least a 2x2 block of points... actually at least 4 points.
  std::vector<SpatialObject> objects;
  for (int x = 0; x < 10; ++x) {
    for (int y = 0; y < 10; ++y) {
      objects.push_back({static_cast<double>(x), static_cast<double>(y), 1.0});
    }
  }
  const MaxRSResult got = MinRSInMemory(objects, 3, 3);
  EXPECT_GT(got.total_weight, 0.0);
  EXPECT_EQ(got.total_weight, BruteForceMinRS(objects, 3, 3));
}

TEST(MinRSTest, ExternalMatchesInMemory) {
  auto env = NewMemEnv(512);
  auto objects = testing::RandomIntObjects(1200, 60, 3, /*random_weights=*/true);
  ASSERT_TRUE(WriteDataset(*env, "data", objects).ok());
  auto external = RunMinRS(*env, "data", SmallOptions(10));
  ASSERT_TRUE(external.ok()) << external.status().ToString();
  const MaxRSResult internal = MinRSInMemory(objects, 10, 10);
  EXPECT_EQ(external->total_weight, internal.total_weight);
  EXPECT_EQ(CoveredWeight(objects, Rect::Centered(external->location, 10, 10)),
            external->total_weight);
}

// The region of the minimum spans its whole stratum: from where the
// min-interval starts to where it next changes, not to the next sweep
// event. A = (10, 10, -2) and B = (100, 13, 1) with 4 x 4 rects in the
// box [10, 100] x [10, 13]: A's piece holds the minimum for y in [8, 12);
// B's piece opens at y = 11 far to the right and leaves the min-interval
// [10, 12) alone. The external pipeline forwards no tuple for such an
// event, so a region cut at y = 11 would depend on the division tree.
TEST(MinRSTest, RegionSpansTheWholeStratumOfTheMinimum) {
  const std::vector<SpatialObject> objects = {{10, 10, -2.0}, {100, 13, 1.0}};
  const MaxRSResult in_memory = MinRSInMemory(objects, 4, 4);
  EXPECT_EQ(in_memory.total_weight, -2.0);
  EXPECT_EQ(in_memory.region, (Rect{10, 12, 10, 12}));

  auto env = NewMemEnv(512);
  ASSERT_TRUE(WriteDataset(*env, "data", objects).ok());
  for (const uint64_t base_max : {uint64_t{1}, uint64_t{16}}) {
    MaxRSOptions options = SmallOptions(4);
    options.fanout = 2;
    options.base_case_max_pieces = base_max;  // 1: divides; 16: in memory
    auto external = RunMinRS(*env, "data", options);
    ASSERT_TRUE(external.ok()) << external.status().ToString();
    EXPECT_EQ(external->total_weight, in_memory.total_weight);
    EXPECT_EQ(external->region, in_memory.region) << "base_max " << base_max;
    EXPECT_EQ(external->location, in_memory.location);
  }
}

TEST(MinRSTest, EmptyAndDegenerateInputs) {
  auto env = NewMemEnv(512);
  ASSERT_TRUE(WriteDataset(*env, "empty", {}).ok());
  MaxRSOptions options;
  options.memory_bytes = 1 << 14;
  auto empty = RunMinRS(*env, "empty", options);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->total_weight, 0.0);

  // All objects at one point: degenerate bounding box is widened.
  std::vector<SpatialObject> point(5, SpatialObject{3, 3, 2.0});
  const MaxRSResult got = MinRSInMemory(point, 1, 1);
  EXPECT_GE(got.total_weight, 0.0);
  EXPECT_LE(got.total_weight, 10.0);
}

TEST(MinRSTest, MinNeverExceedsMax) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    auto objects = testing::RandomIntObjects(150, 40, seed);
    const MaxRSResult min_r = MinRSInMemory(objects, 6, 6);
    const MaxRSResult max_r = ExactMaxRSInMemory(objects, 6, 6);
    EXPECT_LE(min_r.total_weight, max_r.total_weight) << "seed=" << seed;
  }
}

// --- Greedy object-disjoint MaxkRS -------------------------------------------

TEST(GreedyKMaxRSTest, FirstPlacementIsTheOptimum) {
  auto objects = testing::RandomIntObjects(300, 120, 3, /*weights=*/true);
  auto greedy = GreedyKMaxRSInMemory(objects, 10, 10, 3);
  ASSERT_FALSE(greedy.empty());
  const MaxRSResult best = ExactMaxRSInMemory(objects, 10, 10);
  EXPECT_EQ(greedy[0].total_weight, best.total_weight);
}

TEST(GreedyKMaxRSTest, GreedySemanticsReplay) {
  // Re-simulate the greedy process independently and compare round scores.
  auto objects = testing::RandomIntObjects(400, 150, 7, /*weights=*/true);
  auto greedy = GreedyKMaxRSInMemory(objects, 12, 12, 4);
  std::vector<SpatialObject> remaining = objects;
  double total = 0;
  for (const RankedRegion& placement : greedy) {
    const Rect served = Rect::Centered(placement.location, 12, 12);
    EXPECT_EQ(CoveredWeight(remaining, served), placement.total_weight);
    remaining.erase(
        std::remove_if(
            remaining.begin(), remaining.end(),
            [&served](const SpatialObject& o) { return served.Contains(o); }),
        remaining.end());
    total += placement.total_weight;
  }
  // Weights are non-increasing, and total never exceeds the dataset weight.
  for (size_t i = 1; i < greedy.size(); ++i) {
    EXPECT_LE(greedy[i].total_weight, greedy[i - 1].total_weight);
  }
  double dataset_total = 0;
  for (const auto& o : objects) dataset_total += o.w;
  EXPECT_LE(total, dataset_total + 1e-9);
}

TEST(GreedyKMaxRSTest, StopsWhenNothingRemains) {
  // 5 tight points, window large enough to cover them all at once.
  std::vector<SpatialObject> objects = {
      {1, 1, 1}, {2, 2, 1}, {3, 3, 1}, {2, 1, 1}, {1, 2, 1}};
  auto greedy = GreedyKMaxRSInMemory(objects, 10, 10, 4);
  ASSERT_EQ(greedy.size(), 1u);
  EXPECT_EQ(greedy[0].total_weight, 5.0);
}

TEST(GreedyKMaxRSTest, ExternalMatchesInMemory) {
  auto env = NewMemEnv(512);
  auto objects = testing::RandomIntObjects(1200, 300, 11, /*weights=*/true);
  ASSERT_TRUE(WriteDataset(*env, "data", objects).ok());
  MaxRSStats stats;
  auto external = RunGreedyKMaxRS(*env, "data", SmallOptions(10), 3, &stats);
  ASSERT_TRUE(external.ok()) << external.status().ToString();
  auto internal = GreedyKMaxRSInMemory(objects, 10, 10, 3);
  ASSERT_EQ(external->size(), internal.size());
  for (size_t i = 0; i < internal.size(); ++i) {
    EXPECT_EQ((*external)[i].total_weight, internal[i].total_weight) << i;
  }
  // The original dataset file is left untouched.
  auto back = ReadDataset(*env, "data");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), objects.size());
}

TEST(GreedyKMaxRSTest, EmptyDataset) {
  auto env = NewMemEnv(512);
  ASSERT_TRUE(WriteDataset(*env, "data", {}).ok());
  MaxRSOptions options;
  options.memory_bytes = 1 << 14;
  auto greedy = RunGreedyKMaxRS(*env, "data", options, 5);
  ASSERT_TRUE(greedy.ok());
  EXPECT_TRUE(greedy->empty());
}

}  // namespace
}  // namespace maxrs

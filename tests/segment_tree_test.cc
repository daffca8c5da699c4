#include "core/segment_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.h"

namespace maxrs {
namespace {

/// Reference implementation: plain array.
class NaiveTree {
 public:
  explicit NaiveTree(size_t n) : values_(n, 0.0) {}

  void RangeAdd(size_t first, size_t last, double w) {
    for (size_t i = first; i <= last; ++i) values_[i] += w;
  }

  double Max() const { return *std::max_element(values_.begin(), values_.end()); }
  double Min() const { return *std::min_element(values_.begin(), values_.end()); }

  MaxRun MaxInterval() const { return LeftmostRun(Max()); }
  MaxRun MinInterval() const { return LeftmostRun(Min()); }

 private:
  /// The leftmost run of leaves equal to `m`, extended right while equal.
  MaxRun LeftmostRun(double m) const {
    MaxRun run{m, 0, 0};
    for (size_t i = 0; i < values_.size(); ++i) {
      if (values_[i] == m) {
        run.first = i;
        size_t j = i;
        while (j + 1 < values_.size() && values_[j + 1] == m) ++j;
        run.last = j;
        return run;
      }
    }
    return run;
  }

  std::vector<double> values_;
};

TEST(SegmentTreeTest, SingleLeaf) {
  SegmentTree tree(1);
  EXPECT_EQ(tree.Max(), 0.0);
  tree.RangeAdd(0, 0, 5.0);
  EXPECT_EQ(tree.Max(), 5.0);
  MaxRun run = tree.MaxInterval();
  EXPECT_EQ(run.first, 0u);
  EXPECT_EQ(run.last, 0u);
  EXPECT_EQ(run.value, 5.0);
}

TEST(SegmentTreeTest, DisjointAdds) {
  SegmentTree tree(10);
  tree.RangeAdd(0, 2, 1.0);
  tree.RangeAdd(5, 9, 2.0);
  EXPECT_EQ(tree.Max(), 2.0);
  MaxRun run = tree.MaxInterval();
  EXPECT_EQ(run.first, 5u);
  EXPECT_EQ(run.last, 9u);
}

TEST(SegmentTreeTest, OverlappingAddsStack) {
  SegmentTree tree(8);
  tree.RangeAdd(0, 5, 1.0);
  tree.RangeAdd(3, 7, 1.0);
  tree.RangeAdd(4, 4, 1.0);
  EXPECT_EQ(tree.Max(), 3.0);
  MaxRun run = tree.MaxInterval();
  EXPECT_EQ(run.first, 4u);
  EXPECT_EQ(run.last, 4u);
}

TEST(SegmentTreeTest, RemovalRestoresState) {
  SegmentTree tree(6);
  tree.RangeAdd(1, 4, 3.0);
  tree.RangeAdd(2, 3, 2.0);
  tree.RangeAdd(1, 4, -3.0);
  EXPECT_EQ(tree.Max(), 2.0);
  MaxRun run = tree.MaxInterval();
  EXPECT_EQ(run.first, 2u);
  EXPECT_EQ(run.last, 3u);
}

TEST(SegmentTreeTest, MaximalRunStopsBeforeLowerValue) {
  SegmentTree tree(5);
  tree.RangeAdd(0, 4, 1.0);
  tree.RangeAdd(0, 2, 1.0);  // values: 2 2 2 1 1
  MaxRun run = tree.MaxInterval();
  EXPECT_EQ(run.value, 2.0);
  EXPECT_EQ(run.first, 0u);
  EXPECT_EQ(run.last, 2u);
}

TEST(SegmentTreeTest, AllZeroReportsFullRange) {
  SegmentTree tree(7);
  MaxRun run = tree.MaxInterval();
  EXPECT_EQ(run.value, 0.0);
  EXPECT_EQ(run.first, 0u);
  EXPECT_EQ(run.last, 6u);
}

class SegmentTreeRandomTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SegmentTreeRandomTest, MatchesNaiveReference) {
  const size_t n = GetParam();
  SegmentTree tree(n);
  NaiveTree naive(n);
  Rng rng(n * 7919 + 13);
  for (int step = 0; step < 500; ++step) {
    size_t a = rng.UniformU64(n);
    size_t b = rng.UniformU64(n);
    if (a > b) std::swap(a, b);
    // Integer weights: comparisons stay exact.
    const double w = static_cast<double>(1 + rng.UniformU64(5)) *
                     (rng.NextDouble() < 0.4 ? -1.0 : 1.0);
    tree.RangeAdd(a, b, w);
    naive.RangeAdd(a, b, w);
    ASSERT_EQ(tree.Max(), naive.Max()) << "step " << step;
    const MaxRun got = tree.MaxInterval();
    const MaxRun want = naive.MaxInterval();
    ASSERT_EQ(got.value, want.value) << "step " << step;
    ASSERT_EQ(got.first, want.first) << "step " << step;
    ASSERT_EQ(got.last, want.last) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SegmentTreeRandomTest,
                         ::testing::Values(1, 2, 3, 7, 16, 33, 100, 257));

// Differential against the per-leaf model on both objectives, with weights
// drawn from a tiny dyadic set so sums stay exact and ties are everywhere:
// many leaves share the extremum, and the runs must still be the leftmost
// maximal ones the sweep reports.
TEST(SegmentTreeDifferentialTest, ExtremaAndRunsMatchPerLeafModelUnderTies) {
  const double kWeights[] = {-1.0, -0.5, 0.0, 0.5, 1.0, 2.0};
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const size_t n = 1 + rng.UniformU64(seed % 10 == 0 ? 1000 : 40);
    SegmentTree tree(n);
    NaiveTree naive(n);
    for (int step = 0; step < 200; ++step) {
      size_t a = rng.UniformU64(n);
      size_t b = rng.UniformU64(n);
      if (a > b) std::swap(a, b);
      // Every fourth update spans the whole range, shifting all leaves and
      // keeping long equal runs alive.
      if (step % 4 == 0) a = 0, b = n - 1;
      const double w = kWeights[rng.UniformU64(6)];
      tree.RangeAdd(a, b, w);
      naive.RangeAdd(a, b, w);
      ASSERT_EQ(tree.Max(), naive.Max()) << "seed " << seed << " step " << step;
      ASSERT_EQ(tree.Min(), naive.Min()) << "seed " << seed << " step " << step;
      const MaxRun got_max = tree.MaxInterval();
      const MaxRun want_max = naive.MaxInterval();
      ASSERT_EQ(got_max.value, want_max.value) << "seed " << seed;
      ASSERT_EQ(got_max.first, want_max.first) << "seed " << seed << " step " << step;
      ASSERT_EQ(got_max.last, want_max.last) << "seed " << seed << " step " << step;
      const MaxRun got_min = tree.MinInterval();
      const MaxRun want_min = naive.MinInterval();
      ASSERT_EQ(got_min.value, want_min.value) << "seed " << seed;
      ASSERT_EQ(got_min.first, want_min.first) << "seed " << seed << " step " << step;
      ASSERT_EQ(got_min.last, want_min.last) << "seed " << seed << " step " << step;
    }
  }
}

}  // namespace
}  // namespace maxrs

#include "core/segment_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "core/records.h"
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

/// The tree without its memo: the same nodes, the same RangeAdd order and
/// a fresh max-run search on every query, as SegmentTree ran before it
/// remembered its last result. The oracle of the memo differential below.
class SearchingTree {
 public:
  explicit SearchingTree(size_t n) : n_(n), nodes_(2 * n - 1) {
    Build(0, 0, n - 1);
  }

  void RangeAdd(size_t first, size_t last, double w) {
    Add(0, 0, n_ - 1, first, last, w);
  }

  MaxRun MaxInterval() const { return Extremal(true); }
  MaxRun MinInterval() const { return Extremal(false); }

 private:
  struct Node {
    double max = 0.0;
    double min = 0.0;
    double add = 0.0;
    uint32_t argmax = 0;
    uint32_t argmin = 0;
  };

  static size_t Right(size_t node, size_t lo, size_t mid) {
    return node + 2 * (mid - lo + 1);
  }

  void Build(size_t node, size_t lo, size_t hi) {
    nodes_[node].argmax = nodes_[node].argmin = static_cast<uint32_t>(lo);
    if (lo == hi) return;
    const size_t mid = lo + (hi - lo) / 2;
    Build(node + 1, lo, mid);
    Build(Right(node, lo, mid), mid + 1, hi);
  }

  // Top-down: covered nodes take the addition lazily, a partially covered
  // node is recomputed after both children, ties going left.
  void Add(size_t node, size_t lo, size_t hi, size_t first, size_t last,
           double w) {
    Node& n = nodes_[node];
    if (first <= lo && hi <= last) {
      n.add += w;
      n.max += w;
      n.min += w;
      return;
    }
    const size_t mid = lo + (hi - lo) / 2;
    const size_t right = Right(node, lo, mid);
    if (first <= mid) Add(node + 1, lo, mid, first, last, w);
    if (last > mid) Add(right, mid + 1, hi, first, last, w);
    const Node& l = nodes_[node + 1];
    const Node& r = nodes_[right];
    n.max = std::max(l.max, r.max) + n.add;
    n.min = std::min(l.min, r.min) + n.add;
    n.argmax = l.max >= r.max ? l.argmax : r.argmax;
    n.argmin = l.min <= r.min ? l.argmin : r.argmin;
  }

  MaxRun Extremal(bool want_max) const {
    const Node& root = nodes_[0];
    const double target = want_max ? root.max : root.min;
    const size_t first = want_max ? root.argmax : root.argmin;
    const size_t end =
        first + 1 >= n_
            ? n_
            : FirstOutside(0, 0, n_ - 1, 0.0, first + 1, target, want_max);
    return MaxRun{target, first, end - 1};
  }

  size_t FirstOutside(size_t node, size_t lo, size_t hi, double acc,
                      size_t from, double target, bool want_max) const {
    if (hi < from) return n_;
    const Node& n = nodes_[node];
    if (want_max ? n.min + acc >= target : n.max + acc <= target) return n_;
    if (lo == hi) return lo;
    const size_t mid = lo + (hi - lo) / 2;
    const size_t res =
        FirstOutside(node + 1, lo, mid, acc + n.add, from, target, want_max);
    if (res != n_) return res;
    return FirstOutside(Right(node, lo, mid), mid + 1, hi, acc + n.add, from,
                        target, want_max);
  }

  size_t n_;
  std::vector<Node> nodes_;
};

bool SameRun(const MaxRun& a, const MaxRun& b) {
  return SameBits(a.value, b.value) && a.first == b.first &&
         a.last == b.last;
}

// A RangeAdd outside the leaves the last search read can still change what
// that search would read. Here the adds leave leaf 1 one rounding step below
// the max of leaf 0 (values add up along different node paths), so the run
// is [0, 0] and the search read only leaf 1. The last add covers leaves 2-4:
// it misses leaf 1, but it changes the `min` of the path node over [0, 2]
// that the search prunes on, and the new search returns [0, 2]. Mirrored
// with negated weights for MinInterval, which prunes on `max`.
TEST(SegmentTreeTest, MemoForgetsRunWhenAReadPathNodeChanges) {
  struct Op {
    size_t first, last;
    double w;
  };
  const Op kOps[] = {{0, 4, 0.1},
                     {0, 2, 1.0 / 3},
                     {0, 4, 0.2},
                     {0, 1, 1.0 / 3},
                     {2, 4, 1.0 / 3}};
  for (const double sign : {1.0, -1.0}) {
    SegmentTree tree(5);
    SearchingTree oracle(5);
    MaxRun run;
    for (const Op& op : kOps) {
      tree.RangeAdd(op.first, op.last, sign * op.w);
      oracle.RangeAdd(op.first, op.last, sign * op.w);
      run = sign > 0 ? tree.MaxInterval() : tree.MinInterval();
      ASSERT_TRUE(SameRun(run, sign > 0 ? oracle.MaxInterval()
                                        : oracle.MinInterval()))
          << "sign " << sign << " after add to [" << op.first << ", "
          << op.last << "]";
    }
    EXPECT_EQ(run.first, 0u);
    EXPECT_EQ(run.last, 2u);
  }
}

// The memo must be invisible: real-valued weights (so sums carry rounding
// that differs per path), full-range and single-leaf adds, both objectives
// queried on one tree, and some ops with no query between them. Every run
// is compared bit for bit with a tree that searches on every query.
TEST(SegmentTreeTest, MemoizedRunsMatchSearchingOnEveryQuery) {
  const double kDecimal[] = {0.1, 0.2, 0.3, 0.7, -0.1, -0.2, -0.3, 1.0 / 3};
  for (size_t n : {1, 2, 7, 64, 4097}) {
    for (uint64_t seed = 1; seed <= 40; ++seed) {
      SegmentTree tree(n);
      SearchingTree oracle(n);
      Rng rng(seed * 1000003 + n);
      for (int step = 0; step < 600; ++step) {
        size_t a = rng.UniformU64(n);
        size_t b = rng.UniformU64(n);
        if (a > b) std::swap(a, b);
        const uint64_t shape = rng.UniformU64(8);
        if (shape == 0) a = 0, b = n - 1;  // full range
        if (shape == 1) b = a;             // single leaf
        // Decimal weights are inexact in binary, so sums that are equal in
        // exact arithmetic round differently along different node paths:
        // the cases where a search's pruning reads a node's `min` or `max`
        // bits, not just its leaves. Some uniform draws keep values apart.
        const double w = rng.UniformU64(4) == 0
                             ? rng.Uniform(-1.0, 3.0)
                             : kDecimal[rng.UniformU64(std::size(kDecimal))];
        tree.RangeAdd(a, b, w);
        oracle.RangeAdd(a, b, w);
        const uint64_t query = rng.UniformU64(6);
        if (query <= 2) {
          ASSERT_TRUE(SameRun(tree.MaxInterval(), oracle.MaxInterval()))
              << "n " << n << " seed " << seed << " step " << step;
        }
        if (query == 1 || query == 3) {
          ASSERT_TRUE(SameRun(tree.MinInterval(), oracle.MinInterval()))
              << "n " << n << " seed " << seed << " step " << step;
        }
        if (query == 4) {
          // A repeated query on an unchanged tree is answered from the memo.
          ASSERT_TRUE(SameRun(tree.MaxInterval(), oracle.MaxInterval()));
          ASSERT_TRUE(SameRun(tree.MaxInterval(), oracle.MaxInterval()));
        }
      }
    }
  }
}

}  // namespace
}  // namespace maxrs

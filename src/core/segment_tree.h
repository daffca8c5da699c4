// Augmented segment tree over a fixed set of elementary x-intervals,
// supporting range-add of weights and extraction of one maximal run of
// elementary intervals achieving the global maximum location-weight.
//
// This is the in-memory sweep structure of the PlaneSweep base case
// (the role played by the binary interval tree in Imai & Asano [11]):
// inserting a rectangle's x-extent is a range-add of +w, removing it -w,
// and after each batch of events the tree reports the max-interval tuple.
//
// Nodes sit in pre-order in one array of 2n-1 entries: a node covering
// [lo, hi] splits at mid = lo + (hi-lo)/2, its left child is the next entry
// and its right child follows the left subtree's 2(mid-lo+1)-1 entries.
// Every node also keeps the leftmost leaf attaining its max and its min, so
// locating the leftmost extremal leaf costs O(1).
//
// The run's right end is a search for the first leaf past the root's arg
// that falls below the root's max (rises above its min, for MinInterval).
// That search reads only the root's value and arg, and the `add` and `min`
// (`max`) of nodes whose range meets [arg + 1, end], where end is the leaf
// it returns (the last leaf when it finds none). The tree remembers its last
// result and that leaf range; a RangeAdd forgets them when its range meets
// the leaf range or when it changes the bits of a read `min` (`max`) on its
// recomputed path. Otherwise every value the search would read is
// unchanged, so the remembered run is exactly what a new search returns,
// and a query whose root value and arg also match returns it without
// searching. Nothing about the nodes or the order of additions depends on
// the memo, so every sum is bit-identical with or without it.
#ifndef MAXRS_CORE_SEGMENT_TREE_H_
#define MAXRS_CORE_SEGMENT_TREE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/geometry.h"

namespace maxrs {

/// A maximal run of elementary intervals with the maximum value.
struct MaxRun {
  double value = 0.0;     ///< The maximum location-weight.
  size_t first = 0;       ///< First elementary interval index of the run.
  size_t last = 0;        ///< Last elementary interval index (inclusive).
};

/// The lazy range-add segment tree described in the header comment.
class SegmentTree {
 public:
  /// Builds a tree over `num_leaves` elementary intervals, all with value 0.
  explicit SegmentTree(size_t num_leaves);

  /// Adds `w` to every elementary interval in [first, last] (inclusive).
  void RangeAdd(size_t first, size_t last, double w);

  /// Global maximum value.
  double Max() const;

  /// Global minimum value.
  double Min() const;

  /// Returns the leftmost maximal run of elementary intervals achieving
  /// Max(). "Maximal" means it cannot be extended right without dropping
  /// below the maximum. Not const: it remembers its result (header
  /// comment), and returns the remembered run while it is still exact.
  MaxRun MaxInterval();

  /// Symmetric: the leftmost maximal run achieving Min(). Used by the MinRS
  /// extension's min-objective sweep. Shares the one memo with MaxInterval.
  MaxRun MinInterval();

  /// Number of elementary intervals the tree was built over.
  size_t num_leaves() const { return num_leaves_; }

 private:
  struct Node {
    double max = 0.0;  ///< Max over subtree, including this node's `add`.
    double min = 0.0;  ///< Min over subtree, including this node's `add`.
    double add = 0.0;  ///< Lazy addition applied to the whole subtree.
    /// Leftmost leaf attaining `max` / `min`: at each level the left child
    /// wins ties (left.max >= right.max, left.min <= right.min).
    uint32_t argmax = 0;
    uint32_t argmin = 0;
  };

  /// Sets every node's argmax/argmin to the first leaf of its subtree.
  void Build(size_t node, size_t lo, size_t hi);
  /// Recomputes an internal node from its children `left` and `right`.
  void Pull(size_t node, size_t left, size_t right);
  /// Smallest leaf index >= from whose value is below (want_max) or above
  /// (!want_max) the target, or num_leaves_ if none.
  size_t FindFirstOutside(size_t node, size_t lo, size_t hi, double acc,
                          size_t from, double target, bool want_max) const;

  MaxRun ExtremalInterval(bool want_max);

  /// The last ExtremalInterval result and the leaves [read_lo, read_hi]
  /// its search read (empty when read_lo > read_hi).
  struct Memo {
    bool valid = false;
    bool want_max = true;
    MaxRun run;
    size_t read_lo = 1;
    size_t read_hi = 0;
  };

  size_t num_leaves_;
  std::vector<Node> nodes_;
  Memo memo_;
};

}  // namespace maxrs

#endif  // MAXRS_CORE_SEGMENT_TREE_H_

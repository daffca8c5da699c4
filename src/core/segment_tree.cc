#include "core/segment_tree.h"

#include <algorithm>

#include "core/records.h"
#include "util/check.h"

namespace maxrs {
namespace {

// Internal nodes on the two boundary paths of one RangeAdd: at most two per
// level, and a tree over < 2^32 leaves has at most 32 internal levels.
constexpr size_t kMaxPathNodes = 64;

}  // namespace

SegmentTree::SegmentTree(size_t num_leaves) : num_leaves_(num_leaves) {
  MAXRS_CHECK(num_leaves_ >= 1);
  MAXRS_CHECK(num_leaves_ - 1 <= UINT32_MAX);
  nodes_.resize(2 * num_leaves_ - 1);
  Build(0, 0, num_leaves_ - 1);
}

void SegmentTree::Build(size_t node, size_t lo, size_t hi) {
  nodes_[node].argmax = nodes_[node].argmin = static_cast<uint32_t>(lo);
  if (lo == hi) return;
  const size_t mid = lo + (hi - lo) / 2;
  Build(node + 1, lo, mid);
  Build(node + 2 * (mid - lo + 1), mid + 1, hi);
}

inline void SegmentTree::Pull(size_t node, size_t left, size_t right) {
  Node& n = nodes_[node];
  const Node& l = nodes_[left];
  const Node& r = nodes_[right];
  n.max = std::max(l.max, r.max) + n.add;
  n.min = std::min(l.min, r.min) + n.add;
  // Pick by comparing the children (ties go left) rather than by equality
  // with a root-computed target: per-path floating accumulation orders
  // differ, so equality can fail on real-valued weights while the
  // comparison always lands on the true extremal leaf. Masks instead of ?:
  // keep the select branch-free; the comparison is data-dependent and a
  // branch on it mispredicts about half the time.
  const uint32_t left_max = -static_cast<uint32_t>(l.max >= r.max);
  const uint32_t left_min = -static_cast<uint32_t>(l.min <= r.min);
  n.argmax = (l.argmax & left_max) | (r.argmax & ~left_max);
  n.argmin = (l.argmin & left_min) | (r.argmin & ~left_min);
}

// The same decomposition as a top-down recursion: nodes inside [first, last]
// take the addition lazily, and every partially covered node is recomputed
// from its children after both are final. Only distinct nodes are touched,
// so the floating-point result matches the recursive order bit for bit.
//
// The memo (header comment) is forgotten when [first, last] meets the leaves
// its search read, and otherwise watched on the recomputed path: covered
// nodes then lie outside those leaves, and a path node keeps its `add`.
void SegmentTree::RangeAdd(size_t first, size_t last, double w) {
  MAXRS_DCHECK(first <= last && last < num_leaves_);
  const size_t read_lo = memo_.read_lo, read_hi = memo_.read_hi;
  if (first <= read_hi && read_lo <= last) memo_.valid = false;
  const bool watch = memo_.valid;
  struct PathNode {
    size_t node;
    size_t right;
    bool read;  // The node's range meets the leaves the memo's search read.
  };
  PathNode path[kMaxPathNodes];
  size_t depth = 0;
  auto cover = [&](size_t node) {
    Node& n = nodes_[node];
    n.add += w;
    n.max += w;
    n.min += w;
  };
  // Records a partially covered node over [lo, hi]; returns its right
  // child.
  auto partial = [&](size_t node, size_t lo, size_t mid, size_t hi) {
    const size_t right = node + 2 * (mid - lo + 1);
    MAXRS_DCHECK(depth < kMaxPathNodes);
    path[depth++] = {node, right, watch && lo <= read_hi && read_lo <= hi};
    return right;
  };

  size_t node = 0, lo = 0, hi = num_leaves_ - 1;
  // Shared path: descend while the range lies inside one child.
  while (!(first <= lo && hi <= last)) {
    const size_t mid = lo + (hi - lo) / 2;
    const size_t right = partial(node, lo, mid, hi);
    if (last <= mid) {
      node = node + 1, hi = mid;
    } else if (first > mid) {
      node = right, lo = mid + 1;
    } else {
      // The range straddles mid: [first, mid] is a suffix of the left
      // child, [mid + 1, last] a prefix of the right one.
      size_t n = node + 1, l = lo, h = mid;
      while (first > l) {
        const size_t m = l + (h - l) / 2;
        const size_t r = partial(n, l, m, h);
        if (first <= m) {
          cover(r);
          n = n + 1, h = m;
        } else {
          n = r, l = m + 1;
        }
      }
      cover(n);
      n = right, l = mid + 1, h = hi;
      while (h > last) {
        const size_t m = l + (h - l) / 2;
        const size_t r = partial(n, l, m, h);
        if (last > m) {
          cover(n + 1);
          n = r, l = m + 1;
        } else {
          n = n + 1, h = m;
        }
      }
      node = n;
      break;
    }
  }
  cover(node);
  // Children were visited after their parents, so reverse order is bottom-up.
  while (depth > 0) {
    const PathNode& p = path[--depth];
    if (!p.read) {
      Pull(p.node, p.node + 1, p.right);
      continue;
    }
    const Node& n = nodes_[p.node];
    const double before = memo_.want_max ? n.min : n.max;
    Pull(p.node, p.node + 1, p.right);
    if (!SameBits(before, memo_.want_max ? n.min : n.max)) {
      memo_.valid = false;
    }
  }
}

double SegmentTree::Max() const { return nodes_[0].max; }
double SegmentTree::Min() const { return nodes_[0].min; }

MaxRun SegmentTree::MaxInterval() { return ExtremalInterval(true); }
MaxRun SegmentTree::MinInterval() { return ExtremalInterval(false); }

MaxRun SegmentTree::ExtremalInterval(bool want_max) {
  const Node& root = nodes_[0];
  const double target = want_max ? root.max : root.min;
  const size_t first = want_max ? root.argmax : root.argmin;
  if (memo_.valid && memo_.want_max == want_max &&
      SameBits(memo_.run.value, target) && memo_.run.first == first) {
    return memo_.run;
  }
  const size_t end = first + 1 >= num_leaves_
                         ? num_leaves_
                         : FindFirstOutside(0, 0, num_leaves_ - 1, 0.0,
                                            first + 1, target, want_max);
  memo_ = Memo{true, want_max, MaxRun{target, first, end - 1}, first + 1,
               std::min(end, num_leaves_ - 1)};
  return memo_.run;
}

size_t SegmentTree::FindFirstOutside(size_t node, size_t lo, size_t hi,
                                     double acc, size_t from, double target,
                                     bool want_max) const {
  if (hi < from) return num_leaves_;
  // A subtree can contain an "outside" leaf only if its min dips below the
  // target (max objective) or its max rises above it (min objective).
  if (want_max) {
    if (nodes_[node].min + acc >= target) return num_leaves_;
  } else {
    if (nodes_[node].max + acc <= target) return num_leaves_;
  }
  if (lo == hi) return lo;
  const size_t mid = lo + (hi - lo) / 2;
  const double child_acc = acc + nodes_[node].add;
  size_t res =
      FindFirstOutside(node + 1, lo, mid, child_acc, from, target, want_max);
  if (res != num_leaves_) return res;
  return FindFirstOutside(node + 2 * (mid - lo + 1), mid + 1, hi, child_acc,
                          from, target, want_max);
}

}  // namespace maxrs

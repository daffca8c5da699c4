// Aggregate index over a served dataset's x-slab shard grid: per-shard MBR,
// object count, total weight, and minimum weight, combined bottom-up into an
// implicit binary tree of per-node MBR + weight aggregates — the aRB-tree
// idea of the paper's Related Work (a pre-calculated aggregate per index
// entry) specialized to the shard grid, in the spirit of agg_rtree.h but
// tiny enough to live in memory for the server's lifetime.
//
// The per-shard aggregates are persisted next to the manifest
// (DatasetHandle, format v3) and validated on open (docs/ARCHITECTURE.md,
// "Aggregate shard index"). The serve executor does not read the index:
// every query routes and solves every shard. WindowWeight(lo, hi) — the
// total weight of the shards whose x-MBR meets an x-window, an upper bound
// on what any rect placement inside that window can cover when weights
// are non-negative — is timed by perfbench's `index.window_weight_us`
// kernel.
#ifndef MAXRS_INDEX_SHARD_AGG_INDEX_H_
#define MAXRS_INDEX_SHARD_AGG_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "geom/geometry.h"
#include "io/env.h"
#include "util/status.h"

namespace maxrs {

/// Aggregates of one x-slab shard. An empty shard has count 0, weight 0,
/// min_weight +inf and an inverted MBR (never intersects anything).
struct ShardAgg {
  uint64_t count = 0;
  double weight = 0.0;
  double min_weight = kInf;
  double x_lo = kInf;
  double x_hi = -kInf;
  double y_lo = kInf;
  double y_hi = -kInf;

  void Add(const SpatialObject& o) {
    ++count;
    weight += o.w;
    min_weight = std::min(min_weight, o.w);
    x_lo = std::min(x_lo, o.x);
    x_hi = std::max(x_hi, o.x);
    y_lo = std::min(y_lo, o.y);
    y_hi = std::max(y_hi, o.y);
  }
};

/// On-disk record of the aggregate index file (record_io v2 framing, so
/// torn or bit-flipped blocks surface as kCorruption before any field is
/// trusted). kind 0 = header (index = format version, count = shard count,
/// aggregates = whole dataset); kind 1 = one shard, ascending `index`.
struct ShardAggRecord {
  uint64_t kind = 0;
  uint64_t index = 0;
  uint64_t count = 0;
  double weight = 0.0;
  double min_weight = 0.0;
  double x_lo = 0.0;
  double x_hi = 0.0;
  double y_lo = 0.0;
  double y_hi = 0.0;
};

inline constexpr uint64_t kShardAggFormatVersion = 1;

class ShardAggIndex {
 public:
  /// Builds the in-memory aggregate tree over per-shard aggregates (one
  /// entry per shard, shard order = x-slab order).
  explicit ShardAggIndex(std::vector<ShardAgg> shards);

  /// Persists `shards` as an index file. Written before the manifest that
  /// references it, so a published manifest never names a missing index.
  static Status Write(Env& env, const std::string& name,
                      const std::vector<ShardAgg>& shards);

  /// Opens and validates an index file: header kind/version, leaf count and
  /// ordering. Structural damage — short file, bad kinds, out-of-order
  /// leaves — returns kCorruption (the record layer already turns torn
  /// blocks into kCorruption via per-block CRCs).
  static Result<ShardAggIndex> Open(Env& env, const std::string& name);

  size_t num_shards() const { return shards_.size(); }
  const ShardAgg& shard(size_t i) const { return shards_[i]; }
  uint64_t total_count() const { return total_count_; }
  double total_weight() const { return total_weight_; }

  /// Total weight of all shards whose x-MBR (closed) intersects the closed
  /// window [lo, hi] — an upper bound on the weight coverable by any rect
  /// placement whose x-extent is [lo, hi]. Descends the aggregate tree:
  /// nodes fully inside contribute their precomputed sum, disjoint nodes
  /// contribute nothing, straddling nodes recurse (deterministic grouping,
  /// left to right).
  double WindowWeight(double lo, double hi) const;

 private:
  struct Node {
    double weight = 0.0;
    double x_lo = kInf;
    double x_hi = -kInf;
  };

  void BuildNode(size_t node, size_t lo, size_t hi);
  double DescendWindow(size_t node, size_t lo, size_t hi, double win_lo,
                       double win_hi) const;

  std::vector<ShardAgg> shards_;
  std::vector<Node> nodes_;  // implicit binary tree, 1-based heap layout
  uint64_t total_count_ = 0;
  double total_weight_ = 0.0;
};

}  // namespace maxrs

#endif  // MAXRS_INDEX_SHARD_AGG_INDEX_H_

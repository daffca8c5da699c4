#include "index/shard_agg_index.h"

#include <cmath>
#include <utility>

#include "io/record_io.h"

namespace maxrs {

ShardAggIndex::ShardAggIndex(std::vector<ShardAgg> shards)
    : shards_(std::move(shards)) {
  for (const ShardAgg& s : shards_) {
    total_count_ += s.count;
    total_weight_ += s.weight;
  }
  if (!shards_.empty()) {
    nodes_.resize(4 * shards_.size());
    BuildNode(1, 0, shards_.size());
  }
}

void ShardAggIndex::BuildNode(size_t node, size_t lo, size_t hi) {
  Node& n = nodes_[node];
  if (hi - lo == 1) {
    const ShardAgg& s = shards_[lo];
    n.weight = s.weight;
    n.x_lo = s.x_lo;
    n.x_hi = s.x_hi;
    return;
  }
  const size_t mid = lo + (hi - lo) / 2;
  BuildNode(2 * node, lo, mid);
  BuildNode(2 * node + 1, mid, hi);
  n.weight = nodes_[2 * node].weight + nodes_[2 * node + 1].weight;
  n.x_lo = std::min(nodes_[2 * node].x_lo, nodes_[2 * node + 1].x_lo);
  n.x_hi = std::max(nodes_[2 * node].x_hi, nodes_[2 * node + 1].x_hi);
}

double ShardAggIndex::WindowWeight(double win_lo, double win_hi) const {
  if (shards_.empty()) return 0.0;
  return DescendWindow(1, 0, shards_.size(), win_lo, win_hi);
}

double ShardAggIndex::DescendWindow(size_t node, size_t lo, size_t hi,
                                    double win_lo, double win_hi) const {
  const Node& n = nodes_[node];
  // Disjoint node (or all-empty subtree, whose inverted MBR compares
  // disjoint with any finite window): contributes nothing.
  if (n.x_lo > win_hi || n.x_hi < win_lo) return 0.0;
  // Node fully inside the window: its precomputed aggregate, no descent.
  if (win_lo <= n.x_lo && n.x_hi <= win_hi) return n.weight;
  if (hi - lo == 1) {
    // Straddling leaf: the shard intersects the window, so all of its
    // weight may be reachable from placements in the window.
    return n.weight;
  }
  const size_t mid = lo + (hi - lo) / 2;
  return DescendWindow(2 * node, lo, mid, win_lo, win_hi) +
         DescendWindow(2 * node + 1, mid, hi, win_lo, win_hi);
}

Status ShardAggIndex::Write(Env& env, const std::string& name,
                            const std::vector<ShardAgg>& shards) {
  std::vector<ShardAggRecord> records;
  records.reserve(shards.size() + 1);
  ShardAggRecord header;
  header.kind = 0;
  header.index = kShardAggFormatVersion;
  header.count = shards.size();
  ShardAgg global;
  for (const ShardAgg& s : shards) {
    global.count += s.count;
    global.weight += s.weight;
    global.min_weight = std::min(global.min_weight, s.min_weight);
    global.x_lo = std::min(global.x_lo, s.x_lo);
    global.x_hi = std::max(global.x_hi, s.x_hi);
    global.y_lo = std::min(global.y_lo, s.y_lo);
    global.y_hi = std::max(global.y_hi, s.y_hi);
  }
  header.weight = global.weight;
  header.min_weight = global.min_weight;
  header.x_lo = global.x_lo;
  header.x_hi = global.x_hi;
  header.y_lo = global.y_lo;
  header.y_hi = global.y_hi;
  records.push_back(header);
  for (size_t i = 0; i < shards.size(); ++i) {
    const ShardAgg& s = shards[i];
    ShardAggRecord r;
    r.kind = 1;
    r.index = i;
    r.count = s.count;
    r.weight = s.weight;
    r.min_weight = s.min_weight;
    r.x_lo = s.x_lo;
    r.x_hi = s.x_hi;
    r.y_lo = s.y_lo;
    r.y_hi = s.y_hi;
    records.push_back(r);
  }
  return WriteRecordFile(env, name, records);
}

Result<ShardAggIndex> ShardAggIndex::Open(Env& env, const std::string& name) {
  MAXRS_ASSIGN_OR_RETURN(std::vector<ShardAggRecord> records,
                         ReadRecordFile<ShardAggRecord>(env, name));
  if (records.empty() || records[0].kind != 0) {
    return {Status::Corruption("aggregate index: missing header record")};
  }
  const ShardAggRecord& header = records[0];
  if (header.index != kShardAggFormatVersion) {
    return {Status::Corruption("aggregate index: unknown format version " +
                               std::to_string(header.index))};
  }
  if (records.size() != header.count + 1) {
    return {Status::Corruption(
        "aggregate index: header names " + std::to_string(header.count) +
        " shards but the file holds " + std::to_string(records.size() - 1))};
  }
  std::vector<ShardAgg> shards;
  shards.reserve(header.count);
  for (size_t i = 1; i < records.size(); ++i) {
    const ShardAggRecord& r = records[i];
    if (r.kind != 1 || r.index != i - 1) {
      return {Status::Corruption(
          "aggregate index: malformed shard record at position " +
          std::to_string(i))};
    }
    ShardAgg s;
    s.count = r.count;
    s.weight = r.weight;
    s.min_weight = r.min_weight;
    s.x_lo = r.x_lo;
    s.x_hi = r.x_hi;
    s.y_lo = r.y_lo;
    s.y_hi = r.y_hi;
    if (s.count > 0 && !(s.x_lo <= s.x_hi && s.y_lo <= s.y_hi)) {
      return {Status::Corruption(
          "aggregate index: inverted MBR on non-empty shard " +
          std::to_string(i - 1))};
    }
    shards.push_back(s);
  }
  return {ShardAggIndex(std::move(shards))};
}

}  // namespace maxrs

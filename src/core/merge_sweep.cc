#include "core/merge_sweep.h"

#include <algorithm>

#include "geom/geometry.h"
#include "util/check.h"

namespace maxrs {
namespace {

/// A record source with one-record lookahead. A null source is an empty
/// stream that is never read.
template <typename T>
class PeekedSource {
 public:
  explicit PeekedSource(RecordSource<T>* source) : source_(source) {}

  bool has_value() const { return has_value_; }
  const T& head() const { return head_; }

  Status Advance() {
    has_value_ = false;
    if (source_ == nullptr) return Status::OK();
    Status st = source_->Read(&head_);
    if (st.code() == Status::Code::kNotFound) return Status::OK();
    MAXRS_RETURN_IF_ERROR(st);
    has_value_ = true;
    return Status::OK();
  }

 private:
  RecordSource<T>* source_;
  T head_{};
  bool has_value_ = false;
};

/// Tournament (winner) tree over n keys: every inner node holds the larger
/// of its two children, the left one on ties, so the top is the lowest index
/// holding the largest key — exactly what a left-to-right scan with a strict
/// `>` picks. A NaN key could never win such a scan and is stored as -inf;
/// padding leaves hold -inf and sit right of every real leaf, so they never
/// win. Setting k adjacent leaves and replaying them costs O(k + log n).
class LeftmostMaxTree {
 public:
  explicit LeftmostMaxTree(size_t n) {
    while (width_ < n) width_ <<= 1;
    nodes_.assign(2 * width_, Node{-kInf, 0});
  }

  /// Sets leaf i; Replay() must cover it before the next top().
  void Set(size_t i, double key) {
    nodes_[width_ + i] = {key > -kInf ? key : -kInf, i};
  }

  /// Replays the matches above leaves [lo, hi].
  void Replay(size_t lo, size_t hi) {
    for (lo += width_, hi += width_; lo > 1;) {
      lo >>= 1;
      hi >>= 1;
      for (size_t n = lo; n <= hi; ++n) {
        const Node& l = nodes_[2 * n];
        const Node& r = nodes_[2 * n + 1];
        nodes_[n] = r.key > l.key ? r : l;
      }
    }
  }

  size_t top() const { return nodes_[1].index; }
  double top_key() const { return nodes_[1].key; }

 private:
  struct Node {
    double key;
    size_t index;
  };
  size_t width_ = 1;
  std::vector<Node> nodes_;
};

}  // namespace

Status MergeSweep(Env& env, const std::vector<Interval>& child_ranges,
                  const std::vector<RecordSource<SlabTuple>*>& children,
                  const std::string& span_file, RecordSink<SlabTuple>* output,
                  SweepObjective objective, const CancelToken* cancel) {
  const size_t m = child_ranges.size();
  MAXRS_CHECK(m >= 1 && children.size() == m && output != nullptr);

  std::vector<PeekedSource<SlabTuple>> slabs;
  slabs.reserve(m);
  for (RecordSource<SlabTuple>* child : children) {
    slabs.emplace_back(child);
    MAXRS_RETURN_IF_ERROR(slabs.back().Advance());
  }
  // Two independent sequential scans over the span file: one delivering
  // bottom events (y_lo order), one delivering top events (y_hi order; equal
  // to y_lo order because all spans have the original height d2).
  MAXRS_ASSIGN_OR_RETURN(FileRecordSource<SpanRecord> bottom_file,
                         FileRecordSource<SpanRecord>::Make(env, span_file));
  MAXRS_ASSIGN_OR_RETURN(FileRecordSource<SpanRecord> top_file,
                         FileRecordSource<SpanRecord>::Make(env, span_file));
  PeekedSource<SpanRecord> bottoms(&bottom_file);
  PeekedSource<SpanRecord> tops(&top_file);
  MAXRS_RETURN_IF_ERROR(bottoms.Advance());
  MAXRS_RETURN_IF_ERROR(tops.Advance());

  // Sweep state (Algorithm 1 lines 1-4): per-child latest max-interval and
  // the spanning weight currently over it.
  std::vector<double> base(m, 0.0);
  std::vector<double> up_sum(m, 0.0);
  std::vector<Interval> interval(m);
  for (size_t i = 0; i < m; ++i) interval[i] = child_ranges[i];

  // Two tournaments make each event O(log m) plus the children it touches.
  // `heads` keys child i by minus its head y (-inf once exhausted), so its
  // top is the first child in index order at the lowest head y (-0.0 ties
  // 0.0); a NaN head is never consumed, as it equals no event y.
  // `best_child` keys child i by sign * eff[i], eff[i] = base[i] + up_sum[i],
  // so its top is the first best child (negation is exact).
  const double sign = objective == SweepObjective::kMaximize ? 1.0 : -1.0;
  LeftmostMaxTree heads(m);
  LeftmostMaxTree best_child(m);
  auto load_head = [&](size_t i) {
    heads.Set(i, slabs[i].has_value() ? -slabs[i].head().y : -kInf);
  };
  auto load_eff = [&](size_t i) {
    best_child.Set(i, sign * (base[i] + up_sum[i]));
  };
  for (size_t i = 0; i < m; ++i) {
    load_head(i);
    load_eff(i);
  }
  heads.Replay(0, m - 1);
  best_child.Replay(0, m - 1);

  while (true) {
    MAXRS_RETURN_IF_ERROR(CheckCancel(cancel));
    // Next event y across all inputs: children first, then bottoms, tops.
    double y = -heads.top_key();
    if (bottoms.has_value()) y = std::min(y, bottoms.head().y_lo);
    if (tops.has_value()) y = std::min(y, tops.head().y_hi);
    if (y == kInf) break;

    // Apply all events at this h-line (lines 6-16). With half-open y-extents
    // additions and removals at equal y commute.
    while (tops.has_value() && tops.head().y_hi == y) {
      const SpanRecord& s = tops.head();
      MAXRS_CHECK(s.child_lo >= 0 && s.child_hi < static_cast<int32_t>(m));
      for (int32_t k = s.child_lo; k <= s.child_hi; ++k) {
        up_sum[k] -= s.w;
        load_eff(k);
      }
      if (s.child_lo <= s.child_hi) best_child.Replay(s.child_lo, s.child_hi);
      MAXRS_RETURN_IF_ERROR(tops.Advance());
    }
    while (bottoms.has_value() && bottoms.head().y_lo == y) {
      const SpanRecord& s = bottoms.head();
      MAXRS_CHECK(s.child_lo >= 0 && s.child_hi < static_cast<int32_t>(m));
      for (int32_t k = s.child_lo; k <= s.child_hi; ++k) {
        up_sum[k] += s.w;
        load_eff(k);
      }
      if (s.child_lo <= s.child_hi) best_child.Replay(s.child_lo, s.child_hi);
      MAXRS_RETURN_IF_ERROR(bottoms.Advance());
    }
    while (-heads.top_key() == y) {
      const size_t i = heads.top();
      PeekedSource<SlabTuple>& s = slabs[i];
      while (s.has_value() && s.head().y == y) {
        base[i] = s.head().sum;
        interval[i] = {s.head().x_lo, s.head().x_hi};
        MAXRS_RETURN_IF_ERROR(s.Advance());
      }
      load_head(i);
      heads.Replay(i, i);
      load_eff(i);
      best_child.Replay(i, i);
    }

    // GetMaxInterval (lines 17-18): the best_child top is the best eff[i];
    // extend across adjacent children whose tied max-intervals touch at the
    // boundary. For the min objective "best" means smallest.
    const double best = sign * best_child.top_key();
    const size_t best_i = best_child.top();
    Interval merged = interval[best_i];
    for (size_t i = best_i + 1; i < m; ++i) {
      if (base[i] + up_sum[i] == best && interval[i].lo == merged.hi) {
        merged.hi = interval[i].hi;
      } else {
        break;
      }
    }
    MAXRS_RETURN_IF_ERROR(
        output->Append(SlabTuple{y, merged.lo, merged.hi, best}));
  }
  return Status::OK();
}

}  // namespace maxrs

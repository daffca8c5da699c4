#include "core/merge_sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "core/plane_sweep.h"
#include "core/records.h"
#include "io/env.h"
#include "io/record_io.h"
#include "io/record_stream.h"
#include "test_util.h"
#include "util/rng.h"

namespace maxrs {
namespace {

/// End-to-end white-box check: manually divide pieces into two slabs plus a
/// spanning set, produce slab-files via PlaneSweep, merge, and compare with
/// a single global PlaneSweep.
class MergeSweepTest : public ::testing::Test {
 protected:
  std::unique_ptr<Env> env_ = NewMemEnv(512);

  /// Returns the best (sum, y) over a tuple stream.
  static std::pair<double, double> Best(const std::vector<SlabTuple>& tuples) {
    double best = 0, y = 0;
    for (const SlabTuple& t : tuples) {
      if (t.sum > best) {
        best = t.sum;
        y = t.y;
      }
    }
    return {best, y};
  }
};

TEST_F(MergeSweepTest, TwoSlabsNoSpans) {
  // Slab 0: x in [0, 100); slab 1: x in [100, 200).
  std::vector<PieceRecord> left = {{10, 60, 0, 10, 1.0}, {30, 90, 5, 15, 1.0}};
  std::vector<PieceRecord> right = {{110, 160, 2, 12, 1.0}};
  std::vector<Interval> ranges(2);
  ranges[0] = {0, 100};
  ranges[1] = {100, 200};

  ASSERT_TRUE(
      WriteRecordFile(*env_, "s0", PlaneSweep(left, ranges[0])).ok());
  ASSERT_TRUE(
      WriteRecordFile(*env_, "s1", PlaneSweep(right, ranges[1])).ok());
  ASSERT_TRUE(WriteRecordFile(*env_, "spans", std::vector<SpanRecord>{}).ok());

  ASSERT_TRUE(
      testing::MergeSlabFiles(*env_, ranges, {"s0", "s1"}, "spans", "out")
          .ok());
  auto merged = ReadRecordFile<SlabTuple>(*env_, "out");
  ASSERT_TRUE(merged.ok());

  // Global reference.
  auto all = left;
  all.insert(all.end(), right.begin(), right.end());
  auto global = PlaneSweep(all, Interval{0, 200});
  EXPECT_EQ(Best(*merged).first, Best(global).first);
  // Overlap of the two left pieces gives sum 2 in stratum [5,10).
  EXPECT_EQ(Best(*merged).first, 2.0);
  EXPECT_EQ(Best(*merged).second, 5.0);
}

TEST_F(MergeSweepTest, SpanningWeightLiftsAChild) {
  // A span over child 1 must raise its tuples by the span weight while
  // active, including at span-only event ys.
  std::vector<PieceRecord> in_child = {{120, 150, 10, 20, 1.0}};
  std::vector<Interval> ranges(2);
  ranges[0] = {0, 100};
  ranges[1] = {100, 200};
  ASSERT_TRUE(WriteRecordFile(
                  *env_, "s0", PlaneSweep({}, ranges[0]))
                  .ok());
  ASSERT_TRUE(WriteRecordFile(*env_, "s1",
                              PlaneSweep(in_child, ranges[1]))
                  .ok());
  // Span covers child 1 for y in [15, 25): overlaps the piece on [15, 20).
  std::vector<SpanRecord> spans = {{15, 25, 3.0, 1, 1}};
  ASSERT_TRUE(WriteRecordFile(*env_, "spans", spans).ok());

  ASSERT_TRUE(
      testing::MergeSlabFiles(*env_, ranges, {"s0", "s1"}, "spans", "out")
          .ok());
  auto merged = ReadRecordFile<SlabTuple>(*env_, "out");
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(Best(*merged).first, 4.0);  // 1 (piece) + 3 (span)
  EXPECT_EQ(Best(*merged).second, 15.0);

  // The span-only bottom event at y=15 must itself produce a tuple.
  bool has_y15 = false;
  for (const SlabTuple& t : *merged) has_y15 |= (t.y == 15.0);
  EXPECT_TRUE(has_y15);
}

TEST_F(MergeSweepTest, AdjacentEqualIntervalsMerge) {
  // Two children each fully covered by the same spanning weight and nothing
  // else: their max-intervals touch at the boundary and merge.
  std::vector<Interval> ranges(2);
  ranges[0] = {0, 100};
  ranges[1] = {100, 200};
  ASSERT_TRUE(WriteRecordFile(*env_, "s0", PlaneSweep({}, ranges[0])).ok());
  ASSERT_TRUE(WriteRecordFile(*env_, "s1", PlaneSweep({}, ranges[1])).ok());
  std::vector<SpanRecord> spans = {{0, 10, 2.0, 0, 1}};
  ASSERT_TRUE(WriteRecordFile(*env_, "spans", spans).ok());
  ASSERT_TRUE(
      testing::MergeSlabFiles(*env_, ranges, {"s0", "s1"}, "spans", "out")
          .ok());
  auto merged = ReadRecordFile<SlabTuple>(*env_, "out");
  ASSERT_TRUE(merged.ok());
  ASSERT_FALSE(merged->empty());
  const SlabTuple& first = (*merged)[0];
  EXPECT_EQ(first.y, 0.0);
  EXPECT_EQ(first.sum, 2.0);
  EXPECT_EQ(first.x_lo, 0.0);
  EXPECT_EQ(first.x_hi, 200.0);  // extended across the boundary
}

TEST_F(MergeSweepTest, OutputSortedByYWithOneTuplePerEvent) {
  auto objects = testing::RandomIntObjects(100, 300, 17);
  std::vector<PieceRecord> left, right;
  std::vector<SpanRecord> spans;
  std::vector<Interval> ranges(2);
  ranges[0] = {0, 150};
  ranges[1] = {150, 400};
  for (const auto& o : objects) {
    PieceRecord p{o.x, o.x + 20, o.y, o.y + 20, 1.0};
    if (p.x_hi <= 150) {
      left.push_back(p);
    } else if (p.x_lo >= 150) {
      right.push_back(p);
    } else {
      left.push_back({p.x_lo, 150, p.y_lo, p.y_hi, p.w});
      right.push_back({150, p.x_hi, p.y_lo, p.y_hi, p.w});
    }
  }
  std::stable_sort(spans.begin(), spans.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     return a.y_lo < b.y_lo;
                   });
  ASSERT_TRUE(WriteRecordFile(*env_, "s0", PlaneSweep(left, ranges[0])).ok());
  ASSERT_TRUE(WriteRecordFile(*env_, "s1", PlaneSweep(right, ranges[1])).ok());
  ASSERT_TRUE(WriteRecordFile(*env_, "spans", spans).ok());
  ASSERT_TRUE(
      testing::MergeSlabFiles(*env_, ranges, {"s0", "s1"}, "spans", "out")
          .ok());
  auto merged = ReadRecordFile<SlabTuple>(*env_, "out");
  ASSERT_TRUE(merged.ok());
  for (size_t i = 1; i < merged->size(); ++i) {
    EXPECT_LT((*merged)[i - 1].y, (*merged)[i].y);
  }
  // Result matches the unsplit global sweep (x-splitting at 150 preserves
  // location-weights).
  auto all = left;
  all.insert(all.end(), right.begin(), right.end());
  auto global = PlaneSweep(all, Interval{0, 400});
  EXPECT_EQ(Best(*merged).first, Best(global).first);
}

TEST_F(MergeSweepTest, MinObjectivePicksSmallestEffectiveInterval) {
  // Child 0 has a piece (weight 5); child 1 is empty; a span of weight 2
  // covers child 0 only. Under the min objective the merged tuples must
  // track the *least* covered interval: child 1's zero.
  std::vector<PieceRecord> left = {{10, 60, 0, 10, 5.0}};
  std::vector<Interval> ranges(2);
  ranges[0] = {0, 100};
  ranges[1] = {100, 200};
  ASSERT_TRUE(WriteRecordFile(*env_, "s0",
                              PlaneSweep(left, ranges[0],
                                         SweepObjective::kMinimize))
                  .ok());
  ASSERT_TRUE(WriteRecordFile(*env_, "s1",
                              PlaneSweep({}, ranges[1],
                                         SweepObjective::kMinimize))
                  .ok());
  std::vector<SpanRecord> spans = {{2, 8, 2.0, 0, 0}};
  ASSERT_TRUE(WriteRecordFile(*env_, "spans", spans).ok());
  ASSERT_TRUE(testing::MergeSlabFiles(*env_, ranges, {"s0", "s1"}, "spans",
                                      "out", SweepObjective::kMinimize)
                  .ok());
  auto merged = ReadRecordFile<SlabTuple>(*env_, "out");
  ASSERT_TRUE(merged.ok());
  // Every stratum's minimum is 0 (child 1 is empty everywhere).
  for (const SlabTuple& t : *merged) {
    EXPECT_EQ(t.sum, 0.0) << "y=" << t.y;
  }

  // Same layout, but now a span covers BOTH children: while it is active,
  // the minimum must rise to the span weight.
  std::vector<SpanRecord> wide_spans = {{2, 8, 2.0, 0, 1}};
  ASSERT_TRUE(WriteRecordFile(*env_, "spans2", wide_spans).ok());
  ASSERT_TRUE(testing::MergeSlabFiles(*env_, ranges, {"s0", "s1"}, "spans2",
                                      "out2", SweepObjective::kMinimize)
                  .ok());
  auto merged2 = ReadRecordFile<SlabTuple>(*env_, "out2");
  ASSERT_TRUE(merged2.ok());
  bool saw_two = false;
  for (const SlabTuple& t : *merged2) {
    if (t.y >= 2 && t.y < 8) {
      EXPECT_EQ(t.sum, 2.0) << "y=" << t.y;
      saw_two = true;
    }
  }
  EXPECT_TRUE(saw_two);
}

TEST_F(MergeSweepTest, EmptyEverything) {
  std::vector<Interval> ranges(3);
  ranges[0] = {0, 10};
  ranges[1] = {10, 20};
  ranges[2] = {20, 30};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(WriteRecordFile(*env_, "s" + std::to_string(i),
                                std::vector<SlabTuple>{})
                    .ok());
  }
  ASSERT_TRUE(WriteRecordFile(*env_, "spans", std::vector<SpanRecord>{}).ok());
  ASSERT_TRUE(
      testing::MergeSlabFiles(*env_, ranges, {"s0", "s1", "s2"}, "spans",
                              "out")
          .ok());
  auto merged = ReadRecordFile<SlabTuple>(*env_, "out");
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(merged->empty());
}

// --- Differential check against a linear-scan reference -----------------------

/// Reference MergeSweep over in-memory inputs: every event rescans all m
/// children for the next y and for the best eff[i] (strict comparison, so
/// ties go to the lower index). MergeSweep must reproduce its output bit for
/// bit. An empty `child_tuples[i]` stands for an empty or known-empty child.
std::vector<SlabTuple> ReferenceMergeSweep(
    const std::vector<Interval>& child_ranges,
    const std::vector<std::vector<SlabTuple>>& child_tuples,
    const std::vector<SpanRecord>& spans, SweepObjective objective) {
  const size_t m = child_ranges.size();
  std::vector<size_t> next(m, 0);
  size_t bottom = 0, top = 0;
  std::vector<double> base(m, 0.0);
  std::vector<double> up_sum(m, 0.0);
  std::vector<Interval> interval(child_ranges);
  std::vector<SlabTuple> out;
  const double inf = std::numeric_limits<double>::infinity();
  while (true) {
    double y = inf;
    for (size_t i = 0; i < m; ++i) {
      if (next[i] < child_tuples[i].size()) {
        y = std::min(y, child_tuples[i][next[i]].y);
      }
    }
    if (bottom < spans.size()) y = std::min(y, spans[bottom].y_lo);
    if (top < spans.size()) y = std::min(y, spans[top].y_hi);
    if (y == inf) break;

    for (; top < spans.size() && spans[top].y_hi == y; ++top) {
      const SpanRecord& s = spans[top];
      for (int32_t k = s.child_lo; k <= s.child_hi; ++k) up_sum[k] -= s.w;
    }
    for (; bottom < spans.size() && spans[bottom].y_lo == y; ++bottom) {
      const SpanRecord& s = spans[bottom];
      for (int32_t k = s.child_lo; k <= s.child_hi; ++k) up_sum[k] += s.w;
    }
    for (size_t i = 0; i < m; ++i) {
      const std::vector<SlabTuple>& tuples = child_tuples[i];
      for (; next[i] < tuples.size() && tuples[next[i]].y == y; ++next[i]) {
        base[i] = tuples[next[i]].sum;
        interval[i] = {tuples[next[i]].x_lo, tuples[next[i]].x_hi};
      }
    }

    const bool maximize = objective == SweepObjective::kMaximize;
    double best = maximize ? -inf : inf;
    size_t best_i = 0;
    for (size_t i = 0; i < m; ++i) {
      const double eff = base[i] + up_sum[i];
      if (maximize ? eff > best : eff < best) {
        best = eff;
        best_i = i;
      }
    }
    Interval merged = interval[best_i];
    for (size_t i = best_i + 1; i < m; ++i) {
      if (base[i] + up_sum[i] == best && interval[i].lo == merged.hi) {
        merged.hi = interval[i].hi;
      } else {
        break;
      }
    }
    out.push_back(SlabTuple{y, merged.lo, merged.hi, best});
  }
  return out;
}

/// An in-memory source over a tuple vector.
class VectorSource final : public RecordSource<SlabTuple> {
 public:
  explicit VectorSource(const std::vector<SlabTuple>* records)
      : records_(records) {}
  Status Read(SlabTuple* out) override {
    if (next_ == records_->size()) return Status::NotFound("end of stream");
    *out = (*records_)[next_++];
    return Status::OK();
  }

 private:
  const std::vector<SlabTuple>* records_;
  size_t next_ = 0;
};

/// An in-memory sink collecting every appended tuple.
struct VectorSink final : public RecordSink<SlabTuple> {
  Status Append(const SlabTuple& t) override {
    records.push_back(t);
    return Status::OK();
  }
  Status Close(const Status& status) override { return status; }
  std::vector<SlabTuple> records;
};

/// Reads every block of `name`, framing included.
std::vector<char> FileBytes(Env& env, const std::string& name) {
  auto file = env.Open(name);
  EXPECT_TRUE(file.ok());
  if (!file.ok()) return {};
  BlockFile& f = **file;
  std::vector<char> bytes(f.NumBlocks() * f.block_size());
  for (uint64_t b = 0; b < f.NumBlocks(); ++b) {
    EXPECT_TRUE(f.ReadBlock(b, bytes.data() + b * f.block_size()).ok());
  }
  return bytes;
}

struct DifferentialCase {
  size_t m;
  SweepObjective objective;
};

void PrintTo(const DifferentialCase& c, std::ostream* os) {
  *os << "m=" << c.m
      << (c.objective == SweepObjective::kMaximize ? " max" : " min");
}

class MergeSweepDifferentialTest
    : public ::testing::TestWithParam<DifferentialCase> {};

// Random child slab-files and spans drawn from small value pools, so event
// ys collide across inputs (-0.0 and 0.0 included), effective sums tie on
// adjacent children whose intervals touch (the tie-extension walk), and
// sums mix non-integer, negative, signed-zero and (in a few seeds) infinite
// values, with NaN ys closing some child files in those seeds. Some
// children are known-empty (null), some have an empty slab-file, and some
// cases have an empty span file. The file schedule (slab-files in, a
// slab-file out) must match the reference byte for byte. The same children
// are then merged again as in-memory sources and spilling channels, into an
// in-memory sink — the root and serve-combine schedule — and every tuple
// must memcmp-equal the file path's.
TEST_P(MergeSweepDifferentialTest, ByteIdenticalToLinearScan) {
  const size_t m = GetParam().m;
  const SweepObjective objective = GetParam().objective;
  const double inf = std::numeric_limits<double>::infinity();
  const double ys[] = {-0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0};
  // The trailing infinities (drawn from seed 21 on) make some eff[i] NaN.
  const double sums[] = {0.0, -0.0, 0.1, 0.2, 0.3, -0.7, 1.0, 2.5, inf, -inf};
  const double weights[] = {0.1, 0.2, -0.3, 0.5, 1.0, -0.0, 0.0, inf, -inf};
  const double height = 2.0;  // every span shares it, as pieces do
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    auto env = NewMemEnv(512);
    Rng rng(seed * 1000 + m);
    const size_t finite = seed <= 20 ? 2 : 0;
    auto pick = [&rng](const auto& pool, size_t skip_tail = 0) {
      return pool[rng.UniformU64(std::size(pool) - skip_tail)];
    };

    std::vector<Interval> ranges(m);
    for (size_t i = 0; i < m; ++i) {
      ranges[i] = {10.0 * static_cast<double>(i),
                   10.0 * static_cast<double>(i + 1)};
    }
    std::vector<std::string> names(m);
    std::vector<std::vector<SlabTuple>> tuples(m);
    for (size_t i = 0; i < m; ++i) {
      const uint64_t kind = rng.UniformU64(8);
      if (kind == 0) continue;  // known-empty: "" and no file
      names[i] = "s" + std::to_string(i);
      if (kind != 1) {  // kind 1: an existing empty slab-file
        std::vector<double> child_ys;
        for (uint64_t k = rng.UniformU64(6); k > 0; --k) {
          child_ys.push_back(pick(ys));
        }
        std::stable_sort(child_ys.begin(), child_ys.end());
        for (double y : child_ys) {
          // Mostly the whole child range, so neighbours touch; otherwise a
          // strict inner interval.
          Interval x = ranges[i];
          if (rng.UniformU64(3) == 0) x = {x.lo + 1.0, x.hi - 2.5};
          tuples[i].push_back(SlabTuple{y, x.lo, x.hi, pick(sums, finite)});
        }
        // A NaN y never equals an event y: the child stalls on it for good.
        if (finite == 0 && rng.UniformU64(4) == 0) {
          tuples[i].push_back(SlabTuple{std::nan(""), ranges[i].lo,
                                        ranges[i].hi, 1.0});
        }
      }
      ASSERT_TRUE(WriteRecordFile(*env, names[i], tuples[i]).ok());
    }

    std::vector<SpanRecord> spans;
    if (seed % 5 != 0) {
      for (uint64_t k = rng.UniformU64(4 * m + 4); k > 0; --k) {
        const int32_t lo = static_cast<int32_t>(rng.UniformU64(m));
        const int32_t hi =
            lo + static_cast<int32_t>(rng.UniformU64(m - lo));
        const double y_lo = pick(ys);
        spans.push_back({y_lo, y_lo + height, pick(weights, finite), lo, hi});
      }
      std::stable_sort(spans.begin(), spans.end(),
                       [](const SpanRecord& a, const SpanRecord& b) {
                         return a.y_lo < b.y_lo;
                       });
    }
    ASSERT_TRUE(WriteRecordFile(*env, "spans", spans).ok());

    ASSERT_TRUE(testing::MergeSlabFiles(*env, ranges, names, "spans", "out",
                                        objective)
                    .ok());
    const std::vector<SlabTuple> expected =
        ReferenceMergeSweep(ranges, tuples, spans, objective);
    ASSERT_TRUE(WriteRecordFile(*env, "expected", expected).ok());

    auto got = ReadRecordFile<SlabTuple>(*env, "out");
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->size(), expected.size()) << "seed=" << seed;
    for (size_t t = 0; t < expected.size(); ++t) {
      ASSERT_EQ(std::memcmp(&(*got)[t], &expected[t], sizeof(SlabTuple)), 0)
          << "seed=" << seed << " tuple " << t << ": got (" << (*got)[t].y
          << ", [" << (*got)[t].x_lo << ", " << (*got)[t].x_hi << "), "
          << (*got)[t].sum << ") want (" << expected[t].y << ", ["
          << expected[t].x_lo << ", " << expected[t].x_hi << "), "
          << expected[t].sum << ")";
    }
    ASSERT_EQ(FileBytes(*env, "out"), FileBytes(*env, "expected"))
        << "seed=" << seed;

    // Stream schedule: even children are in-memory sources, odd ones
    // channels with a zero memory cap (every record goes through a spill
    // file), known-empty children stay null.
    std::vector<std::unique_ptr<VectorSource>> vectors;
    std::vector<std::unique_ptr<RecordChannel<SlabTuple>>> channels;
    std::vector<RecordSource<SlabTuple>*> children(m, nullptr);
    for (size_t i = 0; i < m; ++i) {
      if (names[i].empty()) continue;
      if (i % 2 == 0) {
        vectors.push_back(std::make_unique<VectorSource>(&tuples[i]));
        children[i] = vectors.back().get();
        continue;
      }
      channels.push_back(std::make_unique<RecordChannel<SlabTuple>>(
          *env, "spill" + std::to_string(i), /*memory_cap_bytes=*/0));
      for (const SlabTuple& t : tuples[i]) {
        ASSERT_TRUE(channels.back()->Append(t).ok());
      }
      ASSERT_TRUE(channels.back()->Close(Status::OK()).ok());
      ASSERT_EQ(channels.back()->spilled(), !tuples[i].empty());
      children[i] = channels.back().get();
    }
    VectorSink streamed;
    ASSERT_TRUE(
        MergeSweep(*env, ranges, children, "spans", &streamed, objective).ok());
    ASSERT_EQ(streamed.records.size(), got->size()) << "seed=" << seed;
    for (size_t t = 0; t < got->size(); ++t) {
      ASSERT_EQ(std::memcmp(&streamed.records[t], &(*got)[t],
                            sizeof(SlabTuple)),
                0)
          << "seed=" << seed << " tuple " << t;
    }
  }
}

std::string CaseName(const ::testing::TestParamInfo<DifferentialCase>& info) {
  return "m" + std::to_string(info.param.m) +
         (info.param.objective == SweepObjective::kMaximize ? "Max" : "Min");
}

INSTANTIATE_TEST_SUITE_P(
    Fanouts, MergeSweepDifferentialTest,
    ::testing::Values(DifferentialCase{1, SweepObjective::kMaximize},
                      DifferentialCase{2, SweepObjective::kMaximize},
                      DifferentialCase{3, SweepObjective::kMaximize},
                      DifferentialCase{8, SweepObjective::kMaximize},
                      DifferentialCase{64, SweepObjective::kMaximize},
                      DifferentialCase{254, SweepObjective::kMaximize},
                      DifferentialCase{1, SweepObjective::kMinimize},
                      DifferentialCase{2, SweepObjective::kMinimize},
                      DifferentialCase{3, SweepObjective::kMinimize},
                      DifferentialCase{8, SweepObjective::kMinimize},
                      DifferentialCase{64, SweepObjective::kMinimize},
                      DifferentialCase{254, SweepObjective::kMinimize}),
    CaseName);

}  // namespace
}  // namespace maxrs

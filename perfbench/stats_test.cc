#include "stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(PercentileTest, NearestRank) {
  EXPECT_EQ(Percentile(OneTo(10), 0.5), 5.0);
  EXPECT_EQ(Percentile(OneTo(10), 0.9), 9.0);
  EXPECT_EQ(Percentile(OneTo(10), 1.0), 10.0);
  EXPECT_EQ(Percentile(OneTo(10), 0.0), 1.0);
  EXPECT_EQ(Percentile(OneTo(1000), 0.99), 990.0);
  EXPECT_EQ(Percentile(OneTo(1), 0.99), 1.0);
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
}

TEST(PercentileTest, TailNeedsTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_TRUE(TailSupported(1000, 0.99));
  EXPECT_FALSE(TailSupported(999, 0.99));
  EXPECT_TRUE(TailSupported(20, 0.5));
  EXPECT_FALSE(TailSupported(19, 0.5));
  EXPECT_FALSE(TailSupported(0, 0.5));
}

TEST(PercentileTest, TailP99FallsBackToMaximum) {
  double q = 0.0;
  EXPECT_EQ(TailP99(OneTo(1000), &q), 990.0);
  EXPECT_EQ(q, 0.99);
  EXPECT_EQ(TailP99(OneTo(8), &q), 8.0);
  EXPECT_EQ(q, 1.0);
}

TEST(LatenessTest, LatencyCountsFromTheDueTime) {
  // Sent 3 ms late, answered 1 ms after the send: the user waited 4 ms.
  const OpenLoopOp late{10.0, 13.0, 14.0};
  EXPECT_DOUBLE_EQ(OpenLoopLatencyMs(late), 4.0);
  EXPECT_DOUBLE_EQ(LatenessMs(late), 3.0);
  // An early send is on time, not negatively late.
  const OpenLoopOp early{10.0, 9.5, 11.0};
  EXPECT_DOUBLE_EQ(LatenessMs(early), 0.0);
  EXPECT_DOUBLE_EQ(OpenLoopLatencyMs(early), 1.0);
}

Span MakeSpan(uint64_t id, uint64_t parent, int64_t start, int64_t end,
              const char* name = "child") {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTimeTest, SubtractsCoveredChildTimeOnce) {
  const Span parent = MakeSpan(1, 0, 0, 100, "parent");
  // Two overlapping children cover [10, 40); a third covers [60, 70).
  const std::vector<Span> children = {MakeSpan(2, 1, 10, 30),
                                      MakeSpan(3, 1, 20, 40),
                                      MakeSpan(4, 1, 60, 70)};
  EXPECT_EQ(SelfTimeNs(parent, children), 100 - 30 - 10);
}

TEST(SelfTimeTest, ClipsChildrenAndIgnoresOtherParents) {
  const Span parent = MakeSpan(1, 0, 100, 200, "parent");
  const std::vector<Span> children = {
      MakeSpan(2, 1, 50, 120),   // sticks out on the left: 20 covered
      MakeSpan(3, 1, 190, 300),  // sticks out on the right: 10 covered
      MakeSpan(4, 9, 100, 200),  // another span's child
  };
  EXPECT_EQ(SelfTimeNs(parent, children), 100 - 20 - 10);
  EXPECT_EQ(SelfTimeNs(parent, {}), 100);
}

TEST(SelfTimeTest, SelfTimesByName) {
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 2'000'000, "serve.Submit"),
      MakeSpan(2, 1, 500'000, 2'000'000, "serve.exec"),
      MakeSpan(3, 0, 0, 1'000'000, "serve.Submit"),
  };
  const std::vector<double> self = SelfTimesMs(spans, "serve.Submit");
  ASSERT_EQ(self.size(), 2u);
  EXPECT_DOUBLE_EQ(self[0], 0.5);
  EXPECT_DOUBLE_EQ(self[1], 1.0);
  EXPECT_EQ(DurationsMs(spans, "serve.exec"), std::vector<double>{1.5});
}

}  // namespace
}  // namespace perfbench

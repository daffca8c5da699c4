#include "core/plane_sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/brute_force.h"
#include "core/exact_maxrs.h"
#include "core/records.h"
#include "core/segment_tree.h"
#include "geom/geometry.h"
#include "test_util.h"
#include "util/rng.h"

namespace maxrs {
namespace {

TEST(PlaneSweepTest, EmptyInput) {
  EXPECT_TRUE(PlaneSweep({}, Interval{-kInf, kInf}).empty());
}

TEST(PlaneSweepTest, SingleRectangle) {
  std::vector<PieceRecord> pieces = {{0, 10, 0, 5, 2.0}};
  auto tuples = PlaneSweep(pieces, Interval{-kInf, kInf});
  // Two h-lines: bottom (opens, sum 2) and top (closes, sum 0).
  ASSERT_EQ(tuples.size(), 2u);
  EXPECT_EQ(tuples[0].y, 0);
  EXPECT_EQ(tuples[0].x_lo, 0);
  EXPECT_EQ(tuples[0].x_hi, 10);
  EXPECT_EQ(tuples[0].sum, 2.0);
  EXPECT_EQ(tuples[1].y, 5);
  EXPECT_EQ(tuples[1].sum, 0.0);
}

TEST(PlaneSweepTest, TwoOverlappingRectangles) {
  std::vector<PieceRecord> pieces = {{0, 10, 0, 10, 1.0}, {5, 15, 5, 15, 1.0}};
  auto tuples = PlaneSweep(pieces, Interval{-kInf, kInf});
  // h-lines at y = 0, 5, 10, 15.
  ASSERT_EQ(tuples.size(), 4u);
  // Stratum [5,10): both rectangles active; intersection is [5,10).
  EXPECT_EQ(tuples[1].y, 5);
  EXPECT_EQ(tuples[1].sum, 2.0);
  EXPECT_EQ(tuples[1].x_lo, 5);
  EXPECT_EQ(tuples[1].x_hi, 10);
  // Stratum [10,15): only the second remains.
  EXPECT_EQ(tuples[2].sum, 1.0);
}

TEST(PlaneSweepTest, TuplesSortedStrictlyIncreasingY) {
  auto objects = testing::RandomIntObjects(200, 100, 11);
  std::vector<PieceRecord> pieces;
  for (const auto& o : objects) {
    pieces.push_back({o.x - 5, o.x + 5, o.y - 5, o.y + 5, o.w});
  }
  auto tuples = PlaneSweep(pieces, Interval{-kInf, kInf});
  for (size_t i = 1; i < tuples.size(); ++i) {
    EXPECT_LT(tuples[i - 1].y, tuples[i].y);
  }
  // One tuple per distinct event y, at most 2 per piece.
  EXPECT_LE(tuples.size(), 2 * pieces.size());
  // The sweep ends with everything closed.
  EXPECT_EQ(tuples.back().sum, 0.0);
}

TEST(PlaneSweepTest, RespectsSlabBounds) {
  std::vector<PieceRecord> pieces = {{2, 8, 0, 4, 1.0}};
  auto tuples = PlaneSweep(pieces, Interval{0, 10});
  ASSERT_EQ(tuples.size(), 2u);
  // All zero-sum intervals stay within the slab.
  EXPECT_GE(tuples[1].x_lo, 0.0);
  EXPECT_LE(tuples[1].x_hi, 10.0);
}

TEST(PlaneSweepTest, PaperFigure2Example) {
  // Four unit-weight objects as in Fig. 2; rectangle 4 x 3 centered at each.
  // Objects chosen so three rectangles share a region.
  std::vector<SpatialObject> objects = {
      {2, 2, 1}, {4, 3, 1}, {3, 4, 1}, {9, 9, 1}};
  MaxRSResult result = ExactMaxRSInMemory(objects, 4, 3);
  // The first three objects pairwise fit in a 4 x 3 window.
  EXPECT_EQ(result.total_weight, 3.0);
  // Verify the returned location actually covers that weight.
  const Rect r = Rect::Centered(result.location, 4, 3);
  EXPECT_EQ(CoveredWeight(objects, r), 3.0);
}

// --- Golden bytes ------------------------------------------------------
//
// The sweep's output with real-valued weights, pinned to the bit. Sums of
// real weights depend on the order of every floating-point addition in the
// segment tree, so any change to the tree's decomposition or evaluation
// order moves at least one ulp here (the last max tuple's 0x3cc0... is such
// an ulp: rounding residue of a sum that is zero in exact arithmetic).

using TupleBits = std::array<uint64_t, 4>;  // y, x_lo, x_hi, sum

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::vector<TupleBits> ToBits(const std::vector<SlabTuple>& tuples) {
  std::vector<TupleBits> out;
  for (const SlabTuple& t : tuples) {
    out.push_back({Bits(t.y), Bits(t.x_lo), Bits(t.x_hi), Bits(t.sum)});
  }
  return out;
}

/// FNV-1a over the tuples' bytes, for the cases too long to list.
uint64_t TupleHash(const std::vector<SlabTuple>& tuples) {
  uint64_t h = 1469598103934665603ULL;
  for (const TupleBits& t : ToBits(tuples)) {
    for (uint64_t bits : t) {
      for (int i = 0; i < 8; ++i) {
        h ^= (bits >> (8 * i)) & 0xFF;
        h *= 1099511628211ULL;
      }
    }
  }
  return h;
}

/// Pieces on a half-unit grid (ties in x and y everywhere) with real
/// weights in [-0.75, 3).
std::vector<PieceRecord> GridPieces(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<PieceRecord> pieces;
  pieces.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = 0.5 * static_cast<double>(rng.UniformU64(24));
    const double y = 0.5 * static_cast<double>(rng.UniformU64(24));
    const double width = 0.5 * static_cast<double>(1 + rng.UniformU64(8));
    const double height = 0.5 * static_cast<double>(1 + rng.UniformU64(8));
    const double w = rng.Uniform(-0.75, 3.0);
    pieces.push_back({x, x + width, y, y + height, w});
  }
  return pieces;
}

/// Pieces at real-valued coordinates (no ties) with real weights.
std::vector<PieceRecord> ScatteredPieces(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<PieceRecord> pieces;
  pieces.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = rng.Uniform(0.0, 100.0);
    const double y = rng.Uniform(0.0, 100.0);
    const double width = rng.Uniform(1.0, 10.0);
    const double height = rng.Uniform(1.0, 10.0);
    const double w = rng.Uniform(-0.75, 3.0);
    pieces.push_back({x, x + width, y, y + height, w});
  }
  return pieces;
}

TEST(PlaneSweepGoldenTest, RealWeightsMaxTuplesAreBitExact) {
  const std::vector<TupleBits> want = {
    {0x0000000000000000, 0x3ff0000000000000, 0x4008000000000000, 0x3fda27a8636f2664},
    {0x3fe0000000000000, 0x3ff8000000000000, 0x4008000000000000, 0x3ffba42d8db9886f},
    {0x3ff0000000000000, 0x3ff8000000000000, 0x4008000000000000, 0x3ffba42d8db9886f},
    {0x4004000000000000, 0x4004000000000000, 0x4008000000000000, 0x4005e5120b700340},
    {0x4008000000000000, 0x4004000000000000, 0x400c000000000000, 0x4002a01cff021e74},
    {0x4010000000000000, 0x4004000000000000, 0x4018000000000000, 0x3ff025f689267e12},
    {0x4012000000000000, 0x4004000000000000, 0x4018000000000000, 0x400777a5d6c5ad61},
    {0x4016000000000000, 0x4016000000000000, 0x4018000000000000, 0x400d99c1021ff3c2},
    {0x4018000000000000, 0x4016000000000000, 0x4018000000000000, 0x4012179bb2857bfb},
    {0x401c000000000000, 0x4014000000000000, 0x4018000000000000, 0x400e0d1c39b0b194},
    {0x401e000000000000, 0x4014000000000000, 0x4018000000000000, 0x401980bf8d2379be},
    {0x4020000000000000, 0x4004000000000000, 0x4008000000000000, 0x401376e63255debc},
    {0x4024000000000000, 0x4004000000000000, 0x4008000000000000, 0x401376e63255debc},
    {0x4025000000000000, 0x4004000000000000, 0x4008000000000000, 0x4004f462e09641e9},
    {0x4026000000000000, 0x4004000000000000, 0x4008000000000000, 0x4004f462e09641e9},
    {0x4027000000000000, 0x0000000000000000, 0x4000000000000000, 0x3ffaf2d6e72933ae},
    {0x4029000000000000, 0x4026000000000000, 0x402e000000000000, 0x3ff7fefa29648220},
    {0x402c000000000000, 0x4004000000000000, 0x4008000000000000, 0x3cc0000000000000},
  };
  EXPECT_EQ(ToBits(PlaneSweep(GridPieces(1, 12), Interval{0, 16},
                              SweepObjective::kMaximize)),
            want);
}

TEST(PlaneSweepGoldenTest, RealWeightsMinTuplesAreBitExact) {
  const std::vector<TupleBits> want = {
    {0x0000000000000000, 0x0000000000000000, 0x3ff0000000000000, 0x0000000000000000},
    {0x3fe0000000000000, 0x4025000000000000, 0x4029000000000000, 0xbfe058d9fd5dac30},
    {0x3ff0000000000000, 0x0000000000000000, 0x3ff0000000000000, 0x0000000000000000},
    {0x4004000000000000, 0x0000000000000000, 0x3ff0000000000000, 0x0000000000000000},
    {0x4008000000000000, 0x0000000000000000, 0x3ff8000000000000, 0x0000000000000000},
    {0x4010000000000000, 0x0000000000000000, 0x4004000000000000, 0x0000000000000000},
    {0x4012000000000000, 0x0000000000000000, 0x4004000000000000, 0x0000000000000000},
    {0x4016000000000000, 0x0000000000000000, 0x4004000000000000, 0x0000000000000000},
    {0x4018000000000000, 0x0000000000000000, 0x4004000000000000, 0x0000000000000000},
    {0x401c000000000000, 0x0000000000000000, 0x4004000000000000, 0x0000000000000000},
    {0x401e000000000000, 0x0000000000000000, 0x4004000000000000, 0x0000000000000000},
    {0x4020000000000000, 0x0000000000000000, 0x4004000000000000, 0x0000000000000000},
    {0x4024000000000000, 0x0000000000000000, 0x4004000000000000, 0x0000000000000000},
    {0x4025000000000000, 0x4000000000000000, 0x4004000000000000, 0x0000000000000000},
    {0x4026000000000000, 0x4000000000000000, 0x4004000000000000, 0x0000000000000000},
    {0x4027000000000000, 0x4008000000000000, 0x4018000000000000, 0xbcc0000000000000},
    {0x4029000000000000, 0x4008000000000000, 0x4018000000000000, 0xbcc0000000000000},
    {0x402c000000000000, 0x4008000000000000, 0x4018000000000000, 0xbcc0000000000000},
  };
  EXPECT_EQ(ToBits(PlaneSweep(GridPieces(1, 12), Interval{0, 16},
                              SweepObjective::kMinimize)),
            want);
}

TEST(PlaneSweepGoldenTest, LargeRealWeightSweepsHashToPinnedBytes) {
  const Interval all{-kInf, kInf};
  const auto grid = GridPieces(7, 3000);
  const auto scattered = ScatteredPieces(11, 2000);
  struct Case {
    const std::vector<PieceRecord>* pieces;
    SweepObjective objective;
    size_t size;
    uint64_t hash;
  };
  const Case cases[] = {
      {&grid, SweepObjective::kMaximize, 32, 0x54cb189ab48358a9ULL},
      {&grid, SweepObjective::kMinimize, 32, 0x37797edbda69f3acULL},
      {&scattered, SweepObjective::kMaximize, 4000, 0xfa6a0d1d4975381bULL},
      {&scattered, SweepObjective::kMinimize, 4000, 0xa01384559e8ed2c4ULL},
  };
  for (const Case& c : cases) {
    const auto tuples = PlaneSweep(*c.pieces, all, c.objective);
    EXPECT_EQ(tuples.size(), c.size);
    EXPECT_EQ(TupleHash(tuples), c.hash);
  }
}

// --- Differential: the sort-based set-up as oracle ----------------------
//
// PlaneSweep ranks x-edges by radix sort and merges its events from the
// y-ordered pieces. SortPlaneSweep is the plain sort-based set-up (std::sort
// of the x-boundaries, lower_bound per edge, std::sort of the events) over
// the same SegmentTree; the outputs must agree to the byte.

std::vector<SlabTuple> SortPlaneSweep(const std::vector<PieceRecord>& pieces,
                                      const Interval& slab,
                                      SweepObjective objective) {
  struct Event {
    double y, x_lo, x_hi, w;
    uint32_t first, last;
  };
  std::vector<SlabTuple> out;
  if (pieces.empty()) return out;
  std::vector<double> xs = {slab.lo, slab.hi};
  for (const PieceRecord& p : pieces) {
    xs.push_back(p.x_lo);
    xs.push_back(p.x_hi);
  }
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
  auto index_of = [&xs](double x) {
    return static_cast<uint32_t>(
        std::lower_bound(xs.begin(), xs.end(), x) - xs.begin());
  };
  std::vector<Event> events;
  for (const PieceRecord& p : pieces) {
    const uint32_t first = index_of(p.x_lo);
    const uint32_t last = index_of(p.x_hi) - 1;
    events.push_back({p.y_lo, p.x_lo, p.x_hi, p.w, first, last});
    events.push_back({p.y_hi, p.x_lo, p.x_hi, -p.w, first, last});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    uint64_t ka = DoubleOrderKey(a.y), kb = DoubleOrderKey(b.y);
    if (ka != kb) return ka < kb;
    ka = DoubleOrderKey(a.x_lo), kb = DoubleOrderKey(b.x_lo);
    if (ka != kb) return ka < kb;
    ka = DoubleOrderKey(a.x_hi), kb = DoubleOrderKey(b.x_hi);
    if (ka != kb) return ka < kb;
    return DoubleOrderKey(a.w) < DoubleOrderKey(b.w);
  });
  SegmentTree tree(xs.size() - 1);
  size_t i = 0;
  while (i < events.size()) {
    const double y = events[i].y;
    while (i < events.size() && events[i].y == y) {
      tree.RangeAdd(events[i].first, events[i].last, events[i].w);
      ++i;
    }
    const MaxRun run = objective == SweepObjective::kMaximize
                           ? tree.MaxInterval()
                           : tree.MinInterval();
    out.push_back(SlabTuple{y, xs[run.first], xs[run.last + 1], run.value});
  }
  return out;
}

/// Requires byte-identical output from PlaneSweep and SortPlaneSweep, for
/// both objectives.
void ExpectSameAsSortSweep(const std::vector<PieceRecord>& pieces,
                           const Interval& slab, const char* what) {
  for (SweepObjective objective :
       {SweepObjective::kMaximize, SweepObjective::kMinimize}) {
    const auto got = PlaneSweep(pieces, slab, objective);
    const auto want = SortPlaneSweep(pieces, slab, objective);
    ASSERT_EQ(got.size(), want.size()) << what;
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(SlabTuple)),
              0)
        << what << " n=" << pieces.size() << " objective="
        << (objective == SweepObjective::kMaximize ? "max" : "min");
  }
}

/// Rect-query pieces (constant width and height) of random objects on
/// [-extent, extent]^2, in the y pre-sort's PieceYLess order.
std::vector<PieceRecord> YSortedQueryPieces(uint64_t seed, size_t n,
                                            double extent) {
  Rng rng(seed);
  const double width = rng.Uniform(1.0, extent / 4);
  const double height = rng.Uniform(1.0, extent / 4);
  std::vector<PieceRecord> pieces;
  for (size_t i = 0; i < n; ++i) {
    const SpatialObject o{rng.Uniform(-extent, extent),
                          rng.Uniform(-extent, extent), rng.Uniform(0.5, 3.0)};
    pieces.push_back(TransformObject(o, width, height));
  }
  std::sort(pieces.begin(), pieces.end(), PieceYLess);
  return pieces;
}

/// The pieces of `pieces` clipped to x-slab `slab`, keeping their order —
/// what one shard of the serve layer sweeps.
std::vector<PieceRecord> ClipToSlab(const std::vector<PieceRecord>& pieces,
                                    const Interval& slab) {
  std::vector<PieceRecord> out;
  for (PieceRecord p : pieces) {
    p.x_lo = std::max(p.x_lo, slab.lo);
    p.x_hi = std::min(p.x_hi, slab.hi);
    if (p.x_lo < p.x_hi) out.push_back(p);
  }
  return out;
}

/// Fisher-Yates shuffle with the test Rng.
void Shuffle(std::vector<PieceRecord>* pieces, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = pieces->size(); i > 1; --i) {
    std::swap((*pieces)[i - 1], (*pieces)[rng.UniformU64(i)]);
  }
}

TEST(PlaneSweepDifferentialTest, YSortedShardShapedSlabs) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const auto pieces = YSortedQueryPieces(seed, 20000, 1000.0);
    constexpr int kSlabs = 8;
    for (int s = 0; s < kSlabs; ++s) {
      const Interval slab{-1000.0 + 2000.0 * s / kSlabs,
                          -1000.0 + 2000.0 * (s + 1) / kSlabs};
      ExpectSameAsSortSweep(ClipToSlab(pieces, slab), slab, "shard slab");
    }
    ExpectSameAsSortSweep(pieces, Interval{-kInf, kInf}, "whole plane");
  }
}

TEST(PlaneSweepDifferentialTest, UnsortedInput) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (size_t n : {2, 50, 300, 3000}) {
      auto pieces = YSortedQueryPieces(seed, n, 500.0);
      Shuffle(&pieces, seed);
      ExpectSameAsSortSweep(pieces, Interval{-kInf, kInf}, "shuffled");
      ExpectSameAsSortSweep(ScatteredPieces(seed, n), Interval{-kInf, kInf},
                            "scattered");
    }
  }
}

TEST(PlaneSweepDifferentialTest, HalfUnitGridTies) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (size_t n : {20, 400, 4000}) {
      // Shared x-edges and equal y across bottoms and tops everywhere, plus
      // an exact duplicate of every fifth piece.
      auto pieces = GridPieces(seed, n);
      for (size_t i = 0; i < n; i += 5) pieces.push_back(pieces[i]);
      ExpectSameAsSortSweep(pieces, Interval{0, 16}, "grid, generated order");
      std::sort(pieces.begin(), pieces.end(), PieceYLess);
      ExpectSameAsSortSweep(pieces, Interval{0, 16}, "grid, y-sorted");

      // Constant height, as in a rect query: tops tie with bottoms.
      for (PieceRecord& p : pieces) p.y_hi = p.y_lo + 1.5;
      std::sort(pieces.begin(), pieces.end(), PieceYLess);
      ExpectSameAsSortSweep(pieces, Interval{0, 16}, "grid, constant height");
      ExpectSameAsSortSweep(ClipToSlab(pieces, Interval{4, 8.5}),
                            Interval{4, 8.5}, "grid, clipped");

      // Real weights that depend on the x-extent only: pieces equal in
      // (y, x_lo, x_hi) are then equal events, so the bottom and top
      // sequences are both in event order and the merge alone orders them.
      for (PieceRecord& p : pieces) p.w = 0.1 * p.x_lo - 0.37 * p.x_hi + 1.3;
      std::sort(pieces.begin(), pieces.end(), PieceYLess);
      ExpectSameAsSortSweep(pieces, Interval{0, 16}, "grid, merged ties");
    }
  }
}

TEST(PlaneSweepDifferentialTest, EqualBottomsWithDifferentHeights) {
  // PieceYLess orders pieces equal on (y_lo, x_lo, x_hi) by y_hi, the event
  // order by w: the merged events are out of order and must be re-sorted.
  std::vector<PieceRecord> pieces;
  for (int i = 0; i < 600; ++i) {
    const double x = 0.5 * (i % 7);
    const double y = 0.5 * (i % 11);
    pieces.push_back(
        {x, x + 2, y, y + 0.5 * (1 + i % 5), 3.0 - 0.37 * (i % 13)});
  }
  std::sort(pieces.begin(), pieces.end(), PieceYLess);
  ExpectSameAsSortSweep(pieces, Interval{0, 6}, "equal bottoms");
  ExpectSameAsSortSweep({pieces.begin(), pieces.begin() + 40}, Interval{0, 6},
                        "equal bottoms, small");
}

TEST(PlaneSweepDifferentialTest, SinglePiece) {
  ExpectSameAsSortSweep({{1.0, 2.5, -3.0, 4.0, 0.75}}, Interval{0, 3}, "n=1");
  ExpectSameAsSortSweep({{-1.0, 2.5, -3.0, 4.0, -2.0}}, Interval{-kInf, kInf},
                        "n=1, unbounded slab");
}

TEST(PlaneSweepDifferentialTest, SignedZeroEdgesShareOneBoundary) {
  // -0.0 and +0.0 compare equal, so they are one boundary. The sort-based
  // set-up kept whichever zero std::sort left first; PlaneSweep keeps -0.0.
  // Compare x with == and y and sums to the bit.
  for (size_t n : {6, 600}) {
    std::vector<PieceRecord> pieces;
    Rng rng(n);
    for (size_t i = 0; i < n; ++i) {
      const double zero = i % 2 == 0 ? 0.0 : -0.0;
      const double y = 0.5 * static_cast<double>(rng.UniformU64(16));
      const double w = rng.Uniform(-0.75, 3.0);
      if (i % 3 == 0) {
        pieces.push_back({zero, 1.5, y, y + 1, w});
      } else if (i % 3 == 1) {
        pieces.push_back({-1.5, zero, y, y + 1, w});
      } else {
        pieces.push_back({-0.5, 0.5, y, y + 1.5, w});
      }
    }
    std::sort(pieces.begin(), pieces.end(), PieceYLess);
    for (SweepObjective objective :
         {SweepObjective::kMaximize, SweepObjective::kMinimize}) {
      const auto got = PlaneSweep(pieces, Interval{-2, 2}, objective);
      const auto want = SortPlaneSweep(pieces, Interval{-2, 2}, objective);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(Bits(got[i].y), Bits(want[i].y)) << i;
        EXPECT_EQ(got[i].x_lo, want[i].x_lo) << i;
        EXPECT_EQ(got[i].x_hi, want[i].x_hi) << i;
        EXPECT_EQ(Bits(got[i].sum), Bits(want[i].sum)) << i;
        if (got[i].x_lo == 0.0) {
          EXPECT_TRUE(std::signbit(got[i].x_lo)) << i;
        }
        if (got[i].x_hi == 0.0) {
          EXPECT_TRUE(std::signbit(got[i].x_hi)) << i;
        }
      }
    }
  }
}

// --- Oracle comparison sweeps -------------------------------------------

struct OracleCase {
  size_t n;
  uint64_t extent;
  double rect_w;
  double rect_h;
  bool random_weights;
};

class PlaneSweepOracleTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(PlaneSweepOracleTest, MatchesBruteForce) {
  const OracleCase& c = GetParam();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    auto objects =
        testing::RandomIntObjects(c.n, c.extent, seed, c.random_weights);
    const MaxRSResult got = ExactMaxRSInMemory(objects, c.rect_w, c.rect_h);
    const BruteForceResult want = BruteForceMaxRS(objects, c.rect_w, c.rect_h);
    ASSERT_EQ(got.total_weight, want.total_weight)
        << "n=" << c.n << " extent=" << c.extent << " seed=" << seed;
    // The returned location must realize the reported weight.
    const Rect r = Rect::Centered(got.location, c.rect_w, c.rect_h);
    ASSERT_EQ(CoveredWeight(objects, r), got.total_weight)
        << "location not optimal, seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PlaneSweepOracleTest,
    ::testing::Values(OracleCase{1, 10, 2, 2, false},
                      OracleCase{10, 20, 4, 4, false},
                      OracleCase{50, 40, 8, 6, false},
                      OracleCase{100, 60, 10, 10, false},
                      OracleCase{100, 30, 10, 10, false},  // dense overlaps
                      OracleCase{150, 1000, 100, 50, false},
                      OracleCase{80, 50, 7, 13, true},     // weighted
                      OracleCase{120, 25, 6, 6, true},     // heavy duplicates
                      OracleCase{60, 8, 3, 3, true}));     // tiny domain

TEST(PlaneSweepEdgeTest, AllObjectsAtSamePoint) {
  std::vector<SpatialObject> objects(20, SpatialObject{5, 5, 1});
  MaxRSResult result = ExactMaxRSInMemory(objects, 2, 2);
  EXPECT_EQ(result.total_weight, 20.0);
  const Rect r = Rect::Centered(result.location, 2, 2);
  EXPECT_EQ(CoveredWeight(objects, r), 20.0);
}

TEST(PlaneSweepEdgeTest, ObjectsOnAVerticalLine) {
  std::vector<SpatialObject> objects;
  for (int i = 0; i < 30; ++i) objects.push_back({7, static_cast<double>(i), 1});
  MaxRSResult result = ExactMaxRSInMemory(objects, 3, 10);
  EXPECT_EQ(result.total_weight, 10.0);
}

TEST(PlaneSweepEdgeTest, ZeroWeightObjectsDoNotCount) {
  std::vector<SpatialObject> objects = {{0, 0, 0}, {1, 1, 0}, {50, 50, 1}};
  MaxRSResult result = ExactMaxRSInMemory(objects, 4, 4);
  EXPECT_EQ(result.total_weight, 1.0);
}

TEST(PlaneSweepEdgeTest, RectLargerThanDomainCoversEverything) {
  auto objects = testing::RandomIntObjects(50, 10, 3);
  MaxRSResult result = ExactMaxRSInMemory(objects, 1000, 1000);
  double total = 0;
  for (const auto& o : objects) total += o.w;
  EXPECT_EQ(result.total_weight, total);
}

}  // namespace
}  // namespace maxrs

// Property-based sweeps: invariants that must hold for every random
// instance, checked across parameterized configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/division.h"
#include "core/merge_sweep.h"
#include "core/plane_sweep.h"
#include "io/buffer_pool.h"
#include "io/external_sort.h"
#include "io/record_io.h"
#include "io/temp_manager.h"
#include "test_util.h"
#include "util/rng.h"

namespace maxrs {
namespace {

// --- Slab-file invariants ----------------------------------------------------

/// True stabbing extremum over x within `slab` for the stratum containing
/// `y`, computed by brute force over the pieces.
double StabbingExtremum(const std::vector<PieceRecord>& pieces,
                        const Interval& slab, double y, bool want_max) {
  // Collect x-breakpoints of active pieces, then evaluate each elementary
  // interval's stabbing sum at its midpoint.
  std::vector<double> xs = {slab.lo, slab.hi};
  for (const PieceRecord& p : pieces) {
    if (y >= p.y_lo && y < p.y_hi) {
      xs.push_back(p.x_lo);
      xs.push_back(p.x_hi);
    }
  }
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
  double best = want_max ? -kInf : kInf;
  for (size_t i = 0; i + 1 < xs.size(); ++i) {
    // Midpoint of possibly-infinite elementary intervals: nudge inward.
    double mid;
    if (std::isinf(xs[i]) && std::isinf(xs[i + 1])) {
      mid = 0;
    } else if (std::isinf(xs[i])) {
      mid = xs[i + 1] - 1;
    } else if (std::isinf(xs[i + 1])) {
      mid = xs[i] + 1;
    } else {
      mid = (xs[i] + xs[i + 1]) / 2;
    }
    double sum = 0;
    for (const PieceRecord& p : pieces) {
      if (y >= p.y_lo && y < p.y_hi && mid >= p.x_lo && mid < p.x_hi) {
        sum += p.w;
      }
    }
    best = want_max ? std::max(best, sum) : std::min(best, sum);
  }
  return best;
}

struct SlabSweepCase {
  size_t n;
  uint64_t extent;
  double rect_w;
  double rect_h;
  SweepObjective objective;
};

class SlabFileInvariantTest : public ::testing::TestWithParam<SlabSweepCase> {};

TEST_P(SlabFileInvariantTest, TuplesDescribeTrueExtremaOfEveryStratum) {
  const SlabSweepCase& c = GetParam();
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    auto objects = testing::RandomIntObjects(c.n, c.extent, seed,
                                             /*random_weights=*/true);
    std::vector<PieceRecord> pieces;
    for (const auto& o : objects) {
      pieces.push_back({o.x, o.x + c.rect_w, o.y, o.y + c.rect_h, o.w});
    }
    const Interval slab{-kInf, kInf};
    auto tuples = PlaneSweep(pieces, slab, c.objective);
    ASSERT_FALSE(tuples.empty());
    const bool want_max = c.objective == SweepObjective::kMaximize;
    for (size_t i = 0; i < tuples.size(); ++i) {
      const SlabTuple& t = tuples[i];
      // (1) strictly increasing y.
      if (i > 0) {
        ASSERT_LT(tuples[i - 1].y, t.y);
      }
      // (2) the interval lies within the slab and is non-degenerate.
      ASSERT_LT(t.x_lo, t.x_hi);
      // (3) the sum equals the true extremum for the stratum.
      ASSERT_EQ(t.sum, StabbingExtremum(pieces, slab, t.y, want_max))
          << "tuple " << i << " seed " << seed;
      // (4) the interval actually attains the sum (probe its midpoint).
      const double mid = std::isinf(t.x_lo)
                             ? (std::isinf(t.x_hi) ? 0.0 : t.x_hi - 1)
                             : (std::isinf(t.x_hi) ? t.x_lo + 1
                                                   : (t.x_lo + t.x_hi) / 2);
      double at_mid = 0;
      for (const PieceRecord& p : pieces) {
        if (t.y >= p.y_lo && t.y < p.y_hi && mid >= p.x_lo && mid < p.x_hi) {
          at_mid += p.w;
        }
      }
      ASSERT_EQ(at_mid, t.sum) << "tuple " << i;
    }
    // (5) the final tuple closes everything.
    ASSERT_EQ(tuples.back().sum, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SlabFileInvariantTest,
    ::testing::Values(SlabSweepCase{40, 60, 8, 8, SweepObjective::kMaximize},
                      SlabSweepCase{40, 60, 8, 8, SweepObjective::kMinimize},
                      SlabSweepCase{80, 30, 5, 9, SweepObjective::kMaximize},
                      SlabSweepCase{25, 200, 50, 20, SweepObjective::kMaximize},
                      SlabSweepCase{60, 20, 6, 6, SweepObjective::kMinimize}));

// --- Division + MergeSweep == global PlaneSweep -------------------------------

class DivideMergeRoundTripTest : public ::testing::TestWithParam<size_t> {};

TEST_P(DivideMergeRoundTripTest, ComposingChildrenReproducesGlobalSweep) {
  const size_t fanout = GetParam();
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    auto env = NewMemEnv(512);
    TempFileManager temps(*env, "prop");
    auto objects =
        testing::RandomIntObjects(120, 150, seed, /*random_weights=*/true);
    std::vector<PieceRecord> pieces;
    std::vector<EdgeRecord> edges;
    for (const auto& o : objects) {
      pieces.push_back({o.x, o.x + 30, o.y, o.y + 15, o.w});
      edges.push_back({o.x});
      edges.push_back({o.x + 30});
    }
    std::stable_sort(pieces.begin(), pieces.end(),
                     [](const PieceRecord& a, const PieceRecord& b) {
                       return a.y_lo < b.y_lo;
                     });
    std::sort(edges.begin(), edges.end(),
              [](const EdgeRecord& a, const EdgeRecord& b) { return a.x < b.x; });
    ASSERT_TRUE(WriteRecordFile(*env, "pieces", pieces).ok());
    ASSERT_TRUE(WriteRecordFile(*env, "edges", edges).ok());

    auto source = FileRecordSource<PieceRecord>::Make(*env, "pieces");
    ASSERT_TRUE(source.ok());
    uint64_t num_spans = 0;
    auto division =
        DividePieces(temps, &*source, "edges", Interval{-kInf, kInf}, fanout,
                     /*channel_bytes=*/0, "spans", &num_spans);
    ASSERT_TRUE(division.ok()) << division.status().ToString();
    // The large fanout must really merge many children (the one-shot root
    // merges hundreds), not collapse to a few for lack of distinct edges.
    ASSERT_GE(division->size(), std::min<size_t>(fanout, 32))
        << "fanout=" << fanout << " seed=" << seed;

    // Child slab-files by in-memory sweep, merged by MergeSweep.
    std::vector<std::string> child_files;
    for (size_t i = 0; i < division->size(); ++i) {
      ChildSlab& child = (*division)[i];
      std::vector<PieceRecord> child_pieces;
      PieceRecord p{};
      while (child.pieces->Next(&p)) child_pieces.push_back(p);
      ASSERT_TRUE(child.pieces->final_status().ok());
      const std::string name = "slab" + std::to_string(i);
      ASSERT_TRUE(
          WriteRecordFile(*env, name, PlaneSweep(child_pieces, child.x_range))
              .ok());
      child_files.push_back(name);
    }
    std::vector<Interval> ranges;
    for (const ChildSlab& child : *division) ranges.push_back(child.x_range);
    ASSERT_TRUE(
        testing::MergeSlabFiles(*env, ranges, child_files, "spans", "merged")
            .ok());
    auto merged = ReadRecordFile<SlabTuple>(*env, "merged");
    ASSERT_TRUE(merged.ok());

    // Reference: the unsplit global sweep. Compare the best sum and the
    // per-y maxima (the merged stream may contain more event ys due to
    // span events; compare on the union of event ys via step functions).
    auto global = PlaneSweep(pieces, Interval{-kInf, kInf});
    auto step_value = [](const std::vector<SlabTuple>& tuples, double y) {
      double value = 0.0;
      for (const SlabTuple& t : tuples) {
        if (t.y <= y) {
          value = t.sum;
        } else {
          break;
        }
      }
      return value;
    };
    for (const SlabTuple& t : *merged) {
      ASSERT_EQ(t.sum, step_value(global, t.y))
          << "y=" << t.y << " fanout=" << fanout << " seed=" << seed;
    }
    for (const SlabTuple& t : global) {
      ASSERT_EQ(step_value(*merged, t.y), t.sum)
          << "y=" << t.y << " fanout=" << fanout << " seed=" << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fanouts, DivideMergeRoundTripTest,
                         ::testing::Values(2, 3, 5, 9, 64));

// --- Record IO / sort across block sizes --------------------------------------

class BlockSizeSweepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BlockSizeSweepTest, RecordRoundTripAndSort) {
  const size_t block_size = GetParam();
  auto env = NewMemEnv(block_size);
  struct Rec {
    uint64_t key;
    uint64_t seq;
    double payload;
  };
  Rng rng(block_size);
  std::vector<Rec> records;
  for (uint64_t i = 0; i < 3000; ++i) {
    records.push_back({rng.NextU64() % 500, i, rng.NextDouble()});
  }
  ASSERT_TRUE(WriteRecordFile(*env, "in", records).ok());
  auto back = ReadRecordFile<Rec>(*env, "in");
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    ASSERT_EQ((*back)[i].seq, records[i].seq);
  }

  // Sort under a total order (key, then seq) — the comparator shape the
  // determinism contract asks for; the output is then one canonical
  // sequence with strictly increasing (key, seq).
  ASSERT_TRUE((ExternalSort<Rec>(
                   *env, "in", "out",
                   [](const Rec& a, const Rec& b) {
                     if (a.key != b.key) return a.key < b.key;
                     return a.seq < b.seq;
                   },
                   ExternalSortOptions{block_size * 8}))
                  .ok());
  auto sorted = ReadRecordFile<Rec>(*env, "out");
  ASSERT_TRUE(sorted.ok());
  ASSERT_EQ(sorted->size(), records.size());
  for (size_t i = 1; i < sorted->size(); ++i) {
    ASSERT_LE((*sorted)[i - 1].key, (*sorted)[i].key);
    if ((*sorted)[i - 1].key == (*sorted)[i].key) {
      ASSERT_LT((*sorted)[i - 1].seq, (*sorted)[i].seq);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, BlockSizeSweepTest,
                         ::testing::Values(256, 512, 1024, 4096, 16384));

// --- Buffer pool vs reference cache model -------------------------------------

TEST(BufferPoolPropertyTest, MatchesReferenceLruModel) {
  auto env = NewMemEnv(512);
  auto file = std::move(env->Create("f")).value();
  std::vector<char> buf(512);
  const uint64_t num_blocks = 64;
  for (uint64_t b = 0; b < num_blocks; ++b) {
    buf[0] = static_cast<char>(b);
    ASSERT_TRUE(file->WriteBlock(b, buf.data()).ok());
  }

  const size_t frames = 8;
  BufferPool pool(*env, frames * 512);
  // Reference model: LRU list of block ids.
  std::vector<uint64_t> lru;  // front = most recent
  uint64_t expected_misses = 0;

  Rng rng(99);
  for (int op = 0; op < 5000; ++op) {
    const uint64_t b = rng.UniformU64(num_blocks);
    auto it = std::find(lru.begin(), lru.end(), b);
    if (it == lru.end()) {
      ++expected_misses;
      lru.insert(lru.begin(), b);
      if (lru.size() > frames) lru.pop_back();
    } else {
      lru.erase(it);
      lru.insert(lru.begin(), b);
    }
    auto page = pool.Fetch(*file, b);
    ASSERT_TRUE(page.ok());
    ASSERT_EQ(page->data()[0], static_cast<char>(b)) << "content mismatch";
  }
  EXPECT_EQ(pool.pool_stats().misses, expected_misses);
  EXPECT_EQ(pool.pool_stats().hits, 5000 - expected_misses);
}

TEST(BufferPoolPropertyTest, RandomDirtyWritesAlwaysPersist) {
  auto env = NewMemEnv(512);
  auto file = std::move(env->Create("f")).value();
  std::vector<char> buf(512, 0);
  const uint64_t num_blocks = 32;
  for (uint64_t b = 0; b < num_blocks; ++b) {
    ASSERT_TRUE(file->WriteBlock(b, buf.data()).ok());
  }
  std::map<uint64_t, char> expected;
  {
    BufferPool pool(*env, 4 * 512);
    Rng rng(7);
    for (int op = 0; op < 2000; ++op) {
      const uint64_t b = rng.UniformU64(num_blocks);
      const char v = static_cast<char>(rng.UniformU64(128));
      auto page = pool.Fetch(*file, b);
      ASSERT_TRUE(page.ok());
      page->data()[1] = v;
      page->MarkDirty();
      expected[b] = v;
    }
    ASSERT_TRUE(pool.FlushAll().ok());
  }
  for (const auto& [b, v] : expected) {
    ASSERT_TRUE(file->ReadBlock(b, buf.data()).ok());
    ASSERT_EQ(buf[1], v) << "block " << b;
  }
}

}  // namespace
}  // namespace maxrs

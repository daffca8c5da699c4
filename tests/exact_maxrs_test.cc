#include "core/exact_maxrs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "core/brute_force.h"
#include "core/plane_sweep.h"
#include "datagen/dataset_io.h"
#include "io/env.h"
#include "io/record_stream.h"
#include "io/temp_manager.h"
#include "test_util.h"
#include "util/rng.h"

namespace maxrs {
namespace {

MaxRSOptions SmallExternalOptions() {
  // Force deep recursion on small inputs: tiny base case and fan-out.
  MaxRSOptions options;
  options.rect_width = 8;
  options.rect_height = 8;
  options.memory_bytes = 1 << 14;
  options.fanout = 3;
  options.base_case_max_pieces = 16;
  return options;
}

TEST(ExactMaxRSTest, EmptyDataset) {
  auto env = NewMemEnv(512);
  ASSERT_TRUE(WriteDataset(*env, "data", {}).ok());
  MaxRSOptions options;
  options.memory_bytes = 1 << 14;
  auto result = RunExactMaxRS(*env, "data", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total_weight, 0.0);
}

TEST(ExactMaxRSTest, RejectsBadOptions) {
  auto env = NewMemEnv(512);
  ASSERT_TRUE(WriteDataset(*env, "data", {{1, 1, 1}}).ok());
  MaxRSOptions options;
  options.rect_width = 0;
  EXPECT_EQ(RunExactMaxRS(*env, "data", options).status().code(),
            Status::Code::kInvalidArgument);
  options.rect_width = 10;
  options.memory_bytes = 256;  // less than 4 blocks
  EXPECT_EQ(RunExactMaxRS(*env, "data", options).status().code(),
            Status::Code::kInvalidArgument);

  options.memory_bytes = 1 << 14;
  options.rect_height = std::numeric_limits<double>::infinity();
  EXPECT_EQ(RunExactMaxRS(*env, "data", options).status().code(),
            Status::Code::kInvalidArgument);
  options.rect_height = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(RunExactMaxRS(*env, "data", options).status().code(),
            Status::Code::kInvalidArgument);

  options.rect_height = 10;
  options.fanout = 1;  // 0 means derive; 1 can never divide
  EXPECT_EQ(RunExactMaxRS(*env, "data", options).status().code(),
            Status::Code::kInvalidArgument);
  options.fanout = (1 << 14) / 512 + 1;  // one output buffer per child > M/B
  EXPECT_EQ(RunExactMaxRS(*env, "data", options).status().code(),
            Status::Code::kInvalidArgument);

  options.fanout = 0;
  options.num_threads = 100000;  // absurd: almost certainly a unit mix-up
  EXPECT_EQ(RunExactMaxRS(*env, "data", options).status().code(),
            Status::Code::kInvalidArgument);
}

TEST(ExactMaxRSTest, MissingDatasetIsNotFound) {
  auto env = NewMemEnv(512);
  MaxRSOptions options;
  options.memory_bytes = 1 << 14;
  EXPECT_EQ(RunExactMaxRS(*env, "absent", options).status().code(),
            Status::Code::kNotFound);
}

TEST(ExactMaxRSTest, MatchesInMemoryOnModerateData) {
  auto env = NewMemEnv(512);
  auto objects = testing::RandomIntObjects(2000, 500, 23);
  const MaxRSOptions options = SmallExternalOptions();
  auto external = RunExactMaxRS(*env, objects, options);
  ASSERT_TRUE(external.ok());
  const MaxRSResult internal =
      ExactMaxRSInMemory(objects, options.rect_width, options.rect_height);
  EXPECT_EQ(external->total_weight, internal.total_weight);
  EXPECT_GT(external->stats.recursion_levels, 0u);
  // The returned location must realize the weight.
  const Rect r =
      Rect::Centered(external->location, options.rect_width, options.rect_height);
  EXPECT_EQ(CoveredWeight(objects, r), external->total_weight);
}

struct ExternalCase {
  size_t n;
  uint64_t extent;
  double rect;
  size_t fanout;
  uint64_t base_max;
  bool weights;
};

class ExactMaxRSOracleTest : public ::testing::TestWithParam<ExternalCase> {};

TEST_P(ExactMaxRSOracleTest, MatchesBruteForceThroughRecursion) {
  const ExternalCase& c = GetParam();
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    auto env = NewMemEnv(512);
    auto objects = testing::RandomIntObjects(c.n, c.extent, seed, c.weights);
    MaxRSOptions options;
    options.rect_width = c.rect;
    options.rect_height = c.rect;
    options.memory_bytes = 1 << 14;
    options.fanout = c.fanout;
    options.base_case_max_pieces = c.base_max;
    auto got = RunExactMaxRS(*env, objects, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const BruteForceResult want = BruteForceMaxRS(objects, c.rect, c.rect);
    ASSERT_EQ(got->total_weight, want.total_weight)
        << "n=" << c.n << " seed=" << seed << " fanout=" << c.fanout;
    const Rect r = Rect::Centered(got->location, c.rect, c.rect);
    ASSERT_EQ(CoveredWeight(objects, r), got->total_weight) << "seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ExactMaxRSOracleTest,
    ::testing::Values(
        // Wide rectangles relative to the domain force many spanning parts.
        ExternalCase{100, 50, 20, 2, 8, false},
        ExternalCase{100, 50, 20, 3, 8, true},
        ExternalCase{200, 100, 10, 4, 16, false},
        ExternalCase{200, 100, 40, 4, 16, false},   // very wide: heavy spans
        ExternalCase{300, 60, 6, 5, 12, true},      // dense duplicates
        ExternalCase{150, 2000, 100, 3, 10, false}, // sparse
        ExternalCase{250, 30, 4, 2, 6, true},       // deep recursion
        ExternalCase{64, 16, 8, 8, 4, false}));     // rect = half the domain

TEST(BruteForceTest, NegativeWeightNeedsAnEdgeOneRectBeforeAnObject) {
  // A 2 x 2 rect covers the +1 at x = 0 without the -1 at x = 1 only when
  // its left edge lies in (-2, -1]. A left edge on an object (0 or 1)
  // always covers the -1, so the oracle must also try the piece's right
  // end, 1 - w: a left edge at o.x - w.
  const std::vector<SpatialObject> objects = {{0, 0, 1}, {1, 0, -1}};
  const BruteForceResult got = BruteForceMaxRS(objects, 2, 2);
  EXPECT_EQ(got.total_weight, 1.0);
  EXPECT_EQ(CoveredWeight(objects, Rect::Centered(got.location, 2, 2)), 1.0);
  EXPECT_EQ(ExactMaxRSInMemory(objects, 2, 2).total_weight, 1.0);
}

TEST(ExactMaxRSTest, DegenerateAllSameXFallsBackToBaseCase) {
  auto env = NewMemEnv(512);
  std::vector<SpatialObject> objects;
  for (int i = 0; i < 200; ++i) objects.push_back({42, static_cast<double>(i), 1});
  MaxRSOptions options = SmallExternalOptions();
  options.rect_width = 4;
  options.rect_height = 10;
  auto result = RunExactMaxRS(*env, objects, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_weight, 10.0);
}

TEST(ExactMaxRSTest, CleansUpAllScratchFiles) {
  auto env = NewMemEnv(512);
  auto objects = testing::RandomIntObjects(500, 200, 5);
  auto result = RunExactMaxRS(*env, objects, SmallExternalOptions());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(env->ListFiles().empty())
      << "leftover scratch files after a run";
}

// A MemEnv wrapper that notes, when the first child slab-file is created,
// whether the root's sorted piece and edge files still exist. Those are the
// first files created with the tags "pieces" and "edges": the outputs of
// the two up-front sorts, which precede every child edge file.
class RootInputWatchEnv : public Env {
 public:
  explicit RootInputWatchEnv(Env& base) : base_(&base) {}

  Result<std::unique_ptr<BlockFile>> Create(const std::string& name) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      const std::string tag = Tag(name);
      if (tag == "pieces" && root_pieces_.empty()) root_pieces_ = name;
      if (tag == "edges" && root_edges_.empty()) root_edges_ = name;
      if (tag == "slab" && !saw_slab_) {
        saw_slab_ = true;
        root_pieces_held_ = base_->Exists(root_pieces_);
        root_edges_held_ = base_->Exists(root_edges_);
      }
    }
    return base_->Create(name);
  }
  Result<std::unique_ptr<BlockFile>> Open(const std::string& name) override {
    return base_->Open(name);
  }
  Status Delete(const std::string& name) override {
    return base_->Delete(name);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  bool Exists(const std::string& name) const override {
    return base_->Exists(name);
  }
  std::vector<std::string> ListFiles() const override {
    return base_->ListFiles();
  }
  size_t block_size() const override { return base_->block_size(); }
  IoStats& stats() override { return base_->stats(); }

  bool saw_slab() const { return saw_slab_; }
  bool saw_root_inputs() const {
    return !root_pieces_.empty() && !root_edges_.empty();
  }
  bool root_pieces_held() const { return root_pieces_held_; }
  bool root_edges_held() const { return root_edges_held_; }

 private:
  // Scratch names end in "/<id>_<tag>" (io/temp_manager.h).
  static std::string Tag(const std::string& name) {
    const size_t slash = name.rfind('/');
    const size_t underscore =
        name.find('_', slash == std::string::npos ? 0 : slash + 1);
    return underscore == std::string::npos ? "" : name.substr(underscore + 1);
  }

  Env* base_;
  std::mutex mu_;
  std::string root_pieces_;
  std::string root_edges_;
  bool saw_slab_ = false;
  bool root_pieces_held_ = false;
  bool root_edges_held_ = false;
};

TEST(ExactMaxRSTest, RootReleasesItsSortedInputsBeforeChildrenSolve) {
  // The root routes its sorted piece and edge files into its children's
  // channels and edge files; it must drop both before any child solves, or
  // a run holds its whole input twice while the recursion runs.
  auto objects = testing::RandomIntObjects(400, 160, 21);
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    auto base = NewMemEnv(512);
    RootInputWatchEnv env(*base);
    MaxRSOptions options = SmallExternalOptions();
    options.num_threads = threads;
    auto result = RunExactMaxRS(env, objects, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_GE(result->stats.recursion_levels, 2u) << "must recurse twice";
    ASSERT_TRUE(env.saw_root_inputs());
    ASSERT_TRUE(env.saw_slab());
    EXPECT_FALSE(env.root_pieces_held())
        << "the root's sorted piece file outlived its routing";
    EXPECT_FALSE(env.root_edges_held())
        << "the root's sorted edge file outlived its routing";
    EXPECT_EQ(result->total_weight,
              ExactMaxRSInMemory(objects, options.rect_width,
                                 options.rect_height)
                  .total_weight);
  }
}

TEST(ExactMaxRSTest, DeterministicAcrossRuns) {
  auto objects = testing::RandomIntObjects(1500, 400, 77);
  MaxRSOptions options = SmallExternalOptions();
  auto env1 = NewMemEnv(512);
  auto env2 = NewMemEnv(512);
  auto r1 = RunExactMaxRS(*env1, objects, options);
  auto r2 = RunExactMaxRS(*env2, objects, options);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->total_weight, r2->total_weight);
  EXPECT_EQ(r1->location.x, r2->location.x);
  EXPECT_EQ(r1->location.y, r2->location.y);
  EXPECT_EQ(r1->stats.io.total(), r2->stats.io.total());
}

TEST(ExactMaxRSTest, InMemoryShortcutDoesMinimalIo) {
  auto env = NewMemEnv(512);
  auto objects = testing::RandomIntObjects(100, 100, 9);
  ASSERT_TRUE(WriteDataset(*env, "data", objects).ok());
  env->stats().Reset();
  MaxRSOptions options;
  options.rect_width = 10;
  options.rect_height = 10;
  options.memory_bytes = 1 << 20;  // plenty: base case at the top level
  auto result = RunExactMaxRS(*env, "data", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.base_cases, 1u);
  EXPECT_EQ(result->stats.recursion_levels, 0u);
  // Only the linear dataset read is allowed.
  const uint64_t data_blocks =
      (objects.size() * sizeof(SpatialObject) + 511) / 512 + 1;
  EXPECT_LE(result->stats.io.total(), data_blocks + 2);
}

TEST(ExactMaxRSTest, RegionIsConsistentWithLocationAndWeight) {
  auto env = NewMemEnv(512);
  auto objects = testing::RandomIntObjects(800, 300, 31);
  MaxRSOptions options = SmallExternalOptions();
  auto result = RunExactMaxRS(*env, objects, options);
  ASSERT_TRUE(result.ok());
  // Any point of the reported max-region must achieve the same weight.
  const Rect region = result->region;
  const Point probes[] = {
      result->location,
      {region.x_lo + 1e-9, region.y_lo + 1e-9},
      {(region.x_lo + region.x_hi) / 2, region.y_lo + 1e-9},
  };
  for (const Point& p : probes) {
    const Rect r = Rect::Centered(p, options.rect_width, options.rect_height);
    EXPECT_EQ(CoveredWeight(objects, r), result->total_weight);
  }
}

TEST(ExactMaxRSTest, IoScalesNearLinearly) {
  // Doubling N should not much more than double the I/O (the log factor is
  // tiny): checks the O((N/B) log_{M/B}(N/B)) envelope empirically.
  MaxRSOptions options;
  options.rect_width = 100;
  options.rect_height = 100;
  options.memory_bytes = 1 << 14;  // 32 blocks of 512B
  uint64_t io_small = 0, io_large = 0;
  {
    auto env = NewMemEnv(512);
    auto objects = testing::RandomIntObjects(4000, 100000, 1);
    auto r = RunExactMaxRS(*env, objects, options);
    ASSERT_TRUE(r.ok());
    io_small = r->stats.io.total();
  }
  {
    auto env = NewMemEnv(512);
    auto objects = testing::RandomIntObjects(8000, 200000, 1);
    auto r = RunExactMaxRS(*env, objects, options);
    ASSERT_TRUE(r.ok());
    io_large = r->stats.io.total();
  }
  EXPECT_LT(io_large, 3 * io_small);
  EXPECT_GT(io_large, io_small);
}

bool SameTuple(const SlabTuple& a, const SlabTuple& b) {
  return std::memcmp(&a, &b, sizeof(SlabTuple)) == 0;
}

// A slab solved in one base case streams PlaneSweep's tuples minus every
// tuple whose (x_lo, x_hi, sum) bits repeat its predecessor's: a tuple holds
// until the next one, so a repeat carries nothing. Real weights, narrow
// pieces (most events leave the extremal interval alone), both objectives.
TEST(ExactMaxRSTest, BaseCaseStreamsOnlyTuplesThatChange) {
  const Interval slab{0.0, 100.0};
  size_t swept = 0, dropped = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    std::vector<PieceRecord> pieces;
    for (int i = 0; i < 300; ++i) {
      const double x = rng.Uniform(0.0, 98.0);
      const double y = rng.Uniform(0.0, 200.0);
      pieces.push_back({x, std::min(x + rng.Uniform(0.5, 6.0), slab.hi), y,
                        y + 4.0, rng.Uniform(-2.0, 5.0)});
    }
    std::sort(pieces.begin(), pieces.end(), PieceYLess);
    for (const SweepObjective objective :
         {SweepObjective::kMaximize, SweepObjective::kMinimize}) {
      std::vector<SlabTuple> want;
      for (const SlabTuple& t : PlaneSweep(pieces, slab, objective)) {
        ++swept;
        if (!want.empty() && SameBits(t.x_lo, want.back().x_lo) &&
            SameBits(t.x_hi, want.back().x_hi) &&
            SameBits(t.sum, want.back().sum)) {
          ++dropped;
          continue;
        }
        want.push_back(t);
      }

      auto env = NewMemEnv(512);
      TempFileManager temps(*env);
      RecordChannel<PieceRecord> source(*env, temps.NewName("pieces"),
                                        std::numeric_limits<size_t>::max());
      for (const PieceRecord& p : pieces) ASSERT_TRUE(source.Append(p).ok());
      ASSERT_TRUE(source.Close(Status::OK()).ok());
      MaxRSOptions options;
      options.objective = objective;
      options.memory_bytes = 1 << 14;
      options.base_case_max_pieces = pieces.size();
      std::vector<SlabTuple> got;
      core_internal::VisitingSink sink(
          [&got](const SlabTuple& t) { got.push_back(t); });
      const core_internal::EdgeFileProvider no_edges =
          []() -> Result<std::string> {
        return Status::Internal("a base case reads no edge file");
      };
      MaxRSStats stats;
      ASSERT_TRUE(core_internal::SolveSlabStream(
                      *env, temps, &source, no_edges, [] {}, slab, options,
                      /*channel_bytes=*/0, /*pool=*/nullptr, &stats, &sink)
                      .ok());
      EXPECT_EQ(stats.base_cases, 1u);
      ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(SameTuple(got[i], want[i]))
            << "seed " << seed << " tuple " << i;
      }
    }
  }
  // Not vacuous: a good share of the sweep's tuples were repeats.
  EXPECT_GT(dropped, swept / 4);
}

}  // namespace
}  // namespace maxrs

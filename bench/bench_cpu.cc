// Google-benchmark CPU suite: CPU-level performance of the building
// blocks (segment tree, plane sweep, MergeSweep, CRC32C, record codec,
// streaming k-way merge, external sort, buffer pool, grid index). These are
// engineering benchmarks, not paper figures; the paper's metric (block I/O)
// is covered by the bench_fig* binaries.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "circle/grid_index.h"
#include "core/division.h"
#include "core/exact_maxrs.h"
#include "core/merge_sweep.h"
#include "core/plane_sweep.h"
#include "core/segment_tree.h"
#include "datagen/generators.h"
#include "io/buffer_pool.h"
#include "io/external_sort.h"
#include "io/record_io.h"
#include "io/record_stream.h"
#include "io/temp_manager.h"
#include "util/check.h"
#include "util/crc32c.h"
#include "util/rng.h"

namespace maxrs {
namespace {

void BM_SegmentTreeRangeAdd(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  SegmentTree tree(n);
  Rng rng(1);
  for (auto _ : state) {
    size_t a = rng.UniformU64(n);
    size_t b = a + rng.UniformU64(n - a);
    tree.RangeAdd(a, b, 1.0);
    benchmark::DoNotOptimize(tree.Max());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SegmentTreeRangeAdd)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

// The max-run search over a tree of 1000 random adds. The tree remembers
// its last run and returns it while no add has touched what the search
// read, so each iteration first adds +1 or -1 (alternately) to every leaf:
// an O(1) add at the root that keeps the run where it is but forgets the
// memo, so the row times the search itself, not a memo hit.
void BM_SegmentTreeMaxInterval(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  SegmentTree tree(n);
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    size_t a = rng.UniformU64(n);
    size_t b = a + rng.UniformU64(n - a);
    tree.RangeAdd(a, b, 1.0 + (i % 3));
  }
  double shift = 1.0;
  for (auto _ : state) {
    tree.RangeAdd(0, n - 1, shift);
    shift = -shift;
    benchmark::DoNotOptimize(tree.MaxInterval());
  }
}
BENCHMARK(BM_SegmentTreeMaxInterval)->Arg(1 << 10)->Arg(1 << 20);

void BM_PlaneSweep(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  SyntheticOptions options;
  options.cardinality = n;
  options.domain_size = 1e6;
  auto objects = MakeUniform(options);
  std::vector<PieceRecord> pieces;
  pieces.reserve(n);
  for (const auto& o : objects) {
    pieces.push_back({o.x - 500, o.x + 500, o.y - 500, o.y + 500, o.w});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(PlaneSweep(pieces, Interval{-kInf, kInf}));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PlaneSweep)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// The serve shape: one of 8 equal-count x-slab shards of the UX stand-in
// under a 1000 x 1000 rect, about 2.4k pieces clipped to the finite slab and
// in the y pre-sort's PieceYLess order, as the per-shard base case sees them
// (BM_PlaneSweep's rows are unsorted and span the whole plane).
void BM_PlaneSweepShard(benchmark::State& state) {
  const std::vector<SpatialObject> objects = MakeUxLike();
  std::vector<double> xs;
  for (const SpatialObject& o : objects) xs.push_back(o.x);
  std::sort(xs.begin(), xs.end());
  const Interval slab{xs[xs.size() / 8], xs[xs.size() / 4]};
  std::vector<PieceRecord> pieces;
  for (const SpatialObject& o : objects) {
    PieceRecord p = TransformObject(o, 1000, 1000);
    p.x_lo = std::max(p.x_lo, slab.lo);
    p.x_hi = std::min(p.x_hi, slab.hi);
    if (p.x_lo < p.x_hi) pieces.push_back(p);
  }
  std::sort(pieces.begin(), pieces.end(), PieceYLess);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PlaneSweep(pieces, slab));
  }
  state.counters["pieces"] = static_cast<double>(pieces.size());
  state.SetItemsProcessed(state.iterations() * pieces.size());
}
BENCHMARK(BM_PlaneSweepShard)->Unit(benchmark::kMicrosecond);

// One division level of the one-shot shape (uniform objects in a 1e6
// domain, 1000 x 1000 rectangles) cut into m = range(0) children, whose
// slab-files come from in-memory sweeps; the timed loop merges them the way
// the one-shot root does, reading the child slab-files and feeding the
// answer tracker directly. The object count is fixed, so m = 8 and m = 254
// emit about the same number of tuples and the rows differ mainly in the
// per-event cost of m children.
void BM_MergeSweep(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  SyntheticOptions options;
  options.cardinality = 50000;
  options.domain_size = 1e6;
  std::vector<PieceRecord> pieces;
  std::vector<EdgeRecord> edges;
  for (const auto& o : MakeUniform(options)) {
    pieces.push_back(TransformObject(o, 1000, 1000));
    edges.push_back({pieces.back().x_lo});
    edges.push_back({pieces.back().x_hi});
  }
  std::sort(pieces.begin(), pieces.end(), PieceYLess);
  std::sort(edges.begin(), edges.end(), EdgeXLess);
  auto env = NewMemEnv(4096);
  TempFileManager temps(*env, "bench");
  MAXRS_CHECK_OK(WriteRecordFile(*env, "pieces", pieces));
  MAXRS_CHECK_OK(WriteRecordFile(*env, "edges", edges));
  auto source = FileRecordSource<PieceRecord>::Make(*env, "pieces");
  MAXRS_CHECK(source.ok());
  const std::string span_file = "spans";
  uint64_t num_spans = 0;
  auto division =
      DividePieces(temps, &*source, "edges", Interval{-kInf, kInf}, m,
                   /*channel_bytes=*/0, span_file, &num_spans);
  MAXRS_CHECK(division.ok() && division->size() == m);
  std::vector<std::string> slab_files;
  std::vector<Interval> ranges;
  for (ChildSlab& child : *division) {
    std::vector<PieceRecord> child_pieces;
    PieceRecord p{};
    while (child.pieces->Next(&p)) child_pieces.push_back(p);
    MAXRS_CHECK_OK(child.pieces->final_status());
    slab_files.push_back("slab" + std::to_string(slab_files.size()));
    ranges.push_back(child.x_range);
    MAXRS_CHECK_OK(WriteRecordFile(*env, slab_files.back(),
                                   PlaneSweep(child_pieces, child.x_range)));
  }
  uint64_t tuples = 0;
  for (auto _ : state) {
    std::vector<FileRecordSource<SlabTuple>> files;
    std::vector<RecordSource<SlabTuple>*> children;
    files.reserve(m);
    for (const std::string& name : slab_files) {
      auto file = FileRecordSource<SlabTuple>::Make(*env, name);
      MAXRS_CHECK(file.ok());
      files.push_back(std::move(file).value());
      children.push_back(&files.back());
    }
    core_internal::TopTupleTracker tracker(1);
    tuples = 0;
    core_internal::VisitingSink root([&](const SlabTuple& t) {
      ++tuples;
      tracker.Visit(t);
    });
    MAXRS_CHECK_OK(
        MergeSweep(*env, ranges, children, span_file, &root));
    benchmark::DoNotOptimize(core_internal::BestResult(tracker));
  }
  state.counters["tuples"] = static_cast<double>(tuples);
  // Time per output tuple (an inverted rate prints as seconds).
  state.counters["per_tuple"] = benchmark::Counter(
      static_cast<double>(state.iterations() * tuples),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_MergeSweep)->Arg(8)->Arg(254)->Unit(benchmark::kMillisecond);

/// An in-memory record source over a vector, so the merge row times only
/// the merge.
template <typename T>
class VectorSource final : public RecordSource<T> {
 public:
  explicit VectorSource(const std::vector<T>* records) : records_(records) {}
  Status Read(T* out) override {
    if (next_ == records_->size()) return Status::NotFound("end of stream");
    *out = (*records_)[next_++];
    return Status::OK();
  }

 private:
  const std::vector<T>* records_;
  size_t next_ = 0;
};

// MergingSource per merged record: a range(0)-way PieceYLess merge of
// in-memory y-sorted piece runs, the merge the serve layer runs over
// per-shard piece streams.
void BM_MergingSource(benchmark::State& state) {
  const size_t ways = static_cast<size_t>(state.range(0));
  constexpr size_t kPerSource = 4096;
  Rng rng(9);
  std::vector<std::vector<PieceRecord>> runs(ways);
  for (auto& run : runs) {
    for (size_t i = 0; i < kPerSource; ++i) {
      run.push_back(TransformObject(
          {rng.Uniform(0, 1e6), rng.Uniform(0, 1e6), 1.0}, 1000, 1000));
    }
    std::sort(run.begin(), run.end(), PieceYLess);
  }
  for (auto _ : state) {
    std::vector<VectorSource<PieceRecord>> sources;
    for (const auto& run : runs) sources.emplace_back(&run);
    std::vector<RecordSource<PieceRecord>*> inputs;
    for (auto& source : sources) inputs.push_back(&source);
    MergingSource<PieceRecord, decltype(&PieceYLess)> merged(inputs,
                                                             &PieceYLess);
    PieceRecord p;
    while (merged.Next(&p)) benchmark::DoNotOptimize(p);
    MAXRS_CHECK_OK(merged.final_status());
  }
  // Time per merged record (an inverted rate prints as seconds).
  state.counters["per_record"] = benchmark::Counter(
      static_cast<double>(state.iterations() * ways * kPerSource),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_MergingSource)->Arg(8)->Unit(benchmark::kMicrosecond);

void BM_Crc32c(benchmark::State& state) {
  std::vector<char> block(4096);
  Rng rng(7);
  for (char& c : block) c = static_cast<char>(rng.NextU64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(block.data(), block.size()));
  }
  state.SetBytesProcessed(state.iterations() * block.size());
}
BENCHMARK(BM_Crc32c);

// Exactly `blocks` full 4 KB data blocks of pieces (a record file adds one
// header block).
std::vector<PieceRecord> BlocksOfPieces(size_t blocks) {
  const size_t n = blocks * (4096 / sizeof(PieceRecord));
  Rng rng(8);
  std::vector<PieceRecord> pieces(n);
  for (auto& p : pieces) {
    p = TransformObject({rng.Uniform(0, 1e6), rng.Uniform(0, 1e6), 1.0},
                        1000, 1000);
  }
  return pieces;
}

void BM_RecordEncode(benchmark::State& state) {
  const auto pieces = BlocksOfPieces(static_cast<size_t>(state.range(0)));
  auto env = NewMemEnv(4096);
  for (auto _ : state) {
    MAXRS_CHECK_OK(WriteRecordFile(*env, "pieces", pieces));
  }
  state.SetBytesProcessed(state.iterations() * pieces.size() *
                          sizeof(PieceRecord));
}
BENCHMARK(BM_RecordEncode)->Arg(1)->Arg(256);

void BM_RecordDecode(benchmark::State& state) {
  const auto pieces = BlocksOfPieces(static_cast<size_t>(state.range(0)));
  auto env = NewMemEnv(4096);
  MAXRS_CHECK_OK(WriteRecordFile(*env, "pieces", pieces));
  for (auto _ : state) {
    auto read = ReadRecordFile<PieceRecord>(*env, "pieces");
    MAXRS_CHECK(read.ok());
    benchmark::DoNotOptimize(read.value().data());
  }
  state.SetBytesProcessed(state.iterations() * pieces.size() *
                          sizeof(PieceRecord));
}
BENCHMARK(BM_RecordDecode)->Arg(1)->Arg(256);

void BM_ExactMaxRSInMemory(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  SyntheticOptions options;
  options.cardinality = n;
  options.domain_size = 1e6;
  auto objects = MakeGaussian(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExactMaxRSInMemory(objects, 1000, 1000));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ExactMaxRSInMemory)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_ExternalSort(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto env = NewMemEnv(4096);
  {
    Rng rng(3);
    std::vector<EdgeRecord> records(n);
    for (auto& r : records) r.x = rng.NextDouble();
    MAXRS_CHECK_OK(WriteRecordFile(*env, "in", records));
  }
  int run = 0;
  for (auto _ : state) {
    MAXRS_CHECK_OK((ExternalSort<EdgeRecord>(
        *env, "in", "out" + std::to_string(run++),
        [](const EdgeRecord& a, const EdgeRecord& b) { return a.x < b.x; },
        ExternalSortOptions{256 << 10})));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ExternalSort)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_BufferPoolHit(benchmark::State& state) {
  auto env = NewMemEnv(4096);
  auto file = std::move(env->Create("f")).value();
  std::vector<char> buf(4096);
  for (int b = 0; b < 64; ++b) MAXRS_CHECK_OK(file->WriteBlock(b, buf.data()));
  BufferPool pool(*env, 64 * 4096);
  Rng rng(4);
  for (auto _ : state) {
    auto page = pool.Fetch(*file, rng.UniformU64(64));
    benchmark::DoNotOptimize(page->data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferPoolHit);

void BM_BufferPoolMissEvict(benchmark::State& state) {
  auto env = NewMemEnv(4096);
  auto file = std::move(env->Create("f")).value();
  std::vector<char> buf(4096);
  for (int b = 0; b < 4096; ++b) MAXRS_CHECK_OK(file->WriteBlock(b, buf.data()));
  BufferPool pool(*env, 16 * 4096);  // tiny pool: ~every fetch misses
  Rng rng(5);
  for (auto _ : state) {
    auto page = pool.Fetch(*file, rng.UniformU64(4096));
    benchmark::DoNotOptimize(page->data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferPoolMissEvict);

void BM_GridIndexQuery(benchmark::State& state) {
  SyntheticOptions options;
  options.cardinality = 100000;
  options.domain_size = 1e6;
  auto objects = MakeUniform(options);
  GridIndex grid(objects, 1000.0);
  Rng rng(6);
  for (auto _ : state) {
    const Point c{rng.Uniform(0, 1e6), rng.Uniform(0, 1e6)};
    double sum = 0;
    grid.ForEachWithin(c, 2000.0, [&](const SpatialObject& o) { sum += o.w; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GridIndexQuery);

}  // namespace
}  // namespace maxrs

BENCHMARK_MAIN();

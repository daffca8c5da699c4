// Shared helpers for the test suite.
#ifndef MAXRS_TESTS_TEST_UTIL_H_
#define MAXRS_TESTS_TEST_UTIL_H_

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/merge_sweep.h"
#include "geom/geometry.h"
#include "io/record_stream.h"
#include "serve/dataset_handle.h"
#include "util/rng.h"

namespace maxrs {
namespace testing {

/// Random objects with integer coordinates in [0, extent] and unit weights.
/// Integer coordinates make half-open cover decisions exact, so the sweep
/// and the brute-force oracle agree bit-for-bit.
inline std::vector<SpatialObject> RandomIntObjects(size_t n, uint64_t extent,
                                                   uint64_t seed,
                                                   bool random_weights = false) {
  Rng rng(seed);
  std::vector<SpatialObject> objects;
  objects.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(rng.UniformU64(extent + 1));
    const double y = static_cast<double>(rng.UniformU64(extent + 1));
    const double w =
        random_weights ? static_cast<double>(1 + rng.UniformU64(9)) : 1.0;
    objects.push_back({x, y, w});
  }
  return objects;
}

/// Weight-skewed integer-coordinate set: every third object moves into a
/// heavy strip (x in [4000, 6000], y in [0, 300], weight 50) and the rest
/// stay unit-weight background over [0, 6000]^2. A rect around 200 wide
/// finds its optimum in the strip, far above any background shard's whole
/// weight: the shape on which per-shard weight bounds would skip shards.
inline std::vector<SpatialObject> SkewedIntObjects(size_t n, uint64_t seed) {
  std::vector<SpatialObject> objects = RandomIntObjects(n, 6000, seed);
  for (size_t i = 0; i < objects.size(); i += 3) {
    objects[i].x = 4000.0 + std::floor(objects[i].x / 3.0);
    objects[i].y = std::floor(objects[i].y / 20.0);
    objects[i].w = 50.0;
  }
  return objects;
}

/// MergeSweep over child slab-files into the slab-file `out` — the file
/// schedule of an inner recursion node. An empty name is a known-empty
/// (null) child.
inline Status MergeSlabFiles(
    Env& env, const std::vector<Interval>& ranges,
    const std::vector<std::string>& child_files, const std::string& span_file,
    const std::string& out,
    SweepObjective objective = SweepObjective::kMaximize) {
  std::vector<std::unique_ptr<FileRecordSource<SlabTuple>>> files;
  std::vector<RecordSource<SlabTuple>*> children;
  for (const std::string& name : child_files) {
    if (name.empty()) {
      children.push_back(nullptr);
      continue;
    }
    MAXRS_ASSIGN_OR_RETURN(FileRecordSource<SlabTuple> file,
                           FileRecordSource<SlabTuple>::Make(env, name));
    files.push_back(
        std::make_unique<FileRecordSource<SlabTuple>>(std::move(file)));
    children.push_back(files.back().get());
  }
  MAXRS_ASSIGN_OR_RETURN(FileRecordSink<SlabTuple> sink,
                         FileRecordSink<SlabTuple>::Make(env, out));
  return sink.Close(
      MergeSweep(env, ranges, children, span_file, &sink, objective));
}

/// Re-opens the dataset ingested under `handle.prefix()` after deleting its
/// aggregate-index file. The returned handle has agg_index() == nullptr;
/// `handle` keeps the index it already loaded.
inline Result<DatasetHandle> ReopenWithoutIndex(Env& env,
                                                const DatasetHandle& handle) {
  Status deleted = env.Delete(handle.prefix() + "/agg_index");
  if (!deleted.ok() && deleted.code() != Status::Code::kNotFound) {
    return deleted;
  }
  return DatasetHandle::Open(env, handle.prefix());
}

}  // namespace testing
}  // namespace maxrs

#endif  // MAXRS_TESTS_TEST_UTIL_H_

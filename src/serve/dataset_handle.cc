#include "serve/dataset_handle.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "io/external_sort.h"
#include "io/record_io.h"
#include "io/temp_manager.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace maxrs {
namespace {

// Version 2 added the two dataset-extent entries (kinds 2 and 3); version 3
// added the aggregate-index descriptor (kind 4) plus the index file it
// names. Version-1 manifests remain readable and simply carry no bounds;
// version-2 manifests remain readable and simply carry no index.
constexpr uint64_t kManifestFormatVersion = 3;
constexpr size_t kMaxShards = 64;
// Derived sharding aims at this many objects per shard: big enough that the
// per-shard stream overhead (one reader/writer block pair per shard) is
// noise, small enough that shard transforms parallelize on real datasets.
constexpr uint64_t kObjectsPerDerivedShard = 64 * 1024;

std::string ManifestName(const std::string& prefix) {
  return prefix + "/manifest";
}

// The manifest is assembled here and atomically Rename()d into place once
// complete, so a crash mid-ingest leaves at worst this orphan — never a
// partial manifest under the published name.
std::string TempManifestName(const std::string& prefix) {
  return prefix + "/manifest.tmp";
}

std::string AggIndexName(const std::string& prefix) {
  return prefix + "/agg_index";
}

std::string ShardYName(const std::string& prefix, size_t index) {
  return prefix + "/shard_" + std::to_string(index) + "_y";
}

std::string ShardXName(const std::string& prefix, size_t index) {
  return prefix + "/shard_" + std::to_string(index) + "_x";
}

size_t DeriveShardCount(uint64_t num_objects, const DatasetHandleOptions& options,
                        size_t block_size) {
  size_t requested = options.shard_count;
  if (requested == 0) {
    requested = static_cast<size_t>(
        std::max<uint64_t>(1, num_objects / kObjectsPerDerivedShard));
  }
  // The y-routing pass holds one writer block per shard, so the shard count
  // must fit the ingest memory budget's M/B - 1 stream blocks — the same
  // fan-in discipline the external sort obeys. (blocks can be 0 for a
  // sub-block budget; guard the subtraction.)
  const size_t blocks = options.memory_bytes / block_size;
  const size_t memory_cap = blocks > 1 ? blocks - 1 : 1;
  return std::min(std::min<size_t>(std::max<size_t>(1, requested), kMaxShards),
                  memory_cap);
}

// The sort + cut + route pipeline of Ingest; fills `shards` (including the
// on-disk files) and writes the manifest. On failure the caller deletes
// whatever shard files were already created.
Status IngestInto(Env& env, const std::string& object_file,
                  const DatasetHandleOptions& options, uint64_t num_objects,
                  std::vector<ShardInfo>* shards, Rect* bounds,
                  std::vector<ShardAgg>* aggs) {
  const std::string& prefix = options.prefix;
  TempFileManager temps(env, prefix + "_ingest");
  const std::string y_sorted = temps.NewName("objects_y");
  const std::string x_sorted = temps.NewName("objects_x");

  auto body = [&]() -> Status {
    // The two rectangle-independent object sorts — the last external sorts
    // this dataset will ever need. They touch disjoint files, so with a
    // pool they run concurrently and each parallelizes internally.
    std::unique_ptr<ThreadPool> pool;
    if (options.num_threads > 1) {
      pool = std::make_unique<ThreadPool>(options.num_threads);
    }
    ExternalSortOptions sort_options{options.memory_bytes, pool.get()};
    {
      TaskGroup sorts(pool.get());
      sorts.Run([&] {
        return ExternalSort<SpatialObject>(env, object_file, y_sorted,
                                           ObjectYLess, sort_options);
      });
      sorts.Run([&] {
        return ExternalSort<SpatialObject>(env, object_file, x_sorted,
                                           ObjectXLess, sort_options);
      });
      MAXRS_RETURN_IF_ERROR(sorts.Wait());
    }

    // Cut the x-sorted stream into up to `requested` equal-count shards.
    // Cuts happen only where the x value changes, so objects with equal x
    // never straddle a boundary and routing by slab is exact.
    const size_t requested =
        DeriveShardCount(num_objects, options, env.block_size());
    const uint64_t target = (num_objects + requested - 1) / requested;
    std::optional<RecordWriter<SpatialObject>> x_writer;
    auto open_shard = [&](double lo_bound) -> Status {
      ShardInfo info;
      info.x_range = Interval{lo_bound, kInf};
      info.y_file = ShardYName(prefix, shards->size());
      info.x_file = ShardXName(prefix, shards->size());
      MAXRS_ASSIGN_OR_RETURN(
          RecordWriter<SpatialObject> writer,
          RecordWriter<SpatialObject>::Make(env, info.x_file));
      x_writer = std::move(writer);
      shards->push_back(std::move(info));
      aggs->push_back(ShardAgg{});
      return Status::OK();
    };
    {
      MAXRS_ASSIGN_OR_RETURN(RecordReader<SpatialObject> reader,
                             RecordReader<SpatialObject>::Make(env, x_sorted));
      MAXRS_RETURN_IF_ERROR(open_shard(-kInf));
      SpatialObject o{};
      double prev_x = 0.0;
      bool any = false;
      while (reader.Next(&o)) {
        if (any && shards->back().num_objects >= target &&
            shards->size() < requested &&
            DoubleOrderKey(o.x) != DoubleOrderKey(prev_x)) {
          MAXRS_RETURN_IF_ERROR(x_writer->Finish());
          shards->back().x_range.hi = o.x;
          MAXRS_RETURN_IF_ERROR(open_shard(o.x));
        }
        MAXRS_RETURN_IF_ERROR(x_writer->Append(o));
        ++shards->back().num_objects;
        // The cut pass sees every object exactly once, in x order — the
        // natural place to accumulate the per-shard aggregates the index
        // persists (MBR, count, total and minimum weight).
        aggs->back().Add(o);
        if (!any) bounds->x_lo = o.x;  // x-sorted stream: first = min x
        prev_x = o.x;
        any = true;
      }
      MAXRS_RETURN_IF_ERROR(reader.final_status());
      MAXRS_RETURN_IF_ERROR(x_writer->Finish());
      if (any) bounds->x_hi = prev_x;  // ... and last = max x
    }

    // Route the y-sorted stream into per-shard y files. Appends preserve
    // stream order, so each shard file stays ObjectYLess-sorted.
    {
      std::vector<uint64_t> boundary_keys;  // lower bound of shard i >= 1
      for (size_t i = 1; i < shards->size(); ++i) {
        boundary_keys.push_back(DoubleOrderKey((*shards)[i].x_range.lo));
      }
      std::vector<RecordWriter<SpatialObject>> y_writers;
      y_writers.reserve(shards->size());
      for (const ShardInfo& info : *shards) {
        MAXRS_ASSIGN_OR_RETURN(
            RecordWriter<SpatialObject> writer,
            RecordWriter<SpatialObject>::Make(env, info.y_file));
        y_writers.push_back(std::move(writer));
      }
      MAXRS_ASSIGN_OR_RETURN(RecordReader<SpatialObject> reader,
                             RecordReader<SpatialObject>::Make(env, y_sorted));
      SpatialObject o{};
      bool any = false;
      while (reader.Next(&o)) {
        const uint64_t key = DoubleOrderKey(o.x);
        const size_t shard = static_cast<size_t>(
            std::upper_bound(boundary_keys.begin(), boundary_keys.end(), key) -
            boundary_keys.begin());
        MAXRS_RETURN_IF_ERROR(y_writers[shard].Append(o));
        if (!any) bounds->y_lo = o.y;  // y-sorted stream: first = min y
        bounds->y_hi = o.y;            // ... and last = max y
        any = true;
      }
      MAXRS_RETURN_IF_ERROR(reader.final_status());
      for (size_t i = 0; i < y_writers.size(); ++i) {
        MAXRS_RETURN_IF_ERROR(y_writers[i].Finish());
        if (y_writers[i].count() != (*shards)[i].num_objects) {
          return Status::Internal("shard routing mismatch: y/x counts differ");
        }
      }
    }

    // The aggregate index is written (and Finish()ed) *before* the
    // manifest that describes it, so a published manifest never names a
    // missing index — a crash in between leaves an orphan index file under
    // an unpublished prefix, which Drop and re-ingest both clean up.
    MAXRS_RETURN_IF_ERROR(ShardAggIndex::Write(env, AggIndexName(prefix), *aggs));

    // The manifest is the commit point: a dataset without one is invisible
    // to Open and treated as a failed ingest. It is written under a temp
    // name and published by an atomic Rename once fully Finish()ed, so no
    // observer (and no crash) can ever see a half-written manifest under
    // the published name — a torn ingest leaves only the orphan .tmp.
    MAXRS_ASSIGN_OR_RETURN(
        RecordWriter<ShardManifestRecord> manifest,
        RecordWriter<ShardManifestRecord>::Make(env, TempManifestName(prefix)));
    MAXRS_RETURN_IF_ERROR(manifest.Append(
        ShardManifestRecord{0, kManifestFormatVersion, num_objects, 0.0, 0.0}));
    if (num_objects > 0) {
      MAXRS_RETURN_IF_ERROR(manifest.Append(
          ShardManifestRecord{2, 0, 0, bounds->x_lo, bounds->x_hi}));
      MAXRS_RETURN_IF_ERROR(manifest.Append(
          ShardManifestRecord{3, 0, 0, bounds->y_lo, bounds->y_hi}));
    }
    MAXRS_RETURN_IF_ERROR(manifest.Append(ShardManifestRecord{
        4, kShardAggFormatVersion, shards->size(), 0.0, 0.0}));
    for (size_t i = 0; i < shards->size(); ++i) {
      const ShardInfo& info = (*shards)[i];
      MAXRS_RETURN_IF_ERROR(manifest.Append(ShardManifestRecord{
          1, i, info.num_objects, info.x_range.lo, info.x_range.hi}));
    }
    MAXRS_RETURN_IF_ERROR(manifest.Finish());
    return env.Rename(TempManifestName(prefix), ManifestName(prefix));
  };

  Status st = body();
  temps.Release(y_sorted);
  temps.Release(x_sorted);
  return st;
}

}  // namespace

Result<DatasetHandle> DatasetHandle::Ingest(Env& env,
                                            const std::string& object_file,
                                            const DatasetHandleOptions& options) {
  if (options.prefix.empty()) {
    return Status::InvalidArgument("dataset prefix must not be empty");
  }
  // Same unit-mix-up guard as the core layer (exact_maxrs.cc): a thread
  // count beyond 1024 is bytes-passed-as-threads, not a real machine.
  if (options.num_threads > 1024) {
    return Status::InvalidArgument("num_threads must be at most 1024");
  }
  if (env.Exists(ManifestName(options.prefix))) {
    return Status::InvalidArgument(
        "a dataset already exists under prefix '" + options.prefix +
        "'; datasets are immutable — Drop() it or pick a fresh prefix");
  }
  Stopwatch timer;
  const IoStatsSnapshot io_before = env.stats().Snapshot();

  uint64_t num_objects = 0;
  {
    MAXRS_ASSIGN_OR_RETURN(RecordReader<SpatialObject> probe,
                           RecordReader<SpatialObject>::Make(env, object_file));
    num_objects = probe.total();
  }

  DatasetHandle handle;
  handle.env_ = &env;
  handle.prefix_ = options.prefix;
  handle.num_objects_ = num_objects;
  handle.has_bounds_ = num_objects > 0;
  std::vector<ShardAgg> aggs;
  Status st = IngestInto(env, object_file, options, num_objects,
                         &handle.shards_, &handle.bounds_, &aggs);
  if (!st.ok()) {
    // Roll back partially written shard files AND a partially written
    // temp manifest (Create happens before the appends, so the file can
    // exist without being valid). The published name needs no rollback —
    // only a fully Finish()ed manifest is ever Rename()d onto it.
    for (const ShardInfo& info : handle.shards_) {
      Status ignored = env.Delete(info.y_file);
      ignored = env.Delete(info.x_file);
      (void)ignored;
    }
    Status ignored = env.Delete(TempManifestName(options.prefix));
    ignored = env.Delete(AggIndexName(options.prefix));
    (void)ignored;
    return st;
  }
  // The in-memory index is built straight from the aggregates just
  // computed — no counted read-back of the file that was just written.
  handle.agg_index_ = std::make_shared<ShardAggIndex>(std::move(aggs));
  handle.ingest_stats_.io = env.stats().Snapshot() - io_before;
  handle.ingest_stats_.wall_seconds = timer.ElapsedSeconds();
  handle.ComputeShardGeometry();
  return handle;
}

Result<DatasetHandle> DatasetHandle::Open(Env& env, const std::string& prefix) {
  MAXRS_ASSIGN_OR_RETURN(
      std::vector<ShardManifestRecord> records,
      ReadRecordFile<ShardManifestRecord>(env, ManifestName(prefix)));
  if (records.empty() || records[0].kind != 0) {
    return Status::Corruption("manifest of '" + prefix + "' has no header");
  }
  if (records[0].index < 1 || records[0].index > kManifestFormatVersion) {
    return Status::NotSupported("manifest format version " +
                                std::to_string(records[0].index) +
                                " is not supported");
  }
  DatasetHandle handle;
  handle.env_ = &env;
  handle.prefix_ = prefix;
  handle.num_objects_ = records[0].count;

  uint64_t total = 0;
  bool have_x_extent = false, have_y_extent = false;
  bool have_index_descriptor = false;
  uint64_t index_version = 0, index_shards = 0;
  for (size_t i = 1; i < records.size(); ++i) {
    const ShardManifestRecord& r = records[i];
    if (r.kind == 4) {
      have_index_descriptor = true;
      index_version = r.index;
      index_shards = r.count;
      continue;
    }
    if (r.kind == 2) {
      handle.bounds_.x_lo = r.x_lo;
      handle.bounds_.x_hi = r.x_hi;
      have_x_extent = true;
      continue;
    }
    if (r.kind == 3) {
      handle.bounds_.y_lo = r.x_lo;
      handle.bounds_.y_hi = r.x_hi;
      have_y_extent = true;
      continue;
    }
    if (r.kind != 1 || r.index != handle.shards_.size()) {
      return Status::Corruption("manifest of '" + prefix +
                                "' has out-of-order shard entries");
    }
    ShardInfo info;
    info.x_range = Interval{r.x_lo, r.x_hi};
    info.num_objects = r.count;
    info.y_file = ShardYName(prefix, handle.shards_.size());
    info.x_file = ShardXName(prefix, handle.shards_.size());
    if (!env.Exists(info.y_file) || !env.Exists(info.x_file)) {
      return Status::Corruption("manifest of '" + prefix +
                                "' references missing shard files");
    }
    total += r.count;
    handle.shards_.push_back(std::move(info));
  }
  handle.has_bounds_ = have_x_extent && have_y_extent;
  if (handle.shards_.empty() || total != handle.num_objects_) {
    return Status::Corruption("manifest of '" + prefix +
                              "' is inconsistent with its shard counts");
  }
  if (have_index_descriptor) {
    // A promised aggregate index that fails to open or validate degrades
    // the handle, never the dataset: the handle opens with a null index
    // and records why in index_status(). The server's execution never
    // reads the index, and the shard files alone are the truth.
    handle.index_status_ = [&]() -> Status {
      if (index_version != kShardAggFormatVersion) {
        return Status::NotSupported("aggregate index format version " +
                                    std::to_string(index_version) +
                                    " is not supported");
      }
      auto index_or = ShardAggIndex::Open(env, AggIndexName(prefix));
      if (!index_or.ok()) return index_or.status();
      if (index_or->num_shards() != handle.shards_.size() ||
          index_or->num_shards() != index_shards ||
          index_or->total_count() != handle.num_objects_) {
        return Status::Corruption(
            "aggregate index of '" + prefix +
            "' is inconsistent with the manifest's shard layout");
      }
      for (size_t i = 0; i < handle.shards_.size(); ++i) {
        if (index_or->shard(i).count != handle.shards_[i].num_objects) {
          return Status::Corruption("aggregate index of '" + prefix +
                                    "' disagrees with shard " +
                                    std::to_string(i) + "'s object count");
        }
      }
      handle.agg_index_ =
          std::make_shared<ShardAggIndex>(std::move(index_or).value());
      return Status::OK();
    }();
  }
  handle.ComputeShardGeometry();
  return handle;
}

void DatasetHandle::ComputeShardGeometry() {
  interior_bounds_.clear();
  slab_ranges_.clear();
  if (shards_.empty()) return;
  interior_bounds_.reserve(shards_.size() - 1);
  slab_ranges_.reserve(shards_.size());
  for (size_t k = 0; k < shards_.size(); ++k) {
    if (k > 0) interior_bounds_.push_back(shards_[k].x_range.lo);
    slab_ranges_.push_back(shards_[k].x_range);
  }
}

Status DatasetHandle::Drop() {
  if (env_ == nullptr) return Status::OK();
  Status first;
  auto note = [&first](Status st) {
    if (!st.ok() && st.code() != Status::Code::kNotFound && first.ok()) {
      first = st;
    }
  };
  for (const ShardInfo& info : shards_) {
    note(env_->Delete(info.y_file));
    note(env_->Delete(info.x_file));
  }
  note(env_->Delete(ManifestName(prefix_)));
  note(env_->Delete(AggIndexName(prefix_)));
  // A crashed ingest may have left an unpublished temp manifest behind.
  note(env_->Delete(TempManifestName(prefix_)));
  agg_index_.reset();
  shards_.clear();
  num_objects_ = 0;
  has_bounds_ = false;
  return first;
}

}  // namespace maxrs

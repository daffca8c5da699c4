#include "core/extensions.h"

#include <algorithm>
#include <optional>

#include "core/plane_sweep.h"
#include "core/records.h"
#include "io/record_io.h"
#include "io/temp_manager.h"
#include "util/stopwatch.h"

namespace maxrs {

Result<std::vector<RankedRegion>> RunTopKMaxRS(Env& env,
                                               const std::string& object_file,
                                               const MaxRSOptions& options,
                                               size_t k, MaxRSStats* stats) {
  Stopwatch timer;
  const IoStatsSnapshot io_before = env.stats().Snapshot();
  MaxRSStats local_stats;
  core_internal::TopTupleTracker tracker(k);
  MAXRS_RETURN_IF_ERROR(core_internal::VisitRootTuples(
      env, object_file, options, &local_stats,
      [&tracker](const SlabTuple& t) { tracker.Visit(t); }));
  local_stats.io = env.stats().Snapshot() - io_before;
  local_stats.wall_seconds = timer.ElapsedSeconds();
  if (stats != nullptr) *stats = local_stats;
  return {tracker.Finish()};
}

std::vector<RankedRegion> TopKMaxRSInMemory(
    const std::vector<SpatialObject>& objects, double rect_width,
    double rect_height, size_t k) {
  std::vector<PieceRecord> pieces;
  pieces.reserve(objects.size());
  for (const SpatialObject& o : objects) {
    pieces.push_back(PieceRecord{o.x - rect_width / 2.0, o.x + rect_width / 2.0,
                                 o.y - rect_height / 2.0,
                                 o.y + rect_height / 2.0, o.w});
  }
  core_internal::TopTupleTracker tracker(k);
  for (const SlabTuple& t : PlaneSweep(pieces, Interval{-kInf, kInf})) {
    tracker.Visit(t);
  }
  return tracker.Finish();
}

namespace {

/// Streaming minimum-stratum tracker restricted to a y-window: tuples whose
/// stratum misses [window_lo, window_hi) are skipped, partially covered
/// strata are clamped. Mirrors TopTupleTracker for the min objective,
/// coalescing of repeated tuples included: the external pipeline forwards
/// only tuples that change (exact_maxrs.h, TopTupleTracker), so a stratum
/// must end where the min-interval changes for RunMinRS and MinRSInMemory
/// to report one region.
class MinTupleTracker {
 public:
  MinTupleTracker(double window_lo, double window_hi)
      : window_lo_(window_lo), window_hi_(window_hi) {}

  void Visit(const SlabTuple& t) {
    if (have_pending_ && t.sum == pending_.sum && t.x_lo == pending_.x_lo &&
        t.x_hi == pending_.x_hi) {
      return;
    }
    if (have_pending_) Offer(pending_, t.y);
    pending_ = t;
    have_pending_ = true;
  }

  /// Returns the best (minimum) region, or nullopt if no stratum
  /// intersected the window.
  std::optional<RankedRegion> Finish() {
    if (have_pending_) {
      Offer(pending_, kInf);
      have_pending_ = false;
    }
    return best_;
  }

 private:
  void Offer(const SlabTuple& t, double y_next) {
    const double lo = std::max(t.y, window_lo_);
    const double hi = std::min(y_next, window_hi_);
    if (lo >= hi) return;
    if (!best_.has_value() || t.sum < best_->total_weight) {
      RankedRegion region;
      region.total_weight = t.sum;
      region.region = Rect{t.x_lo, t.x_hi, lo, hi};
      region.location = {(t.x_lo + t.x_hi) / 2.0, (lo + hi) / 2.0};
      best_ = region;
    }
  }

  double window_lo_;
  double window_hi_;
  std::optional<RankedRegion> best_;
  SlabTuple pending_{};
  bool have_pending_ = false;
};

}  // namespace

Result<MaxRSResult> RunMinRS(Env& env, const std::string& object_file,
                             const MaxRSOptions& options) {
  Stopwatch timer;
  const IoStatsSnapshot io_before = env.stats().Snapshot();
  MaxRSOptions min_options = options;
  min_options.objective = SweepObjective::kMinimize;

  // The pipeline restricts placements to the bounding box in x; the tracker
  // applies the same restriction in y using the domain reported in stats,
  // which is populated before the first tuple is visited.
  MaxRSStats stats;
  std::optional<MinTupleTracker> tracker;
  Status st = core_internal::VisitRootTuples(
      env, object_file, min_options, &stats, [&](const SlabTuple& t) {
        if (!tracker.has_value()) {
          tracker.emplace(stats.domain.y_lo, stats.domain.y_hi);
        }
        tracker->Visit(t);
      });
  MAXRS_RETURN_IF_ERROR(st);

  MaxRSResult result;
  std::optional<RankedRegion> best =
      tracker.has_value() ? tracker->Finish() : std::nullopt;
  if (best.has_value()) {
    result.location = best->location;
    result.total_weight = best->total_weight;
    result.region = best->region;
  } else {
    result.region = Rect{-kInf, kInf, -kInf, kInf};
  }
  stats.io = env.stats().Snapshot() - io_before;
  stats.wall_seconds = timer.ElapsedSeconds();
  result.stats = stats;
  return {std::move(result)};
}

Result<std::vector<RankedRegion>> RunGreedyKMaxRS(Env& env,
                                                  const std::string& object_file,
                                                  const MaxRSOptions& options,
                                                  size_t k, MaxRSStats* stats) {
  Stopwatch timer;
  const IoStatsSnapshot io_before = env.stats().Snapshot();
  MaxRSStats local_stats;
  TempFileManager temps(env, options.work_prefix);

  std::vector<RankedRegion> placements;
  std::string current = object_file;
  bool current_is_temp = false;
  for (size_t round = 0; round < k; ++round) {
    auto result_or = RunExactMaxRS(env, current, options);
    if (!result_or.ok()) {
      if (current_is_temp) temps.Release(current);
      return {result_or.status()};
    }
    const MaxRSResult& result = *result_or;
    local_stats.input_objects =
        std::max(local_stats.input_objects, result.stats.input_objects);
    local_stats.recursion_levels =
        std::max(local_stats.recursion_levels, result.stats.recursion_levels);
    if (result.total_weight <= 0.0) break;  // nothing left worth covering
    placements.push_back(
        RankedRegion{result.location, result.total_weight, result.region});
    if (round + 1 == k) break;

    // Filter out the objects served by this placement (one linear pass).
    const Rect served = Rect::Centered(result.location, options.rect_width,
                                       options.rect_height);
    std::string next = temps.NewName("greedy_rest");
    {
      auto reader_or = RecordReader<SpatialObject>::Make(env, current);
      if (!reader_or.ok()) return {reader_or.status()};
      auto writer_or = RecordWriter<SpatialObject>::Make(env, next);
      if (!writer_or.ok()) return {writer_or.status()};
      SpatialObject o{};
      while (reader_or->Next(&o)) {
        if (!served.Contains(o)) {
          MAXRS_RETURN_IF_ERROR(writer_or->Append(o));
        }
      }
      MAXRS_RETURN_IF_ERROR(reader_or->final_status());
      MAXRS_RETURN_IF_ERROR(writer_or->Finish());
    }
    if (current_is_temp) temps.Release(current);
    current = std::move(next);
    current_is_temp = true;
  }
  if (current_is_temp) temps.Release(current);

  local_stats.io = env.stats().Snapshot() - io_before;
  local_stats.wall_seconds = timer.ElapsedSeconds();
  if (stats != nullptr) *stats = local_stats;
  return {std::move(placements)};
}

std::vector<RankedRegion> GreedyKMaxRSInMemory(std::vector<SpatialObject> objects,
                                               double rect_width,
                                               double rect_height, size_t k) {
  std::vector<RankedRegion> placements;
  for (size_t round = 0; round < k && !objects.empty(); ++round) {
    const MaxRSResult result =
        ExactMaxRSInMemory(objects, rect_width, rect_height);
    if (result.total_weight <= 0.0) break;
    placements.push_back(
        RankedRegion{result.location, result.total_weight, result.region});
    const Rect served = Rect::Centered(result.location, rect_width, rect_height);
    objects.erase(
        std::remove_if(
            objects.begin(), objects.end(),
            [&served](const SpatialObject& o) { return served.Contains(o); }),
        objects.end());
  }
  return placements;
}

MaxRSResult MinRSInMemory(const std::vector<SpatialObject>& objects,
                          double rect_width, double rect_height) {
  MaxRSResult result;
  result.stats.input_objects = objects.size();
  if (objects.empty()) {
    result.region = Rect{-kInf, kInf, -kInf, kInf};
    return result;
  }
  Rect box = BoundingBox(objects);
  if (box.x_lo == box.x_hi) box.x_hi = box.x_lo + 1.0;
  if (box.y_lo == box.y_hi) box.y_hi = box.y_lo + 1.0;
  result.stats.domain = box;

  std::vector<PieceRecord> pieces;
  pieces.reserve(objects.size());
  for (const SpatialObject& o : objects) {
    PieceRecord p{o.x - rect_width / 2.0, o.x + rect_width / 2.0,
                  o.y - rect_height / 2.0, o.y + rect_height / 2.0, o.w};
    p.x_lo = std::max(p.x_lo, box.x_lo);
    p.x_hi = std::min(p.x_hi, box.x_hi);
    if (p.x_lo < p.x_hi) pieces.push_back(p);
  }
  MinTupleTracker tracker(box.y_lo, box.y_hi);
  for (const SlabTuple& t : PlaneSweep(pieces, Interval{box.x_lo, box.x_hi},
                                       SweepObjective::kMinimize)) {
    tracker.Visit(t);
  }
  std::optional<RankedRegion> best = tracker.Finish();
  if (best.has_value()) {
    result.location = best->location;
    result.total_weight = best->total_weight;
    result.region = best->region;
  } else {
    result.region = Rect{-kInf, kInf, -kInf, kInf};
  }
  result.stats.base_cases = 1;
  return result;
}

}  // namespace maxrs

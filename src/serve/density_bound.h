// DensityBound: the serve layer's exact object filter. A G x G summed-area
// table (SAT: a 2-D prefix sum of integer weights per grid cell) over the
// dataset's bounding box bounds, for every object o, what any placement
// covering o can weigh: every object such a placement also covers has its
// piece meet o's, so it lies in the window [o.x - w, o.x + w] x
// [o.y - h, o.y + h], and Bound(o) sums the cells that window meets.
//
// A query first computes a threshold tau, the exact answer over a small
// resident probe set (the objects of the densest 3 x 3-cell windows). The
// probe is a subset of the data and weights are non-negative, so tau is the
// weight of a real placement and tau <= the optimum. Dropping every object
// whose bound is below tau then lowers only placements that were already
// below tau: every optimal placement keeps all of its objects, so the
// answer (weight, location and region) is unchanged — the grid is only
// ever a bound, never the answer ("Aggregated 2D Range Queries on
// Clustered Points", PAPERS.md).
//
// The state is derived, never persisted: DatasetHandle builds it from one
// pair of scans over the shard y-files, at Ingest and at Open. It exists
// only when every weight is a finite non-negative integer, every coordinate
// is finite and the total weight fits in uint32_t — then SAT differences
// and the double tau are exact, with no error term. docs/ARCHITECTURE.md
// ("Threshold filter") has the design, docs/IO_MODEL.md its costs.
#ifndef MAXRS_SERVE_DENSITY_BOUND_H_
#define MAXRS_SERVE_DENSITY_BOUND_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "geom/geometry.h"
#include "io/env.h"
#include "util/status.h"

namespace maxrs {

/// The SAT and the probe set of one dataset. Immutable once built, so every
/// query worker reads it concurrently without locks.
class DensityBound {
 public:
  /// Grid cells per side: (G + 1)^2 x 4 bytes = 264 KB of table.
  static constexpr uint32_t kGrid = 256;
  /// The densest 3 x 3-cell windows whose objects form the probe set.
  static constexpr size_t kProbeWindows = 64;
  /// Cap on the probe set; keeping only a prefix is still a subset.
  static constexpr size_t kMaxProbeObjects = 4096;

  /// Scans the SpatialObject record files `y_files` (the shard y-files)
  /// twice: once to fill the table, once to collect the probe set.
  /// `bounds` is the dataset's bounding box. Returns nullptr when the
  /// dataset is not eligible (a fractional, negative or non-finite weight,
  /// a non-finite coordinate, or a total above UINT32_MAX); an error only
  /// when a scan fails.
  static Result<std::shared_ptr<const DensityBound>> Build(
      Env& env, const std::vector<std::string>& y_files, const Rect& bounds);

  /// The threshold of one query: the exact best weight over the probe set
  /// for a rect_width x rect_height rect. Never above the optimum.
  double Threshold(double rect_width, double rect_height) const;

  /// The SAT sum over the cells that meet the window of every object whose
  /// piece can meet o's piece, [x - w, x + w] x [y - h, y + h] computed from
  /// the piece edges the sweep compares and rounded outward. Never below
  /// the weight of any placement that covers o.
  uint32_t Bound(const SpatialObject& o, double rect_width,
                 double rect_height) const {
    const double hw = rect_width / 2.0;
    const double hh = rect_height / 2.0;
    // Piece edges exactly as TransformObject computes them; the margins
    // cover the rounding of the sweep's sums and of these subtractions.
    const double mx = (abs_x_ + rect_width) * kMargin + kTiny;
    const double my = (abs_y_ + rect_height) * kMargin + kTiny;
    const uint32_t c0 = CellX(((o.x - hw) - hw) - mx);
    const uint32_t c1 = CellX(((o.x + hw) + hw) + mx) + 1;
    const uint32_t r0 = CellY(((o.y - hh) - hh) - my);
    const uint32_t r1 = CellY(((o.y + hh) + hh) + my) + 1;
    // Unsigned wrap-around is exact: every prefix sum is at most the total,
    // which fits in uint32_t, and so does the window's true sum.
    return sat_[r1 * kStride + c1] - sat_[r0 * kStride + c1] -
           sat_[r1 * kStride + c0] + sat_[r0 * kStride + c0];
  }

  /// The probe set, in y-file scan order.
  const std::vector<SpatialObject>& probe() const { return probe_; }

  /// Total weight of the dataset (the whole table's sum).
  uint32_t total_weight() const { return sat_[kStride * kStride - 1]; }

 private:
  static constexpr uint32_t kStride = kGrid + 1;
  static constexpr size_t kTableBytes =
      sizeof(uint32_t) * static_cast<size_t>(kStride) * kStride;
  // Relative margin of the outward rounding: about 8000 units in the last
  // place of the largest magnitude involved, far above the few the
  // subtractions and the sweep's additions can lose.
  static constexpr double kMargin = 0x1p-40;
  // Absolute floor of the margin for subnormal magnitudes.
  static constexpr double kTiny = std::numeric_limits<double>::min();

  DensityBound() = default;

  // The cell of a coordinate: a monotone non-decreasing map of the double
  // onto [0, kGrid), so a window edge at or below an object's coordinate
  // maps at or below the object's cell. NaN cannot reach it (the edges are
  // sums of finite values and same-signed infinities).
  static uint32_t Cell(double v, double origin, double scale) {
    const double c = (v - origin) * scale;
    if (!(c > 0.0)) return 0;
    if (c >= static_cast<double>(kGrid)) return kGrid - 1;
    return static_cast<uint32_t>(c);
  }
  uint32_t CellX(double x) const { return Cell(x, x0_, sx_); }
  uint32_t CellY(double y) const { return Cell(y, y0_, sy_); }

  double x0_ = 0.0, y0_ = 0.0;        // the bounding box's low corner
  double sx_ = 0.0, sy_ = 0.0;        // cells per unit (0: zero extent)
  double abs_x_ = 0.0, abs_y_ = 0.0;  // largest |coordinate| per axis

  // Unmaps the table (see Build for why it is mapped, not allocated).
  struct Unmap {
    void operator()(uint32_t* table) const;
  };

  // (kGrid + 1)^2 prefix sums: sat_[r * kStride + c] is the weight of the
  // cells in rows < r and columns < c.
  std::unique_ptr<uint32_t[], Unmap> sat_;
  std::vector<SpatialObject> probe_;
};

/// The per-query object predicate of the routing scans: keeps o iff
/// Bound(o) >= tau. A default-constructed filter (no DensityBound) keeps
/// every object through the same code.
class ObjectFilter {
 public:
  /// Keeps everything.
  ObjectFilter() = default;

  /// Computes tau for a rect_width x rect_height query over `bound`'s
  /// probe set; a null `bound` keeps everything.
  ObjectFilter(const DensityBound* bound, double rect_width,
               double rect_height)
      : bound_(bound), width_(rect_width), height_(rect_height) {
    if (bound_ != nullptr) tau_ = bound_->Threshold(width_, height_);
  }

  /// Whether o can belong to an optimal placement.
  bool Keep(const SpatialObject& o) const {
    return bound_ == nullptr ||
           static_cast<double>(bound_->Bound(o, width_, height_)) >= tau_;
  }

  /// The query's threshold (0 without a bound).
  double tau() const { return tau_; }

 private:
  const DensityBound* bound_ = nullptr;
  double width_ = 0.0;
  double height_ = 0.0;
  double tau_ = 0.0;
};

}  // namespace maxrs

#endif  // MAXRS_SERVE_DENSITY_BOUND_H_

#include "serve/density_bound.h"

#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <queue>
#include <utility>

#include "core/exact_maxrs.h"
#include "io/record_io.h"

namespace maxrs {
namespace {

// Probe windows are 3 x 3 cells placed every 2 cells, so any rect at most
// one cell wide and high lies wholly inside some window.
constexpr uint32_t kWindowCells = 3;
constexpr uint32_t kWindowStep = 2;

// Calls visit(o) for every object of `files` in order; stops early, with
// OK, once visit returns false.
template <typename Visit>
Status ScanObjects(Env& env, const std::vector<std::string>& files,
                   Visit visit) {
  for (const std::string& file : files) {
    MAXRS_ASSIGN_OR_RETURN(RecordReader<SpatialObject> reader,
                           RecordReader<SpatialObject>::Make(env, file));
    SpatialObject o{};
    while (reader.Next(&o)) {
      if (!visit(o)) return Status::OK();
    }
    MAXRS_RETURN_IF_ERROR(reader.final_status());
  }
  return Status::OK();
}

bool EligibleWeight(double w) {
  return w >= 0.0 && w <= static_cast<double>(UINT32_MAX) &&
         w == std::floor(w);
}

}  // namespace

void DensityBound::Unmap::operator()(uint32_t* table) const {
  munmap(table, kTableBytes);
}

Result<std::shared_ptr<const DensityBound>> DensityBound::Build(
    Env& env, const std::vector<std::string>& y_files, const Rect& bounds) {
  const std::shared_ptr<const DensityBound> none;
  if (!std::isfinite(bounds.x_lo) || !std::isfinite(bounds.x_hi) ||
      !std::isfinite(bounds.y_lo) || !std::isfinite(bounds.y_hi)) {
    return none;
  }
  std::shared_ptr<DensityBound> bound(new DensityBound());
  const auto scale = [](double lo, double hi) {
    const double extent = hi - lo;
    return extent > 0.0 && std::isfinite(extent)
               ? static_cast<double>(kGrid) / extent
               : 0.0;
  };
  bound->x0_ = bounds.x_lo;
  bound->y0_ = bounds.y_lo;
  bound->sx_ = scale(bounds.x_lo, bounds.x_hi);
  bound->sy_ = scale(bounds.y_lo, bounds.y_hi);
  bound->abs_x_ = std::max(std::fabs(bounds.x_lo), std::fabs(bounds.x_hi));
  bound->abs_y_ = std::max(std::fabs(bounds.y_lo), std::fabs(bounds.y_hi));

  // The table is mapped, zero-filled, straight from the kernel instead of
  // taken from malloc. glibc raises its mmap threshold to the size of any
  // mmapped chunk it frees, so dropping a malloc'd 1 MB table would leave
  // every later allocation under 1 MB on the heap, where freed memory stays
  // resident: on perfbench's serve_cold, whose set-up drops four handles,
  // that cost 5 MB of peak RSS (20000 queries: 34.5 MB, mapped: 29.1 MB).
  void* table = mmap(nullptr, kTableBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (table == MAP_FAILED) return none;  // serve unfiltered
  bound->sat_.reset(static_cast<uint32_t*>(table));
  uint32_t* const sat = bound->sat_.get();

  // Scan 1: each cell's weight, at sat[(row + 1) * kStride + col + 1].
  uint64_t total = 0;
  bool eligible = true;
  MAXRS_RETURN_IF_ERROR(ScanObjects(env, y_files, [&](const SpatialObject& o) {
    if (!EligibleWeight(o.w) || !std::isfinite(o.x) || !std::isfinite(o.y)) {
      eligible = false;
      return false;
    }
    total += static_cast<uint64_t>(o.w);
    if (total > UINT32_MAX) {
      eligible = false;
      return false;
    }
    sat[(bound->CellY(o.y) + 1) * kStride + bound->CellX(o.x) + 1] +=
        static_cast<uint32_t>(o.w);
    return true;
  }));
  if (!eligible) return none;
  for (uint32_t r = 1; r <= kGrid; ++r) {
    uint32_t row = 0;
    for (uint32_t c = 1; c <= kGrid; ++c) {
      row += sat[r * kStride + c];
      sat[r * kStride + c] = sat[(r - 1) * kStride + c] + row;
    }
  }

  // The kProbeWindows heaviest windows (ties to the lower index), in a heap
  // whose top is the lightest of them.
  using Window = std::pair<uint32_t, uint32_t>;  // (weight, top-left cell)
  const auto heavier = [](const Window& a, const Window& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  };
  std::priority_queue<Window, std::vector<Window>, decltype(heavier)> heaviest(
      heavier);
  for (uint32_t r = 0; r < kGrid; r += kWindowStep) {
    const uint32_t r1 = std::min(r + kWindowCells, kGrid);
    for (uint32_t c = 0; c < kGrid; c += kWindowStep) {
      const uint32_t c1 = std::min(c + kWindowCells, kGrid);
      const uint32_t weight = sat[r1 * kStride + c1] - sat[r * kStride + c1] -
                              sat[r1 * kStride + c] + sat[r * kStride + c];
      if (weight == 0) continue;
      const Window window{weight, r * kGrid + c};
      if (heaviest.size() < kProbeWindows) {
        heaviest.push(window);
      } else if (heavier(window, heaviest.top())) {
        heaviest.pop();
        heaviest.push(window);
      }
    }
  }
  std::vector<uint64_t> in_window(static_cast<size_t>(kGrid) * kGrid / 64, 0);
  for (; !heaviest.empty(); heaviest.pop()) {
    const uint32_t r = heaviest.top().second / kGrid;
    const uint32_t c = heaviest.top().second % kGrid;
    for (uint32_t rr = r; rr < std::min(r + kWindowCells, kGrid); ++rr) {
      for (uint32_t cc = c; cc < std::min(c + kWindowCells, kGrid); ++cc) {
        const uint32_t cell = rr * kGrid + cc;
        in_window[cell / 64] |= uint64_t{1} << (cell % 64);
      }
    }
  }

  // Scan 2: the probe set, the objects of those windows, up to the cap.
  MAXRS_RETURN_IF_ERROR(ScanObjects(env, y_files, [&](const SpatialObject& o) {
    const uint32_t cell = bound->CellY(o.y) * kGrid + bound->CellX(o.x);
    if ((in_window[cell / 64] >> (cell % 64)) & 1) bound->probe_.push_back(o);
    return bound->probe_.size() < kMaxProbeObjects;
  }));
  return std::shared_ptr<const DensityBound>(std::move(bound));
}

double DensityBound::Threshold(double rect_width, double rect_height) const {
  return ExactMaxRSInMemory(probe_, rect_width, rect_height).total_weight;
}

}  // namespace maxrs

#include "core/brute_force.h"

#include <cmath>

namespace maxrs {

BruteForceResult BruteForceMaxRS(const std::vector<SpatialObject>& objects,
                                 double rect_width, double rect_height) {
  BruteForceResult best;
  std::vector<SpatialObject> column;  // objects inside the current x-range
  for (const SpatialObject& ax : objects) {
    for (const double x_lo : {ax.x, ax.x - rect_width}) {
      const double x_hi = x_lo + rect_width;
      column.clear();
      for (const SpatialObject& o : objects) {
        if (o.x >= x_lo && o.x < x_hi) column.push_back(o);
      }
      // Only the column's objects can change the covered set in y.
      for (const SpatialObject& ay : column) {
        for (const double y_lo : {ay.y, ay.y - rect_height}) {
          const Rect rect{x_lo, x_hi, y_lo, y_lo + rect_height};
          // Same objects in the same order as over all of `objects`, so the
          // same sum bits.
          const double sum = CoveredWeight(column, rect);
          if (sum > best.total_weight) {
            best.total_weight = sum;
            best.location = rect.center();
          }
        }
      }
    }
  }
  return best;
}

BruteForceResult BruteForceMaxCRS(const std::vector<SpatialObject>& objects,
                                  double diameter) {
  const double r = diameter / 2.0;
  BruteForceResult best;

  auto consider = [&](Point center) {
    const Circle circle{center, diameter};
    const double sum = CoveredWeight(objects, circle);
    if (sum > best.total_weight) {
      best.total_weight = sum;
      best.location = center;
    }
  };

  // An optimal disk can be translated until it has two objects on its
  // boundary (or one, or zero). Candidate centers: every object, and both
  // intersection points of the radius-r circles around every object pair.
  // Because the problem excludes boundary objects, we nudge candidate
  // centers by a relative epsilon toward the pair midpoint so that the
  // boundary-defining objects fall strictly inside.
  for (const SpatialObject& o : objects) consider({o.x, o.y});

  for (size_t i = 0; i < objects.size(); ++i) {
    for (size_t j = i + 1; j < objects.size(); ++j) {
      const Point a{objects[i].x, objects[i].y};
      const Point b{objects[j].x, objects[j].y};
      const double d2 = DistanceSquared(a, b);
      if (d2 == 0.0 || d2 > 4.0 * r * r) continue;
      const Point mid{(a.x + b.x) / 2.0, (a.y + b.y) / 2.0};
      const double half = std::sqrt(d2) / 2.0;
      const double h = std::sqrt(std::max(0.0, r * r - half * half));
      // Unit normal to a->b.
      const double inv = 1.0 / (2.0 * half);
      const double nx = -(b.y - a.y) * inv;
      const double ny = (b.x - a.x) * inv;
      const double shrink = 1.0 - 1e-9;  // pull boundary objects inside
      consider({mid.x + nx * h * shrink, mid.y + ny * h * shrink});
      consider({mid.x - nx * h * shrink, mid.y - ny * h * shrink});
    }
  }
  return best;
}

}  // namespace maxrs

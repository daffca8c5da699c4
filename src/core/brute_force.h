// Brute-force MaxRS oracle for testing.
//
// Under half-open cover semantics a rectangle with left edge L covers the
// objects with o.x - w < L <= o.x, so the set of covered x-positions only
// changes where L crosses some o.x or some o.x - w. Between consecutive such
// breakpoints it is constant on a half-open piece (p_i, p_i+1], and the
// piece's right end p_i+1 is itself a breakpoint. Bottom edges behave the
// same way with o.y and o.y - h. Trying every left edge in {o.x, o.x - w}
// and every bottom edge in {o.y, o.y - h} therefore reaches every covered
// set, whatever the sign of the weights (with non-negative weights the
// edges on objects alone would do). Candidates are O(n^2); each one sums
// only the objects its left edge already covers — fine as a test oracle
// for small n.
#ifndef MAXRS_CORE_BRUTE_FORCE_H_
#define MAXRS_CORE_BRUTE_FORCE_H_

#include <vector>

#include "geom/geometry.h"

namespace maxrs {

/// An optimal placement found by exhaustive search: the oracle the sweep
/// algorithms are differential-tested against.
struct BruteForceResult {
  Point location;
  double total_weight = 0.0;
};

/// Exhaustive MaxRS over candidate anchor pairs.
BruteForceResult BruteForceMaxRS(const std::vector<SpatialObject>& objects,
                                 double rect_width, double rect_height);

/// Exhaustive MaxCRS: evaluates circles centered at every object and at
/// every intersection point of radius-r circles around object pairs (the
/// classic O(n^3 log n)-ish reference). Small n only.
BruteForceResult BruteForceMaxCRS(const std::vector<SpatialObject>& objects,
                                  double diameter);

}  // namespace maxrs

#endif  // MAXRS_CORE_BRUTE_FORCE_H_

// Extensions listed as future work in the paper (Sec. 8): the MaxkRS
// problem (the k best placements instead of one) and the MinRS problem
// (the placement minimizing the covered weight).
//
// Both reuse the full ExactMaxRS pipeline unchanged:
//  * MaxkRS keeps the k best strata of the root tuple stream instead of one —
//    the tuple stream already describes, for every y-stratum, the best
//    interval of the whole plane, so selecting k costs no extra I/O.
//  * MinRS runs the same distribution sweep under a min objective (the
//    segment tree tracks min symmetric to max; MergeSweep picks the
//    smallest effective interval) with placements restricted to the dataset
//    bounding box — unrestricted, the minimum is trivially 0 anywhere in
//    empty space. Rectangle centers range over the *open* box
//    (x_lo, x_hi) x (y_lo, y_hi) of the data: values attained only exactly
//    on the box edge lines (a measure-zero set whose cover semantics depend
//    on boundary orientation) are excluded by definition.
#ifndef MAXRS_CORE_EXTENSIONS_H_
#define MAXRS_CORE_EXTENSIONS_H_

#include <string>
#include <vector>

#include "core/exact_maxrs.h"
#include "geom/geometry.h"
#include "io/env.h"
#include "util/status.h"

namespace maxrs {

/// MaxkRS: the k best placement strata, sorted by descending weight.
/// Each returned region realizes its reported weight at every interior
/// point. Regions come from distinct y-strata of the root tuple stream (two
/// results may overlap spatially if a hotspot spans several strata).
/// `stats`, if non-null, receives the run's execution statistics.
Result<std::vector<RankedRegion>> RunTopKMaxRS(Env& env,
                                               const std::string& object_file,
                                               const MaxRSOptions& options,
                                               size_t k,
                                               MaxRSStats* stats = nullptr);

/// In-memory MaxkRS.
std::vector<RankedRegion> TopKMaxRSInMemory(
    const std::vector<SpatialObject>& objects, double rect_width,
    double rect_height, size_t k);

/// MinRS: a location (with rectangle center strictly inside the dataset
/// bounding box) whose rectangle covers the *minimum* total weight. The
/// domain used is reported in result.stats.domain.
Result<MaxRSResult> RunMinRS(Env& env, const std::string& object_file,
                             const MaxRSOptions& options);

/// In-memory MinRS.
MaxRSResult MinRSInMemory(const std::vector<SpatialObject>& objects,
                          double rect_width, double rect_height);

/// Greedy object-disjoint MaxkRS: repeatedly solve MaxRS, commit the best
/// placement, remove the objects it covers (one filtering pass), and
/// continue — the standard greedy for placing k non-competing facilities.
/// Result i reports the weight of the objects newly served by placement i;
/// placements may overlap spatially but never share objects, so the weights
/// are non-increasing and their sum never exceeds the dataset total. Stops
/// early when nothing remains to cover. Costs k full ExactMaxRS runs plus k
/// linear filter passes.
Result<std::vector<RankedRegion>> RunGreedyKMaxRS(Env& env,
                                                  const std::string& object_file,
                                                  const MaxRSOptions& options,
                                                  size_t k,
                                                  MaxRSStats* stats = nullptr);

/// In-memory greedy object-disjoint MaxkRS.
std::vector<RankedRegion> GreedyKMaxRSInMemory(
    std::vector<SpatialObject> objects, double rect_width, double rect_height,
    size_t k);

}  // namespace maxrs

#endif  // MAXRS_CORE_EXTENSIONS_H_

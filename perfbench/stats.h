// Order statistics, open-loop lateness and span self-time for the
// benchmark's reports. Pure functions over plain values, so stats_test.cc
// pins them without a server.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; otherwise the sample count cannot support it.
inline constexpr size_t kMinTailSamples = 10;

/// Nearest-rank percentile: the smallest sample with at least q * n samples
/// at or below it (q in [0, 1]; q = 0 gives the minimum). 0 for no samples.
double Percentile(std::vector<double> samples, double q);

/// Samples strictly above the nearest-rank q-th percentile of n samples
/// (n - ceil(q * n)), i.e. how many observations the tail estimate rests on.
size_t SamplesBeyond(size_t n, double q);

/// Whether n samples support reporting percentile q: SamplesBeyond(n, q) is
/// at least kMinTailSamples. For q = 0.99 that takes n >= 1000.
bool TailSupported(size_t n, double q);

/// The tail figure reported as p99: the 99th percentile when the samples
/// support it, else the largest sample (too few samples for any tail, so
/// the slowest one is what a user saw). `*percentile` receives the
/// percentile actually reported (0.99, or 1.0 for the maximum).
double TailP99(const std::vector<double>& samples, double* percentile);

/// One open-loop operation: when it was due, when the generator actually
/// sent it, and when its answer arrived (any common time origin).
struct OpenLoopOp {
  double due_ms = 0.0;
  double sent_ms = 0.0;
  double done_ms = 0.0;
};

/// Latency of an open-loop operation, timed from when it was DUE: a stall
/// in the generator or the system delays later sends, and that wait counts.
double OpenLoopLatencyMs(const OpenLoopOp& op);

/// How late the generator sent the operation; never negative (an early
/// send is on time, not negatively late).
double LatenessMs(const OpenLoopOp& op);

/// One traced interval. Times are nanoseconds from the tracer's origin;
/// `parent` is 0 for a root span; spans of one request share `query`.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t query = 0;
};

/// Self time of `parent`: its duration minus the part of its interval
/// covered by `children` (clipped to the parent; overlapping children are
/// counted once). Spans in `children` whose parent is not `parent.id` are
/// ignored.
int64_t SelfTimeNs(const Span& parent, const std::vector<Span>& children);

/// Self times in milliseconds of every span named `name` in `spans`, each
/// against its own children found among `spans` by parent id.
std::vector<double> SelfTimesMs(const std::vector<Span>& spans,
                                const std::string& name);

/// Durations in milliseconds of every span named `name`.
std::vector<double> DurationsMs(const std::vector<Span>& spans,
                                const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_

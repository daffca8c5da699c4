#include "stats.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

// 1-based nearest rank ceil(q * n), clamped to [1, n].
size_t NearestRank(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t rank = NearestRank(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - NearestRank(n, q);
}

bool TailSupported(size_t n, double q) {
  return SamplesBeyond(n, q) >= kMinTailSamples;
}

double TailP99(const std::vector<double>& samples, double* percentile) {
  if (TailSupported(samples.size(), 0.99)) {
    *percentile = 0.99;
    return Percentile(samples, 0.99);
  }
  *percentile = 1.0;
  return samples.empty() ? 0.0
                         : *std::max_element(samples.begin(), samples.end());
}

double OpenLoopLatencyMs(const OpenLoopOp& op) { return op.done_ms - op.due_ms; }

double LatenessMs(const OpenLoopOp& op) {
  return std::max(0.0, op.sent_ms - op.due_ms);
}

int64_t SelfTimeNs(const Span& parent, const std::vector<Span>& children) {
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (const Span& c : children) {
    if (c.parent != parent.id || c.id == parent.id) continue;
    const int64_t lo = std::max(c.start_ns, parent.start_ns);
    const int64_t hi = std::min(c.end_ns, parent.end_ns);
    if (lo < hi) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  int64_t union_ns = 0;
  int64_t run_lo = 0, run_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : covered) {
    if (open && lo <= run_hi) {
      run_hi = std::max(run_hi, hi);
      continue;
    }
    if (open) union_ns += run_hi - run_lo;
    run_lo = lo;
    run_hi = hi;
    open = true;
  }
  if (open) union_ns += run_hi - run_lo;
  return (parent.end_ns - parent.start_ns) - union_ns;
}

std::vector<double> SelfTimesMs(const std::vector<Span>& spans,
                                const std::string& name) {
  std::unordered_map<uint64_t, std::vector<Span>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(s);
  }
  static const std::vector<Span> kNone;
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name != name) continue;
    const auto it = children.find(s.id);
    out.push_back(SelfTimeNs(s, it == children.end() ? kNone : it->second) *
                  1e-6);
  }
  return out;
}

std::vector<double> DurationsMs(const std::vector<Span>& spans,
                                const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back((s.end_ns - s.start_ns) * 1e-6);
  }
  return out;
}

}  // namespace perfbench

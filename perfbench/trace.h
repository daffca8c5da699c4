// In-memory span and counter recorder for the traced benchmark run. Spans
// are taken only in the benchmark's own code, around its calls into the
// library's public functions; nothing inside the library is instrumented.
// Everything stays in memory until WriteJsonLines, which the run calls once
// when it ends. A disabled tracer records nothing and reads no clock.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Turns recording on or off; the traced run alternates segments so the
  /// same run also measures what tracing costs.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// A fresh span id (never 0), so a child can name its parent before the
  /// parent span has ended.
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Records a finished span; a no-op while disabled. Returns its id.
  uint64_t Record(const std::string& name, Clock::time_point start,
                  Clock::time_point end, uint64_t parent = 0,
                  uint64_t query = 0, uint64_t id = 0);

  /// Adds `delta` to the named counter; a no-op while disabled.
  void Count(const std::string& name, double delta);

  /// A copy of the spans recorded so far.
  std::vector<Span> spans() const;

  /// Writes one JSON object per span (name, start_us, end_us, id, parent,
  /// query) and one per counter. False when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  int64_t SinceOrigin(Clock::time_point t) const;

  const Clock::time_point origin_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::string, double> counters_;
};

/// RAII span: records [construction, destruction) when the tracer is on.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t parent = 0,
             uint64_t query = 0)
      : tracer_(tracer),
        name_(name),
        parent_(parent),
        query_(query),
        on_(tracer.enabled()),
        id_(on_ ? tracer.NewId() : 0),
        start_(on_ ? Clock::now() : Clock::time_point{}) {}
  ~ScopedSpan() {
    if (on_) tracer_.Record(name_, start_, Clock::now(), parent_, query_, id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id (0 when the tracer was off), for children to reference.
  uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  const char* name_;
  uint64_t parent_;
  uint64_t query_;
  bool on_;
  uint64_t id_;
  Clock::time_point start_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

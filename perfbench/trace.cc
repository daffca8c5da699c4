#include "trace.h"

#include <cinttypes>
#include <cstdio>

namespace perfbench {

Tracer::Tracer() : origin_(Clock::now()) {}

int64_t Tracer::SinceOrigin(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

uint64_t Tracer::Record(const std::string& name, Clock::time_point start,
                        Clock::time_point end, uint64_t parent, uint64_t query,
                        uint64_t id) {
  if (!enabled()) return 0;
  Span span;
  span.name = name;
  span.start_ns = SinceOrigin(start);
  span.end_ns = SinceOrigin(end);
  span.id = id != 0 ? id : NewId();
  span.parent = parent;
  span.query = query;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::Count(const std::string& name, double delta) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += delta;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"span\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                 "\"id\": %" PRIu64 ", \"parent\": %" PRIu64
                 ", \"query\": %" PRIu64 "}\n",
                 s.name.c_str(), s.start_ns * 1e-3, s.end_ns * 1e-3, s.id,
                 s.parent, s.query);
  }
  for (const auto& [name, value] : counters_) {
    std::fprintf(f, "{\"counter\": \"%s\", \"value\": %.17g}\n", name.c_str(),
                 value);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

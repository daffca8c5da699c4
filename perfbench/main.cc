// maxrs_perfbench: runs one benchmark workload against the library's
// public API, checks its answers, and prints its metrics — a readable
// table first, then one JSON object as the last line of stdout.
//
//   maxrs_perfbench --workload wire_hot|serve_cold|oneshot --seed N
//                   --seconds S --trace 0|1 [--trace-out FILE]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload with spans recorded around the library calls and prints the
// per-layer metrics instead (README.md lists both). Exit code 0 only when
// every answer was right and the workload was valid.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

using perfbench::MetricDef;
using perfbench::Report;

int Usage() {
  std::fprintf(stderr,
               "usage: maxrs_perfbench --workload wire_hot|serve_cold|oneshot "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
  return 2;
}

// Whether `workload` exercises end-to-end metric `metric`. The result format
// needs every end-to-end metric from every workload, so the rest are still
// measured but are by-products of the load: wire_hot's qps is its offered
// rate and its blocks are the pre-warm's, oneshot's qps is about 1 / mean
// latency and its p99 the slowest of a dozen solves. The table marks them.
bool Exercises(const std::string& workload, const std::string& metric) {
  if (metric == "p99_ms") return workload != "oneshot";
  if (metric == "qps") return workload == "serve_cold";
  if (metric == "io_blocks_per_op") return workload != "wire_hot";
  return true;
}

// Prints the readable table and the JSON result line for one metric table.
void Print(const perfbench::RunConfig& config, Report& report,
           const std::vector<MetricDef>& defs) {
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d nproc=%zu\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0, config.nproc);
  std::string json;
  for (const MetricDef& def : defs) {
    const auto it = report.values().find(def.name);
    double value = 0.0;
    std::string note = "not exercised by this workload";
    if (it != report.values().end()) {
      value = it->second.first;
      note = it->second.second;
      if (!config.trace && !Exercises(config.workload, def.name)) {
        note = "not exercised by this workload (" + note + ")";
      }
    } else if (!config.trace) {
      report.Fail(std::string("end-to-end metric missing: ") + def.name);
    }
    if (!std::isfinite(value)) {
      report.Fail(std::string("metric is not finite: ") + def.name);
      value = 0.0;
    }
    std::printf("  %-30s %16.6f %-6s %s\n", def.name, value, def.unit,
                note.c_str());
    if (!def.in_json) continue;
    char entry[160];
    std::snprintf(entry, sizeof(entry),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", def.name, value, def.unit);
    json += entry;
  }
  const double error_rate =
      report.attempted == 0
          ? 1.0
          : static_cast<double>(report.failed) /
                static_cast<double>(report.attempted);
  std::printf("  %-30s %16.6f %-6s %llu failed of %llu attempted\n",
              "error_rate", error_rate, "ratio",
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  if (report.attempted == 0) report.Fail("no operation attempted");
  for (const std::string& why : report.failures()) {
    std::printf("  FAILED: %s\n", why.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.correct() ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
      have_seconds = true;
    } else if (arg == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
    } else if (arg == "--trace-out") {
      config.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (!have_seconds || !(config.seconds > 0.0)) return Usage();
  config.nproc = perfbench::Nproc();

  perfbench::Tracer tracer;
  Report report;
  if (config.workload == "wire_hot") {
    perfbench::RunWireHot(config, tracer, &report);
  } else if (config.workload == "serve_cold") {
    perfbench::RunServeCold(config, tracer, &report);
  } else if (config.workload == "oneshot") {
    perfbench::RunOneshot(config, tracer, &report);
  } else {
    return Usage();
  }
  if (config.trace && !config.trace_out.empty()) {
    if (tracer.WriteJsonLines(config.trace_out)) {
      std::printf("spans written to %s (%zu spans)\n",
                  config.trace_out.c_str(), tracer.spans().size());
    } else {
      report.Fail("cannot write " + config.trace_out);
    }
  }
  Print(config, report,
        config.trace ? perfbench::PerLayerMetrics()
                     : perfbench::EndToEndMetrics());
  return report.correct() ? 0 : 1;
}

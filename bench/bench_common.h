// Shared harness for the figure/table reproduction benchmarks.
//
// Every bench binary reproduces one table or figure of the paper. The
// common flow: generate (or reuse) a dataset, stage it into a fresh MemEnv
// with the paper's 4KB blocks, run one of the three MaxRS algorithms under
// a given memory budget, and report the I/O cost — the number of
// transferred blocks, the paper's metric. Output is an aligned table plus
// optional CSV (--csv), with --quick reducing cardinalities for smoke runs.
#ifndef MAXRS_BENCH_BENCH_COMMON_H_
#define MAXRS_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "baseline/baseline.h"
#include "core/exact_maxrs.h"
#include "datagen/generators.h"
#include "io/env.h"
#include "util/flags.h"

namespace maxrs {
namespace bench {

/// Paper defaults (Table 3).
inline constexpr size_t kBlockSize = 4096;
inline constexpr size_t kBufferSynthetic = 1024 << 10;
inline constexpr size_t kBufferReal = 256 << 10;
inline constexpr double kDefaultRange = 1000.0;
inline constexpr double kDefaultDiameter = 1000.0;
inline constexpr uint64_t kDefaultCardinality = 250000;

enum class Algorithm { kExactMaxRS, kNaive, kASBTree };

inline const char* AlgoName(Algorithm algo) {
  switch (algo) {
    case Algorithm::kExactMaxRS:
      return "ExactMaxRS";
    case Algorithm::kNaive:
      return "Naive";
    case Algorithm::kASBTree:
      return "aSB-Tree";
  }
  return "?";
}

struct RunOutcome {
  uint64_t io = 0;
  double seconds = 0.0;
  double total_weight = 0.0;
};

/// Stages `objects` into a fresh 4KB-block MemEnv and runs `algo`.
/// `num_threads` feeds the parallel execution engine; the baselines are
/// serial and ignore it.
RunOutcome RunAlgorithm(Algorithm algo, const std::vector<SpatialObject>& objects,
                        double range, size_t memory_bytes,
                        size_t num_threads = 1);

/// One measurement for the machine-readable perf log (--json). The schema is
/// deliberately flat so downstream tooling can diff runs per
/// (bench, algo, dataset, n, threads) key.
struct BenchRecord {
  std::string bench;
  std::string algo;
  std::string dataset;
  uint64_t n = 0;
  size_t threads = 1;
  size_t memory_bytes = 0;
  double wall_seconds = 0.0;
  uint64_t io_blocks = 0;
  double total_weight = 0.0;
  // Latency-oriented extension (bench_workload): emitted to JSON only when
  // p99_ms > 0, so throughput-only benches keep their artifact schema.
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

/// Writes `records` to `path` as a JSON array (overwrites). Each record is
/// stamped with a "machine" field, "nproc=N; <CPU model name>" (the model
/// from /proc/cpuinfo, omitted where that is unavailable): wall-time fields
/// are comparable only between records with equal fingerprints. Returns
/// false (and prints to stderr) if the file cannot be written.
bool WriteBenchJson(const std::string& path,
                    const std::vector<BenchRecord>& records);

/// Fixed-layout series printer: one row per x value, one column per series.
class TablePrinter {
 public:
  TablePrinter(std::string title, std::string x_label,
               std::vector<std::string> columns, std::string csv_path);
  ~TablePrinter();

  void AddRow(const std::string& x, const std::vector<double>& values);

 private:
  std::vector<std::string> columns_;
  std::FILE* csv_ = nullptr;
};

/// Common flags: --quick, --csv=..., --seed=N. (bench_micro parses its own
/// richer flag set — CSV lists of cardinalities/thread counts — directly.)
struct BenchArgs {
  bool quick = false;
  uint64_t seed = 42;
  std::string csv_path;

  static BenchArgs Parse(int argc, char** argv);
};

/// Scales a cardinality down in --quick mode.
inline uint64_t ScaleN(uint64_t n, const BenchArgs& args) {
  return args.quick ? n / 10 : n;
}

/// Parses a comma-separated list of unsigned integers (e.g. a --threads or
/// --n flag value); empty items are skipped.
std::vector<uint64_t> ParseU64List(const std::string& csv);

std::vector<SpatialObject> MakeDistribution(const std::string& name, uint64_t n,
                                            uint64_t seed);

}  // namespace bench
}  // namespace maxrs

#endif  // MAXRS_BENCH_BENCH_COMMON_H_

// Perf-trajectory tracker: wall-clock seconds and block I/O of ExactMaxRS
// (optionally the baselines) per cardinality and thread count, emitted as
// BENCH_micro.json so CI archives a machine-readable perf history. Unlike
// the bench_fig* binaries (which reproduce paper figures, I/O only) and
// bench_cpu (Google-benchmark CPU kernels), this is the one place the
// repo's end-to-end speed is recorded run over run.
//
// Flags:
//   --n=250000,1000000     comma-separated cardinalities (uniform data)
//   --threads=1,2,8        comma-separated thread counts for ExactMaxRS
//   --baselines            also run Naive and aSB-Tree (serial, t=1)
//   --json=PATH            output path (default BENCH_micro.json)
//   --quick                small cardinality / thread set for CI smoke
//   --seed=N               dataset seed
//
// The bench also asserts the parallel engine's core contract on real data:
// identical total_weight for every thread count and identical I/O at every
// thread count (the engine parallelizes the schedule, never the work).
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "util/check.h"
#include "util/flags.h"

using namespace maxrs;
using namespace maxrs::bench;

int main(int argc, char** argv) {
  Flags flags;
  flags.Parse(argc, argv);
  const bool quick = flags.GetBool("quick", false);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const bool baselines = flags.GetBool("baselines", false);
  const char* exact_name = AlgoName(Algorithm::kExactMaxRS);
  const std::string json_path = flags.GetString("json", "BENCH_micro.json");
  const std::vector<uint64_t> cardinalities = ParseU64List(
      flags.GetString("n", quick ? "50000" : "250000,1000000"));
  const std::vector<uint64_t> thread_counts =
      ParseU64List(flags.GetString("threads", quick ? "1,2" : "1,2,8"));
  MAXRS_CHECK(!cardinalities.empty());
  MAXRS_CHECK(!thread_counts.empty());

  std::vector<BenchRecord> records;
  for (uint64_t n : cardinalities) {
    const auto objects = MakeDistribution("uniform", n, seed);
    std::printf("\n=== bench_micro: uniform n=%" PRIu64 " (M=%zuKB) ===\n", n,
                kBufferSynthetic >> 10);
    std::printf("%-14s%10s%16s%16s\n", "algo", "threads", "seconds",
                "I/O (blocks)");

    std::vector<RunOutcome> outcomes(thread_counts.size());
    for (size_t i = 0; i < thread_counts.size(); ++i) {
      const size_t t = static_cast<size_t>(thread_counts[i]);
      const RunOutcome out =
          RunAlgorithm(Algorithm::kExactMaxRS, objects, kDefaultRange,
                       kBufferSynthetic, t);
      outcomes[i] = out;
      if (i > 0) {
        // The parallel engine contract, checked on live data: same answer,
        // same block transfers, at every thread count.
        MAXRS_CHECK_MSG(out.total_weight == outcomes[0].total_weight,
                        "thread count changed the result weight");
        MAXRS_CHECK_MSG(out.io == outcomes[0].io,
                        "thread count changed the I/O count");
      }
      std::printf("%-14s%10zu%16.4f%16" PRIu64 "\n", exact_name, t,
                  out.seconds, out.io);
      records.push_back({"bench_micro", exact_name, "uniform", n, t,
                         kBufferSynthetic, out.seconds, out.io,
                         out.total_weight});
    }
    if (thread_counts.size() > 1) {
      // Headline speedup: fewest vs most threads, independent of the order
      // the --threads list was given in.
      size_t lo = 0, hi = 0;
      for (size_t i = 1; i < thread_counts.size(); ++i) {
        if (thread_counts[i] < thread_counts[lo]) lo = i;
        if (thread_counts[i] > thread_counts[hi]) hi = i;
      }
      std::printf("%-14s%10s%15.2fx  (%" PRIu64 "t vs %" PRIu64 "t)\n",
                  "speedup", "",
                  outcomes[hi].seconds > 0.0
                      ? outcomes[lo].seconds / outcomes[hi].seconds
                      : 0.0,
                  thread_counts[lo], thread_counts[hi]);
    }

    if (baselines) {
      for (Algorithm algo : {Algorithm::kNaive, Algorithm::kASBTree}) {
        const RunOutcome out = RunAlgorithm(algo, objects, kDefaultRange,
                                            kBufferSynthetic, 1);
        std::printf("%-14s%10d%16.4f%16" PRIu64 "\n", AlgoName(algo), 1,
                    out.seconds, out.io);
        records.push_back({"bench_micro", AlgoName(algo), "uniform", n, 1,
                           kBufferSynthetic, out.seconds, out.io,
                           out.total_weight});
      }
    }
  }

  if (!WriteBenchJson(json_path, records)) return 1;
  std::printf("\nwrote %zu records to %s\n", records.size(), json_path.c_str());
  return 0;
}

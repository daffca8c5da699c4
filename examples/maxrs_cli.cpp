// maxrs_cli: a command-line MaxRS/MaxCRS solver over CSV files — the tool a
// downstream user would actually run against their own point data.
//
//   $ ./maxrs_cli --input=points.csv --width=1000 --height=1000
//   $ ./maxrs_cli --input=points.csv --circle --diameter=1000
//   $ ./maxrs_cli --demo --algo=naive    # compare against a baseline
//
// CSV format: "x,y[,w]" per line, optional header. Output: the optimal
// location, the covered weight, and the I/O cost under the chosen memory
// budget (--memory-kb, default 1024). --algo selects exact (default),
// naive, or asb — the paper's comparison methods — for I/O comparisons on
// your own data. --threads=T runs the exact solver on the parallel engine
// (identical answer and I/O count at any thread count).
// --algo=serve ingests into a sharded DatasetHandle and answers through the
// serve layer (--shards=S) — same answer, with the sorts paid once at
// ingest instead of per query.
#include <cstdio>
#include <string>

#include "baseline/baseline.h"
#include "circle/approx_maxcrs.h"
#include "core/exact_maxrs.h"
#include "datagen/dataset_io.h"
#include "datagen/generators.h"
#include "io/env.h"
#include "serve/dataset_handle.h"
#include "serve/maxrs_server.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace maxrs;
  Flags flags;
  flags.Parse(argc, argv);

  std::vector<SpatialObject> objects;
  if (flags.GetBool("demo", false)) {
    SyntheticOptions demo;
    demo.cardinality = static_cast<uint64_t>(flags.GetInt("n", 100000));
    demo.domain_size = 1e6;
    objects = MakeGaussian(demo);
    std::printf("demo dataset: %zu Gaussian points in [0, 1e6]^2\n",
                objects.size());
  } else {
    const std::string input = flags.GetString("input", "");
    if (input.empty()) {
      std::fprintf(stderr,
                   "usage: maxrs_cli --input=points.csv --width=W --height=H\n"
                   "       maxrs_cli --input=points.csv --circle --diameter=D\n"
                   "       maxrs_cli --demo [--n=100000]\n");
      return 2;
    }
    auto loaded = LoadCsv(input);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", input.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    objects = std::move(loaded).value();
    std::printf("loaded %zu objects from %s\n", objects.size(), input.c_str());
  }

  auto env = NewMemEnv(4096);
  if (Status st = WriteDataset(*env, "input", objects); !st.ok()) {
    std::fprintf(stderr, "staging failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const size_t memory =
      static_cast<size_t>(flags.GetInt("memory-kb", 1024)) << 10;

  if (flags.GetBool("circle", false)) {
    MaxCRSOptions options;
    options.diameter = flags.GetDouble("diameter", 1000.0);
    options.memory_bytes = memory;
    auto result = RunApproxMaxCRS(*env, "input", options);
    if (!result.ok()) {
      std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("best circle center : (%.6f, %.6f)\n", result->location.x,
                result->location.y);
    std::printf("covered weight     : %.6f  (>= 1/4 of optimal)\n",
                result->total_weight);
    std::printf("block I/Os         : %llu\n",
                static_cast<unsigned long long>(result->stats.io.total()));
  } else {
    const std::string algo = flags.GetString("algo", "exact");
    const double width = flags.GetDouble("width", 1000.0);
    const double height = flags.GetDouble("height", 1000.0);
    if (algo == "naive" || algo == "asb") {
      BaselineOptions options;
      options.rect_width = width;
      options.rect_height = height;
      options.memory_bytes = memory;
      auto result = algo == "naive"
                        ? RunNaivePlaneSweep(*env, "input", options)
                        : RunASBTreeSweep(*env, "input", options);
      if (!result.ok()) {
        std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
        return 1;
      }
      std::printf("best rect center   : (%.6f, %.6f)  [%s baseline]\n",
                  result->location.x, result->location.y, algo.c_str());
      std::printf("covered weight     : %.6f  (exact optimum)\n",
                  result->total_weight);
      std::printf("block I/Os         : %llu\n",
                  static_cast<unsigned long long>(result->io.total()));
      return 0;
    }
    if (algo == "serve") {
      DatasetHandleOptions ingest_options;
      ingest_options.shard_count =
          static_cast<size_t>(flags.GetInt("shards", 0));
      ingest_options.memory_bytes = memory;
      auto handle = DatasetHandle::Ingest(*env, "input", ingest_options);
      if (!handle.ok()) {
        std::fprintf(stderr, "ingest failed: %s\n",
                     handle.status().ToString().c_str());
        return 1;
      }
      MaxRSServerOptions server_options;
      server_options.memory_bytes = memory;
      MaxRSServer server(*env, *handle, server_options);
      auto result = server.Submit(width, height);
      if (!result.ok()) {
        std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
        return 1;
      }
      std::printf("best rect center   : (%.6f, %.6f)  [served, %zu shards]\n",
                  result->location.x, result->location.y,
                  handle->shards().size());
      std::printf("covered weight     : %.6f  (exact optimum)\n",
                  result->total_weight);
      std::printf("query block I/Os   : %llu\n",
                  static_cast<unsigned long long>(result->stats.io.total()));
      return 0;
    }
    MaxRSOptions options;
    options.rect_width = width;
    options.rect_height = height;
    options.memory_bytes = memory;
    options.num_threads = static_cast<size_t>(flags.GetInt("threads", 1));
    auto result = RunExactMaxRS(*env, "input", options);
    if (!result.ok()) {
      std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("best rect center   : (%.6f, %.6f)\n", result->location.x,
                result->location.y);
    std::printf("covered weight     : %.6f  (exact optimum)\n",
                result->total_weight);
    std::printf("max-region         : x [%.6f, %.6f)  y [%.6f, %.6f)\n",
                result->region.x_lo, result->region.x_hi, result->region.y_lo,
                result->region.y_hi);
    std::printf("block I/Os         : %llu   recursion levels: %llu\n",
                static_cast<unsigned long long>(result->stats.io.total()),
                static_cast<unsigned long long>(result->stats.recursion_levels));
  }
  return 0;
}

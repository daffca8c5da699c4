// bench_workload: open-loop latency driver for the network front-end. It
// stands up the full serving stack — MemEnv dataset, sharded ingest,
// MaxRSServer, and the src/net TCP listener — then drives it over real
// loopback sockets from several concurrent clients, each following a
// precomputed open-loop arrival schedule (queries are sent at their
// scheduled instants regardless of when earlier responses return, so
// queueing delay shows up in the measurement instead of silently throttling
// the offered load). Rect sizes are drawn zipfian from a small pool: a few
// popular sizes dominate (cache hits after first touch), a long tail stays
// cold — the cache/dedup/execute mix a serving system actually sees.
//
// Two arrival schedules run as separate rounds against fresh servers:
//   steady — uniform inter-arrival at the target per-client rate;
//   bursty — the same mean rate delivered as back-to-back bursts of 10
//            followed by a proportionally longer gap.
//
// Per round the bench reports throughput (qps) and the p50/p95/p99 of
// per-query latency (scheduled-send to response-received, so schedule slip
// counts), and records them into BENCH_workload.json (same flat schema as
// the other benches plus qps/p50_ms/p95_ms/p99_ms; committed quick-mode
// baselines live in bench/baselines/).
//
// In-bench sanity checks, enforced with MAXRS_CHECK:
//   - every wire response is an OK frame (nothing shed or failed);
//   - for every rect in the pool the answer received over TCP is
//     bit-identical (%.17g round-trip) to an in-process Submit on the very
//     same server — the bit-identity contract survives the socket;
//   - all clients agree on every answer.
//
// Flags:
//   --n=100000       dataset cardinality (uniform data)
//   --clients=4      concurrent connections (each sender + receiver)
//   --queries=150    queries per client per round
//   --rate=100       per-client offered load, queries/second
//   --shards=8       x-slab shard count
//   --workers=4      server worker threads
//   --json=PATH      output path (default BENCH_workload.json)
//   --quick          small dataset / workload for CI smoke
//   --seed=N         dataset + schedule seed
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "datagen/dataset_io.h"
#include "net/net_server.h"
#include "net/query_protocol.h"
#include "net/socket.h"
#include "serve/dataset_handle.h"
#include "serve/maxrs_server.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/rng.h"

using namespace maxrs;
using namespace maxrs::bench;

namespace {

using Clock = std::chrono::steady_clock;

// The rect-size pool: 12 distinct sizes around the paper's default
// 1000x1000 query (the bench_serve recipe).
std::vector<std::pair<double, double>> MakeRectPool() {
  std::vector<std::pair<double, double>> rects;
  for (size_t i = 0; i < 12; ++i) {
    rects.emplace_back(400.0 + 97.0 * static_cast<double>(i % 17),
                       1600.0 - 83.0 * static_cast<double>(i % 13));
  }
  return rects;
}

// One scheduled query: which rect, and when (relative to round start).
struct ScheduledQuery {
  size_t rect = 0;
  std::chrono::microseconds at{0};
};

// Draws a zipfian(s=1) rect index sequence and arrival times for one
// client. Steady: uniform inter-arrival at `rate` qps. Bursty: bursts of
// 10 back-to-back queries, separated so the mean rate is the same.
std::vector<ScheduledQuery> MakeSchedule(size_t queries, double rate,
                                         bool bursty, size_t pool_size,
                                         Rng* rng) {
  // Zipf CDF over ranks 1..pool_size with exponent 1.
  std::vector<double> cdf(pool_size);
  double mass = 0.0;
  for (size_t r = 0; r < pool_size; ++r) {
    mass += 1.0 / static_cast<double>(r + 1);
    cdf[r] = mass;
  }
  const double interval_us = 1e6 / rate;
  constexpr size_t kBurst = 10;
  std::vector<ScheduledQuery> schedule(queries);
  for (size_t i = 0; i < queries; ++i) {
    const double u = rng->NextDouble() * mass;
    size_t rect = 0;
    while (rect + 1 < pool_size && cdf[rect] < u) ++rect;
    schedule[i].rect = rect;
    const double at_us =
        bursty ? static_cast<double>(i / kBurst) * interval_us * kBurst
               : static_cast<double>(i) * interval_us;
    schedule[i].at = std::chrono::microseconds(static_cast<int64_t>(at_us));
  }
  return schedule;
}

// Reads one '\n'-terminated frame; `carry` holds the read-ahead remainder.
std::string ReadFrame(const Socket& sock, std::string* carry) {
  while (true) {
    const std::string::size_type nl = carry->find('\n');
    if (nl != std::string::npos) {
      std::string line = carry->substr(0, nl);
      carry->erase(0, nl + 1);
      return line;
    }
    char chunk[1024];
    auto n = RecvSome(sock, chunk, sizeof(chunk));
    MAXRS_CHECK_MSG(n.ok() && n.value() > 0, "connection lost mid-round");
    carry->append(chunk, n.value());
  }
}

// The answer tokens of an OK frame ("x y weight"), the bit-carrying part
// (served_from legitimately varies with timing).
std::string AnswerTokens(const std::string& frame) {
  MAXRS_CHECK_MSG(frame.rfind("OK ", 0) == 0,
                  ("non-OK response: " + frame).c_str());
  size_t end = frame.size(), spaces = 0;
  for (size_t i = 3; i < frame.size(); ++i) {
    if (frame[i] == ' ' && ++spaces == 3) {
      end = i;
      break;
    }
  }
  return frame.substr(3, end - 3);
}

struct RoundResult {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double wall_seconds = 0.0;
};

double PercentileMs(const std::vector<double>& sorted_ms, double q) {
  const size_t idx = static_cast<size_t>(
      q * static_cast<double>(sorted_ms.size() - 1) + 0.5);
  return sorted_ms[std::min(idx, sorted_ms.size() - 1)];
}

// Runs one open-loop round: `clients` connections against a fresh server,
// each following its schedule. Returns throughput + latency percentiles
// and checks every answer against the in-process oracle.
RoundResult RunRound(MaxRSServer& server, uint16_t port,
                     const std::vector<std::pair<double, double>>& pool,
                     const std::vector<std::vector<ScheduledQuery>>& schedules) {
  const size_t clients = schedules.size();
  std::vector<std::vector<double>> latencies_ms(clients);
  std::vector<std::vector<std::string>> answers(clients);
  for (size_t c = 0; c < clients; ++c) {
    answers[c].assign(pool.size(), std::string());
  }

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto sock = ConnectLoopback(port);
      MAXRS_CHECK_MSG(sock.ok(), "connect failed");
      const std::vector<ScheduledQuery>& schedule = schedules[c];
      // Sender: fire each query at its scheduled instant, never waiting
      // for responses (open loop).
      std::thread sender([&] {
        for (const ScheduledQuery& q : schedule) {
          std::this_thread::sleep_until(start + q.at);
          char command[96];
          std::snprintf(command, sizeof(command), "MAXRS %.17g %.17g\n",
                        pool[q.rect].first, pool[q.rect].second);
          MAXRS_CHECK_MSG(SendAll(sock.value(), command).ok(), "send failed");
        }
      });
      // Receiver: responses come back in command order; latency is
      // response arrival minus SCHEDULED send (slip counts as latency).
      std::string carry;
      latencies_ms[c].reserve(schedule.size());
      for (const ScheduledQuery& q : schedule) {
        const std::string frame = ReadFrame(sock.value(), &carry);
        const std::chrono::duration<double, std::milli> lat =
            Clock::now() - (start + q.at);
        latencies_ms[c].push_back(lat.count());
        const std::string tokens = AnswerTokens(frame);
        if (answers[c][q.rect].empty()) {
          answers[c][q.rect] = tokens;
        } else {
          MAXRS_CHECK_MSG(answers[c][q.rect] == tokens,
                          "answer changed between repeats of one rect");
        }
      }
      sender.join();
    });
  }
  for (std::thread& t : threads) t.join();
  const Clock::time_point done = Clock::now();

  // Bit-identity oracle: the same rects through in-process Submit on the
  // same server, formatted with the same %.17g — must match the wire.
  for (size_t r = 0; r < pool.size(); ++r) {
    QuerySpec spec;
    spec.width = pool[r].first;
    spec.height = pool[r].second;
    auto oracle = server.Submit(spec);
    MAXRS_CHECK_MSG(oracle.ok(), "oracle Submit failed");
    char expected[96];
    std::snprintf(expected, sizeof(expected), "%.17g %.17g %.17g",
                  oracle->result.location.x, oracle->result.location.y,
                  oracle->result.total_weight);
    for (size_t c = 0; c < clients; ++c) {
      if (answers[c][r].empty()) continue;  // this client never drew rect r
      MAXRS_CHECK_MSG(answers[c][r] == expected,
                      "TCP answer differs from in-process Submit");
    }
  }

  std::vector<double> all_ms;
  for (const auto& per_client : latencies_ms) {
    all_ms.insert(all_ms.end(), per_client.begin(), per_client.end());
  }
  MAXRS_CHECK(!all_ms.empty());
  std::sort(all_ms.begin(), all_ms.end());
  RoundResult result;
  result.wall_seconds =
      std::chrono::duration<double>(done - start).count();
  result.qps = static_cast<double>(all_ms.size()) / result.wall_seconds;
  result.p50_ms = PercentileMs(all_ms, 0.50);
  result.p95_ms = PercentileMs(all_ms, 0.95);
  result.p99_ms = PercentileMs(all_ms, 0.99);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.Parse(argc, argv);
  const bool quick = flags.GetBool("quick", false);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const uint64_t n =
      static_cast<uint64_t>(flags.GetInt("n", quick ? 10000 : 100000));
  const size_t clients =
      static_cast<size_t>(flags.GetInt("clients", quick ? 2 : 4));
  const size_t queries =
      static_cast<size_t>(flags.GetInt("queries", quick ? 40 : 150));
  const double rate = static_cast<double>(flags.GetInt("rate", 100));
  const size_t shard_count = static_cast<size_t>(flags.GetInt("shards", 8));
  const size_t workers = static_cast<size_t>(flags.GetInt("workers", 4));
  const std::string json_path =
      flags.GetString("json", "BENCH_workload.json");
  MAXRS_CHECK(clients > 0 && queries > 0 && rate > 0);

  const auto objects = MakeDistribution("uniform", n, seed);
  const auto pool = MakeRectPool();

  auto env = NewMemEnv(kBlockSize);
  MAXRS_CHECK_OK(WriteDataset(*env, "dataset", objects));
  DatasetHandleOptions ingest_options;
  ingest_options.shard_count = shard_count;
  ingest_options.memory_bytes = kBufferSynthetic;
  auto handle = DatasetHandle::Ingest(*env, "dataset", ingest_options);
  MAXRS_CHECK_MSG(handle.ok(), "ingest failed");

  std::printf("\n=== bench_workload: uniform n=%" PRIu64
              ", %zu clients x %zu queries at %.0f qps each, "
              "%zu-rect zipf pool, %zu shards ===\n",
              n, clients, queries, rate, pool.size(), shard_count);
  std::printf("%-10s%10s%12s%12s%12s%12s%14s\n", "schedule", "qps", "p50 ms",
              "p95 ms", "p99 ms", "wall s", "blocks total");

  std::vector<BenchRecord> records;
  for (const bool bursty : {false, true}) {
    const char* name = bursty ? "bursty" : "steady";
    // Fresh server per round: each schedule meets a cold cache, so the
    // rounds are comparable and order-independent.
    MaxRSServerOptions server_options;
    server_options.num_workers = workers;
    server_options.memory_bytes = kBufferSynthetic;
    server_options.cache_max_extent_fraction = 1.0;
    MaxRSServer server(*env, *handle, server_options);
    NetServerOptions net_options;
    net_options.num_io_threads = clients;
    NetServer net(server, *env, net_options);
    MAXRS_CHECK_OK(net.Start());

    // Per-client schedules from one seeded stream: deterministic workload,
    // distinct per client and per round.
    Rng rng(seed ^ (bursty ? 0x9e3779b9ULL : 0x12345ULL));
    std::vector<std::vector<ScheduledQuery>> schedules;
    schedules.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      schedules.push_back(
          MakeSchedule(queries, rate, bursty, pool.size(), &rng));
    }

    const IoStatsSnapshot before = env->stats().Snapshot();
    const RoundResult round = RunRound(server, net.port(), pool, schedules);
    const uint64_t io = (env->stats().Snapshot() - before).total();
    net.Shutdown();
    server.Shutdown();

    std::printf("%-10s%10.0f%12.3f%12.3f%12.3f%12.3f%14" PRIu64 "\n", name,
                round.qps, round.p50_ms, round.p95_ms, round.p99_ms,
                round.wall_seconds, io);
    BenchRecord record;
    record.bench = "bench_workload";
    record.algo = name;
    record.dataset = "uniform";
    record.n = n;
    record.threads = clients;
    record.memory_bytes = kBufferSynthetic;
    record.wall_seconds = round.wall_seconds;
    record.io_blocks = io;
    record.total_weight = 0.0;
    record.qps = round.qps;
    record.p50_ms = round.p50_ms;
    record.p95_ms = round.p95_ms;
    record.p99_ms = round.p99_ms;
    records.push_back(record);
  }

  if (!WriteBenchJson(json_path, records)) return 1;
  std::printf("\nwrote %zu records to %s\n", records.size(),
              json_path.c_str());
  return 0;
}

// wire_hot: open-loop cache-hit traffic over loopback TCP. Two
// connections, each with a sender and a receiver thread, send 250 queries/s
// each; rects are drawn zipf(s=1) from bench_workload's 12-rect pool, and
// set-up fills the result cache with the whole pool, so every timed query
// is a cache hit and the net layer plus the serve cache path do the work.
//
// Arrivals are Poisson, as from independent users; each connection's
// schedule runs one untimed second before the timed window. With Poisson
// gaps every connection settles in the same state within its first few
// queries (README.md, Nagle), so runs agree; with evenly spaced arrivals
// the state depends on the first scheduling stall and p50 jumped between
// 0.2 and 4 ms from run to run.
#include <sys/socket.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench.h"
#include "net/query_protocol.h"
#include "net/socket.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using maxrs::MaxRSServer;
using maxrs::Socket;

constexpr size_t kConnections = 2;
constexpr double kPerConnectionQps = 250.0;
// Untimed schedule before the window.
constexpr double kWarmupSeconds = 1.0;
// The traced run toggles tracing every this many seconds of the window.
constexpr double kTraceSegmentSeconds = 1.0;
// The generator is trusted only while its lateness stays below this share
// of the latency it measures, at the median and at p99; past that the
// schedule, not the server, sets the latency. Like is compared with like
// because host stalls on a shared 4-vCPU VM delay bare timer wake-ups by
// up to 7 ms at p99, which puts the sender's p99 lateness above a 3 ms p50
// while it stays well below the 19 ms p99.
constexpr double kMaxLagShare = 0.5;
// A response not arriving within this bound fails the run instead of
// hanging it.
constexpr int kReceiveTimeoutMs = 10000;

using Rects = std::vector<std::pair<double, double>>;

// bench_workload's pool: 12 sizes around the paper's 1000 x 1000 default.
Rects RectPool() {
  Rects rects;
  for (size_t i = 0; i < 12; ++i) {
    rects.emplace_back(400.0 + 97.0 * static_cast<double>(i % 17),
                       1600.0 - 83.0 * static_cast<double>(i % 13));
  }
  return rects;
}

std::string CommandLine(const std::pair<double, double>& rect) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "MAXRS %.17g %.17g", rect.first,
                rect.second);
  return buf;
}

// The answer tokens "x y weight" of an OK frame; empty for any other frame.
std::string AnswerTokens(const std::string& frame) {
  if (frame.rfind("OK ", 0) != 0) return "";
  size_t end = 3;
  for (int spaces = 0; end < frame.size(); ++end) {
    if (frame[end] == ' ' && ++spaces == 3) break;
  }
  return frame.substr(3, end - 3);
}

struct WireQuery {
  size_t rect = 0;
  uint64_t id = 0;
  Clock::time_point due, sent, done;
  std::string frame;  // the response line, without its newline
};

struct Connection {
  Socket sock;
  std::vector<WireQuery> queries;
  bool ok = true;
};

// Fills the cache with every pool rect: `callers` threads each Submit a
// share of the pool (blocking), so each is one executed query. Returns each
// execution's stats.
std::vector<maxrs::MaxRSStats> Prewarm(MaxRSServer& server, const Rects& pool,
                                       size_t callers, Tracer& tracer,
                                       Report* report) {
  std::vector<maxrs::MaxRSStats> ops(pool.size());
  std::vector<char> executed(pool.size(), 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < callers; ++t) {
    threads.emplace_back([&, t] {
      for (size_t r = t; r < pool.size(); r += callers) {
        const Clock::time_point t0 = Clock::now();
        auto response = server.Submit(Spec(pool[r].first, pool[r].second));
        const Clock::time_point t1 = Clock::now();
        if (!response.ok() ||
            response->served_from != maxrs::ServedFrom::kExecuted) {
          continue;
        }
        executed[r] = 1;
        ops[r] = response->result.stats;
        TraceSubmit(tracer, t0, t1, ops[r].wall_seconds, r + 1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (std::count(executed.begin(), executed.end(), 0) != 0) {
    report->Fail("a pre-warm query was not executed");
  }
  return ops;
}

// Reads one '\n'-terminated frame; `carry` holds the read-ahead remainder.
bool ReadFrame(const Socket& sock, std::string* carry, std::string* frame) {
  while (true) {
    const std::string::size_type nl = carry->find('\n');
    if (nl != std::string::npos) {
      *frame = carry->substr(0, nl);
      carry->erase(0, nl + 1);
      return true;
    }
    auto readable = maxrs::PollReadable(sock, kReceiveTimeoutMs);
    if (!readable.ok() || !readable.value()) return false;
    char chunk[1024];
    auto n = maxrs::RecvSome(sock, chunk, sizeof(chunk));
    if (!n.ok() || n.value() == 0) return false;
    carry->append(chunk, n.value());
  }
}

// Runs one connection's open-loop schedule: a sender thread sends each
// query when due; this thread receives the answers in order.
void Drive(Connection& conn, const Rects& pool, Tracer& tracer) {
  std::thread sender([&] {
    for (WireQuery& q : conn.queries) {
      std::this_thread::sleep_until(q.due);
      q.sent = Clock::now();
      if (!maxrs::SendAll(conn.sock, CommandLine(pool[q.rect]) + "\n").ok()) {
        conn.ok = false;
        ::shutdown(conn.sock.fd(), SHUT_RDWR);  // wakes the receiver
        return;
      }
      tracer.Record("net.SendAll", q.sent, Clock::now(), q.id, q.id);
    }
  });
  std::string carry;
  for (WireQuery& q : conn.queries) {
    if (!ReadFrame(conn.sock, &carry, &q.frame)) {
      conn.ok = false;
      ::shutdown(conn.sock.fd(), SHUT_RDWR);  // unblocks a stalled sender
      break;
    }
    q.done = Clock::now();
    tracer.Record("net.wire_query", q.due, q.done, 0, q.id, q.id);
  }
  sender.join();
}

// Replays each traced wire line in process — ParseCommand, a cache-hit
// Submit, FormatResponse — under one `net.replay` span per query, and
// checks the formatted frame equals what the wire returned.
void Replay(MaxRSServer& server, const Rects& pool,
            const std::vector<const WireQuery*>& queries, Tracer& tracer,
            Report* report) {
  for (const WireQuery* q : queries) {
    ScopedSpan replay(tracer, "net.replay", 0, q->id);
    maxrs::Result<maxrs::Command> command = maxrs::Status::Internal("unset");
    {
      ScopedSpan s(tracer, "net.ParseCommand", replay.id(), q->id);
      command = maxrs::ParseCommand(CommandLine(pool[q->rect]));
    }
    if (!command.ok()) {
      report->Fail("replayed line does not parse");
      return;
    }
    maxrs::Result<maxrs::QueryResponse> response =
        maxrs::Status::Internal("unset");
    {
      ScopedSpan s(tracer, "serve.Submit.hit", replay.id(), q->id);
      response = server.Submit(command->spec);
    }
    if (!response.ok()) {
      report->Fail("replayed Submit failed");
      return;
    }
    std::string frame;
    {
      ScopedSpan s(tracer, "net.FormatResponse", replay.id(), q->id);
      frame = maxrs::FormatResponse(response.value());
    }
    if (frame != q->frame + "\n") {
      report->Fail("replayed frame differs from the wire: " + q->frame);
      return;
    }
  }
}

// net.self_*: each traced wire query's latency minus the in-process parse,
// submit and format time of its replay.
void ReportNetSpans(const std::vector<Span>& spans, Report* report) {
  std::unordered_set<uint64_t> replays;
  for (const Span& s : spans) {
    if (s.name == "net.replay") replays.insert(s.id);
  }
  std::unordered_map<uint64_t, int64_t> in_process_ns;
  for (const Span& s : spans) {
    if (replays.count(s.parent) != 0) {
      in_process_ns[s.query] += s.end_ns - s.start_ns;
    }
  }
  std::vector<double> self_ms;
  for (const Span& s : spans) {
    if (s.name != "net.wire_query") continue;
    const auto it = in_process_ns.find(s.query);
    if (it == in_process_ns.end()) continue;
    self_ms.push_back((s.end_ns - s.start_ns - it->second) * 1e-6);
  }
  double q = 0.0;
  const std::string n = "n=" + std::to_string(self_ms.size());
  report->Set("net.self_p50_ms", Percentile(self_ms, 0.5), n);
  report->Set("net.self_p99_ms", TailP99(self_ms, &q), n);
  report->Set("net.parse_us",
              Percentile(DurationsMs(spans, "net.ParseCommand"), 0.5) * 1e3);
  report->Set("net.format_us",
              Percentile(DurationsMs(spans, "net.FormatResponse"), 0.5) * 1e3);
  report->Set("serve.hit_us",
              Percentile(DurationsMs(spans, "serve.Submit.hit"), 0.5) * 1e3);
}

}  // namespace

void RunWireHot(const RunConfig& config, Tracer& tracer, Report* report) {
  const Rects pool = RectPool();

  // Set-up, kSetups times: data, staging, ingest, server start, pre-warm.
  tracer.set_enabled(config.trace);
  std::unique_ptr<ServeStack> stack;
  std::vector<maxrs::MaxRSStats> prewarm;
  // The Env's counters over the pre-warm, read after its callers joined.
  maxrs::IoStatsSnapshot prewarm_io;
  std::vector<double> setup_s, ingest_s, prewarm_s;
  for (int i = 0; i < kSetups; ++i) {
    stack.reset();
    const Clock::time_point t0 = Clock::now();
    stack = BuildServeStack(config.seed, kBufferSynthetic, config.nproc,
                            /*with_net=*/true, tracer, report);
    if (stack == nullptr) return;
    const maxrs::IoStatsSnapshot io_before = stack->env->stats().Snapshot();
    const Clock::time_point t1 = Clock::now();
    {
      ScopedSpan span(tracer, "setup.prewarm");
      prewarm = Prewarm(*stack->server, pool, config.nproc, tracer, report);
    }
    const Clock::time_point t2 = Clock::now();
    prewarm_io = stack->env->stats().Snapshot() - io_before;
    CountIo(tracer, prewarm_io);
    setup_s.push_back(Ms(t0, t2) / 1e3);
    ingest_s.push_back(stack->ingest_s);
    prewarm_s.push_back(Ms(t1, t2) / 1e3);
  }
  tracer.set_enabled(false);
  if (!report->correct()) return;

  // In-process answers: what every wire answer must equal, bit for bit.
  // They are the pre-warm's cached executions, so each is also checked
  // against the in-memory solve.
  std::vector<std::string> expected;
  for (const auto& [w, h] : pool) {
    auto oracle = stack->server->Submit(Spec(w, h));
    if (!oracle.ok()) {
      report->Fail("in-process Submit failed");
      return;
    }
    if (!CheckAnswer(stack->objects, w, h, oracle->result, report)) return;
    expected.push_back(AnswerString(oracle->result));
  }

  const maxrs::ServerCounters before = stack->server->counters();
  std::vector<Connection> conns(kConnections);
  for (Connection& conn : conns) {
    auto sock = maxrs::ConnectLoopback(stack->net->port());
    if (!sock.ok()) {
      report->Fail("connect failed");
      return;
    }
    conn.sock = std::move(sock).value();
  }

  // The open-loop schedules: zipf(s=1) rects and Poisson arrivals
  // (exponential gaps), independently per connection.
  std::vector<double> cdf;
  double mass = 0.0;
  for (size_t r = 0; r < pool.size(); ++r) {
    mass += 1.0 / static_cast<double>(r + 1);
    cdf.push_back(mass);
  }
  maxrs::Rng rng(config.seed ^ 0x776972655f686f74ULL);
  const auto seconds = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  };
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const Clock::time_point window = start + seconds(kWarmupSeconds);
  const Clock::time_point stop = window + seconds(config.seconds);
  for (Connection& conn : conns) {
    for (Clock::time_point due = start; due < stop;
         due += seconds(-std::log(1.0 - rng.NextDouble()) / kPerConnectionQps)) {
      WireQuery q;
      const double u = rng.NextDouble() * mass;
      while (q.rect + 1 < pool.size() && cdf[q.rect] < u) ++q.rect;
      q.id = tracer.NewId();  // also the span id of the query
      q.due = due;
      conn.queries.push_back(q);
    }
  }
  // Tracing is on in every other segment of the window (traced run only).
  const auto traced_at = [&](Clock::time_point t) {
    if (!config.trace || t < window) return false;
    return static_cast<int64_t>(Ms(window, t) / 1e3 / kTraceSegmentSeconds) %
               2 ==
           1;
  };
  std::unique_ptr<DepthSampler> sampler;
  if (config.trace) sampler = std::make_unique<DepthSampler>(*stack->server);
  {
    std::vector<std::thread> connection_threads;
    for (Connection& conn : conns) {
      connection_threads.emplace_back([&] { Drive(conn, pool, tracer); });
    }
    if (config.trace) {
      const int segments = static_cast<int>(
          config.seconds / kTraceSegmentSeconds + 0.999);
      for (int s = 0; s <= segments; ++s) {
        std::this_thread::sleep_until(window +
                                      seconds(s * kTraceSegmentSeconds));
        tracer.set_enabled(s % 2 == 1);
      }
    }
    for (std::thread& t : connection_threads) t.join();
  }
  tracer.set_enabled(false);
  uint64_t sent = 0;
  for (const Connection& conn : conns) sent += conn.queries.size();
  maxrs::ServerCounters traffic;
  AddCounters(before, stack->server->counters(), &traffic);

  std::vector<double> latency_ms, traced_ms, untraced_ms, lag_ms;
  std::vector<const WireQuery*> traced_queries;
  Clock::time_point last = window;
  for (const Connection& conn : conns) {
    if (!conn.ok) {
      report->Fail("a connection failed mid-run");
      return;
    }
    for (const WireQuery& q : conn.queries) {
      if (q.due < window) continue;
      ++report->attempted;
      const OpenLoopOp op{0.0, Ms(q.due, q.sent), Ms(q.due, q.done)};
      latency_ms.push_back(OpenLoopLatencyMs(op));
      lag_ms.push_back(LatenessMs(op));
      last = std::max(last, q.done);
      const bool traced = traced_at(q.due);
      (traced ? traced_ms : untraced_ms).push_back(latency_ms.back());
      if (traced) traced_queries.push_back(&q);
      if (AnswerTokens(q.frame) != expected[q.rect]) {
        if (++report->failed == 1) {
          report->Fail("wire answer " + q.frame + " differs from in-process " +
                       expected[q.rect]);
        }
      }
    }
  }

  // Validity: every query was a cache hit, and the generator kept to its
  // schedule.
  if (traffic.submitted != sent || traffic.cache_hits != sent) {
    report->Fail("traffic was not all cache hits: " +
                 std::to_string(traffic.cache_hits) + " hits of " +
                 std::to_string(traffic.submitted) + " submitted, " +
                 std::to_string(sent) + " sent");
  }
  double q = 0.0;
  const double p50 = Percentile(latency_ms, 0.5);
  const double p99 = TailP99(latency_ms, &q);
  const double lag_p50 = Percentile(lag_ms, 0.5);
  const double lag_p99 = TailP99(lag_ms, &q);
  if (lag_p50 >= kMaxLagShare * p50 || lag_p99 >= kMaxLagShare * p99) {
    report->Fail("sender lag p50/p99 " + std::to_string(lag_p50) + "/" +
                 std::to_string(lag_p99) + " ms is not well below latency " +
                 std::to_string(p50) + "/" + std::to_string(p99) + " ms");
  }

  ReportLatency(latency_ms, Ms(window, last) / 1e3, report);
  report->Set("setup_s", Percentile(setup_s, 0.5),
              "median of " + std::to_string(kSetups) + " set-ups");
  report->Set("peak_rss_mb", PeakRssMb());
  // The executed ops are the pre-warm's: timed queries are cache hits and
  // move no blocks.
  ReportExecutedOps(prewarm, prewarm_io, kShards, report);

  if (!config.trace) return;
  ReportServeCounters(traffic, report);
  report->Set("serve.queue_depth_max", static_cast<double>(sampler->max()));
  sampler.reset();
  report->Set("bench.send_lag_p99_ms", lag_p99);
  report->Set("setup.ingest_s", Percentile(ingest_s, 0.5));
  report->Set("setup.ingest_io_blocks", static_cast<double>(stack->ingest_blocks));
  report->Set("setup.prewarm_s", Percentile(prewarm_s, 0.5));
  ReportTraceOverhead(untraced_ms, traced_ms, report);
  tracer.set_enabled(true);
  Replay(*stack->server, pool, traced_queries, tracer, report);
  tracer.set_enabled(false);
  const std::vector<Span> spans = tracer.spans();
  ReportNetSpans(spans, report);
  ReportServeSpans(spans, report);

  tracer.set_enabled(true);
  RunKernels(ServeKernelInputs(*stack, kBufferSynthetic), config.seed, tracer,
             report);
  tracer.set_enabled(false);
}

}  // namespace perfbench

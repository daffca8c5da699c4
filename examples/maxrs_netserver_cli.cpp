// maxrs_netserver_cli: the network front door in one binary — loads (or
// generates) a dataset, ingests it into a sharded DatasetHandle, stands up
// a MaxRSServer behind the loopback TCP listener (src/net), and serves the
// line protocol:
//
//   MAXRS <w> <h> [deadline_ms=N]
//   STATS | PING | QUIT
//
// Two modes:
//
//   $ ./maxrs_netserver_cli --demo --port=7777
//       serve until stdin closes (pair with `nc 127.0.0.1 7777`)
//   $ ./maxrs_netserver_cli --demo --queries=1000x1000,500x2000
//       self-client demo: starts the server on an ephemeral port, drives
//       the listed queries over a real socket, prints each wire response,
//       fetches STATS, and shuts down. Exit status 0 iff every query got
//       an OK frame.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "datagen/dataset_io.h"
#include "datagen/generators.h"
#include "io/env.h"
#include "net/net_server.h"
#include "net/query_protocol.h"
#include "net/socket.h"
#include "serve/dataset_handle.h"
#include "serve/maxrs_server.h"
#include "util/flags.h"

using namespace maxrs;

namespace {

// Parses "WxH,WxH,..." into rect dimensions; returns false on bad syntax.
bool ParseQueries(const std::string& spec,
                  std::vector<std::pair<double, double>>* out) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    const size_t x = item.find('x');
    if (x == std::string::npos || x == 0 || x + 1 >= item.size()) return false;
    char* end = nullptr;
    const double w = std::strtod(item.c_str(), &end);
    if (end != item.c_str() + x) return false;
    const double h = std::strtod(item.c_str() + x + 1, &end);
    if (end != item.c_str() + item.size()) return false;
    if (!(w > 0.0) || !(h > 0.0)) return false;
    out->emplace_back(w, h);
    pos = comma + 1;
  }
  return !out->empty();
}

// Reads one '\n'-terminated frame off the socket; `carry` holds bytes that
// arrived past the previous newline.
Result<std::string> ReadFrame(const Socket& sock, std::string* carry) {
  while (true) {
    const std::string::size_type nl = carry->find('\n');
    if (nl != std::string::npos) {
      std::string line = carry->substr(0, nl);
      carry->erase(0, nl + 1);
      return {std::move(line)};
    }
    char chunk[512];
    Result<size_t> n = RecvSome(sock, chunk, sizeof(chunk));
    if (!n.ok()) return n.status();
    if (n.value() == 0) return Status::IOError("server closed the connection");
    carry->append(chunk, n.value());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.Parse(argc, argv);

  std::vector<SpatialObject> objects;
  if (flags.GetBool("demo", false)) {
    SyntheticOptions demo;
    demo.cardinality = static_cast<uint64_t>(flags.GetInt("n", 100000));
    demo.domain_size = 1e6;
    demo.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    objects = MakeGaussian(demo);
    std::printf("demo dataset: %zu Gaussian points in [0, 1e6]^2\n",
                objects.size());
  } else {
    const std::string input = flags.GetString("input", "");
    if (input.empty()) {
      std::fprintf(
          stderr,
          "usage: maxrs_netserver_cli --demo [--port=P]\n"
          "       maxrs_netserver_cli --demo --queries=WxH[,WxH...]\n"
          "       maxrs_netserver_cli --input=points.csv [--port=P]\n"
          "flags: --workers=K --shards=S --cache=E --deadline_ms=D\n"
          "       --io_threads=T (connection reader threads)\n"
          "with --port and no --queries the server runs until stdin "
          "closes\n");
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

  const size_t workers = static_cast<size_t>(flags.GetInt("workers", 2));
  auto env = NewMemEnv(4096);
  if (Status st = WriteDataset(*env, "dataset", objects); !st.ok()) {
    std::fprintf(stderr, "staging failed: %s\n", st.ToString().c_str());
    return 1;
  }
  DatasetHandleOptions ingest_options;
  ingest_options.shard_count = static_cast<size_t>(flags.GetInt("shards", 0));
  ingest_options.num_threads = workers;
  auto handle = DatasetHandle::Ingest(*env, "dataset", ingest_options);
  if (!handle.ok()) {
    std::fprintf(stderr, "ingest failed: %s\n",
                 handle.status().ToString().c_str());
    return 1;
  }
  std::printf("ingested %llu objects into %zu shards\n",
              static_cast<unsigned long long>(handle->num_objects()),
              handle->shards().size());

  MaxRSServerOptions server_options;
  server_options.num_workers = workers;
  server_options.cache_entries =
      static_cast<size_t>(flags.GetInt("cache", 16));
  server_options.deadline_ms =
      static_cast<int64_t>(flags.GetInt("deadline_ms", 0));
  MaxRSServer server(*env, *handle, server_options);

  NetServerOptions net_options;
  net_options.port = static_cast<uint16_t>(flags.GetInt("port", 0));
  net_options.num_io_threads =
      static_cast<size_t>(flags.GetInt("io_threads", 4));
  NetServer net(server, *env, net_options);
  if (Status st = net.Start(); !st.ok()) {
    std::fprintf(stderr, "listen failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("listening on 127.0.0.1:%u\n", net.port());

  const std::string queries = flags.GetString("queries", "");
  if (queries.empty()) {
    // Serve mode: run until stdin closes, then drain and exit.
    std::printf("serving; close stdin (ctrl-d) to shut down\n");
    while (std::fgetc(stdin) != EOF) {
    }
    net.Shutdown();
    server.Shutdown();
    return 0;
  }

  // Self-client mode: drive the listed queries over a real socket.
  std::vector<std::pair<double, double>> rects;
  if (!ParseQueries(queries, &rects)) {
    std::fprintf(stderr, "bad --queries; expected WxH,WxH,...\n");
    return 2;
  }
  Result<Socket> client = ConnectLoopback(net.port());
  if (!client.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }
  std::string carry;
  bool failed = false;
  for (const auto& rect : rects) {
    char command[128];
    std::snprintf(command, sizeof(command), "MAXRS %.17g %.17g\n", rect.first,
                  rect.second);
    if (Status st = SendAll(client.value(), command); !st.ok()) {
      std::fprintf(stderr, "send failed: %s\n", st.ToString().c_str());
      return 1;
    }
    Result<std::string> frame = ReadFrame(client.value(), &carry);
    if (!frame.ok()) {
      std::fprintf(stderr, "recv failed: %s\n",
                   frame.status().ToString().c_str());
      return 1;
    }
    std::printf("  %gx%-10g -> %s\n", rect.first, rect.second,
                frame.value().c_str());
    if (frame.value().rfind("OK ", 0) != 0) failed = true;
  }
  if (SendAll(client.value(), "STATS\n").ok()) {
    Result<std::string> stats = ReadFrame(client.value(), &carry);
    if (stats.ok()) std::printf("  %s\n", stats.value().c_str());
  }
  (void)SendAll(client.value(), "QUIT\n");
  net.Shutdown();
  server.Shutdown();
  return failed ? 1 : 0;
}

// The wire grammar of the network front-end: a line-delimited text
// protocol over TCP (one '\n'-terminated command per line, one
// '\n'-terminated response line per command, strictly in command order).
//
//   MAXRS <w> <h> [deadline_ms=N]
//       -> OK <x> <y> <weight> <served_from>
//   STATS -> STATS k=v k=v ...      (ServerCounters + aggregate IoStats)
//   PING  -> PONG
//   QUIT  -> BYE                    (then the server closes the connection)
//
// Any failure maps onto `ERR <class> <message>` where <class> is one of
// invalid | unavailable | deadline | shutdown | corruption | internal —
// the Status-code classes a client can act on (back off and retry on
// `unavailable`, give up on the rest). Doubles are printed with %.17g so
// a client parsing them back recovers the exact bit pattern — the
// bit-identity contract survives the wire.
//
// This header is pure parse/format (no sockets, no Env): the protocol is
// unit-testable without a server and reusable by the workload driver.
#ifndef MAXRS_NET_QUERY_PROTOCOL_H_
#define MAXRS_NET_QUERY_PROTOCOL_H_

#include <string>

#include "io/io_stats.h"
#include "serve/maxrs_server.h"
#include "util/status.h"

namespace maxrs {

/// The four commands a client may send.
enum class CommandType {
  /// `MAXRS w h [k=v ...]` — submit one query.
  kMaxRS,
  /// `STATS` — serialize the server's traffic counters + aggregate I/O.
  kStats,
  /// `PING` — liveness probe.
  kPing,
  /// `QUIT` — drain this connection's in-flight queries and close it.
  kQuit,
};

/// One parsed command line; `spec` is meaningful only for kMaxRS.
struct Command {
  /// Which command the line carried.
  CommandType type = CommandType::kPing;
  /// The parsed query (kMaxRS only): dimensions plus the per-query
  /// deadline override, if the client supplied one.
  QuerySpec spec;
};

/// Parses one command line (without its trailing newline; a trailing '\r'
/// is tolerated). Returns InvalidArgument — mapped to `ERR invalid` by the
/// server, which keeps the connection open — for an unknown verb, a
/// malformed number, an unknown option key or value, or trailing garbage.
/// Dimension-positivity is NOT checked here: that is the server's single
/// validation point (MaxRSServer::ValidateSpec).
Result<Command> ParseCommand(const std::string& line);

/// Formats a successful query response:
/// `OK <x> <y> <weight> <served_from>\n` with %.17g doubles
/// (round-trip exact) and served_from spelled cache|dedup|executed.
std::string FormatResponse(const QueryResponse& response);

/// Formats a failure as `ERR <class> <message>\n`; embedded newlines in
/// the message are flattened so the frame stays one line.
std::string FormatError(const Status& status);

/// Formats the STATS response: one `STATS k=v ...` line carrying every
/// ServerCounters field plus the aggregate Env I/O counters.
std::string FormatStats(const ServerCounters& counters,
                        const IoStatsSnapshot& io);

/// Parses a `STATS k=v ...` line back into the two structs (unknown keys
/// are ignored for forward compatibility). Returns InvalidArgument when
/// the line is not a STATS frame.
Status ParseStats(const std::string& line, ServerCounters* counters,
                  IoStatsSnapshot* io);

/// The PONG liveness response frame.
std::string FormatPong();

/// The BYE connection-close acknowledgment frame.
std::string FormatBye();

}  // namespace maxrs

#endif  // MAXRS_NET_QUERY_PROTOCOL_H_

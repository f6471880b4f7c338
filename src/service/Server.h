//===- service/Server.h - The diffcoded server loop ------------------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived half of service mode: a Server owns one
/// AnalysisSession and answers framed requests (service/Protocol.h) over
/// any byte-stream fd pair — a UNIX socket connection, a socketpair to a
/// forked child, or plain pipes in tests. Requests are served strictly
/// in order on one thread; the session's incremental class repair, not
/// concurrency, is what makes an appended commit cheap.
///
/// Two transports:
///   * serveUnix: bind + listen on a filesystem socket, accept
///     connections sequentially, serve each until disconnect, stop at
///     the first ShutdownReq (the `diffcoded <socket>` daemon);
///   * Client: the matching request side over a connected fd
///     (`diffcode_cli --connect`), one blocking request/reply at a time.
///
/// Failure shape mirrors the supervised engine: a frame that fails
/// validation (bad magic / length / checksum) poisons the connection —
/// the server drops it rather than guess at resynchronization — while a
/// well-framed but malformed request only earns a ReplyErr and the
/// connection lives on.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_SERVICE_SERVER_H
#define DIFFCODE_SERVICE_SERVER_H

#include "scan/Scanner.h"
#include "service/AnalysisSession.h"
#include "service/Protocol.h"

#include <memory>
#include <string>
#include <vector>

namespace diffcode {
namespace service {

/// Why a serve loop over one connection ended.
enum class ServeOutcome {
  Disconnected, ///< Peer closed the stream (clean for a connection).
  Shutdown,     ///< ShutdownReq acknowledged; the server should stop.
  ProtocolError, ///< Frame validation failed or the fd errored.
};

/// One session behind a request loop.
class Server {
public:
  Server(const apimodel::CryptoApiModel &Api, SessionOptions Opts);

  /// Serves framed requests from \p InFd, writing one reply per request
  /// to \p OutFd, until EOF, ShutdownReq, or a poisoned stream. The two
  /// fds may be the same (a socket).
  ServeOutcome serve(int InFd, int OutFd);

  AnalysisSession &session() { return Session; }

  /// The daemon's observer (SessionOptions::Metrics), or null when the
  /// daemon runs unobserved. StatsReq answers from it; the owner (the
  /// CLI / diffcoded) flushes its trace at shutdown.
  obs::Observer *observer() { return Obs; }

  /// The warm rule scanner, created on the first ScanReq under the
  /// session's engine config (threads, limits and fault plan). Its rule
  /// set and unit-digest cache persist across requests and
  /// connections, which is the point of scanning through a session.
  scan::Scanner &scanner();

private:
  std::string handleQuery(const std::string &What, bool &Known) const;

  const apimodel::CryptoApiModel &Api;
  std::unique_ptr<scan::Scanner> RuleScanner;
  obs::Observer *Obs = nullptr; ///< Copied from SessionOptions::Metrics.
  AnalysisSession Session;
};

/// Binds and listens on UNIX socket \p Path (unlinking a stale socket
/// first). Returns the listening fd, or -1 with \p Error.
int listenUnix(const std::string &Path, std::string *Error = nullptr);

/// Connects to UNIX socket \p Path. Returns the connected fd, or -1 with
/// \p Error.
int connectUnix(const std::string &Path, std::string *Error = nullptr);

/// The accept loop: serves connections from \p ListenFd sequentially
/// until a connection ends with ServeOutcome::Shutdown. Returns 0 on a
/// clean shutdown, 1 when accept(2) itself fails. Per-connection
/// protocol errors only drop that connection.
int serveUnix(Server &S, int ListenFd);

/// The request side of one connected stream. Does not own the fd.
class Client {
public:
  explicit Client(int Fd) : Fd(Fd) {}

  /// Each call sends one request frame and blocks for the matching
  /// reply. False on transport failure or ReplyErr (message in
  /// \p Error).
  bool ingest(const std::vector<corpus::CodeChange> &Changes,
              IngestReply &Reply, std::string *Error = nullptr);
  bool query(const std::string &What, std::string &Answer,
             std::string *Error = nullptr);
  bool snapshot(std::string &ReportJson, std::string *Error = nullptr);
  bool scan(const ScanRequestWire &Request, std::string &ReportJson,
            std::string *Error = nullptr);
  /// Live introspection: the daemon observer's RunSummary JSON
  /// ({"counters":[...],"stages":[...]}). Fails with ReplyErr when the
  /// daemon runs unobserved. Read-only — never disturbs the session.
  bool stats(std::string &SummaryJson, std::string *Error = nullptr);
  bool shutdown(std::string *Error = nullptr);

private:
  bool roundTrip(ServiceFrame Type, std::string_view Payload,
                 std::string &ReplyPayload, std::string *Error);

  int Fd = -1;
};

} // namespace service
} // namespace diffcode

#endif // DIFFCODE_SERVICE_SERVER_H

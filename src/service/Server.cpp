//===- service/Server.cpp --------------------------------------------------===//

#include "service/Server.h"

#include "exec/Wire.h"
#include "scan/ScanReportWriter.h"
#include "support/JsonWriter.h"
#include "support/Process.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace diffcode;
using namespace diffcode::service;

namespace {

bool sendFrame(int Fd, ServiceFrame Type, std::string_view Payload) {
  std::string Bytes =
      exec::encodeFrame(static_cast<std::uint32_t>(Type), Payload);
  return support::writeFull(Fd, Bytes.data(), Bytes.size()) ==
         static_cast<ssize_t>(Bytes.size());
}

/// Blocks until one complete frame arrives (or EOF / stream poison).
enum class RecvResult { Frame, Eof, Error };

RecvResult recvFrame(int Fd, exec::FrameDecoder &Decoder, exec::Frame &Out) {
  for (;;) {
    if (auto F = Decoder.next()) {
      Out = std::move(*F);
      return RecvResult::Frame;
    }
    if (Decoder.bad())
      return RecvResult::Error;
    char Buf[1 << 16];
    ssize_t N = support::readSome(Fd, Buf, sizeof(Buf));
    if (N == 0)
      return RecvResult::Eof;
    if (N < 0)
      return RecvResult::Error;
    Decoder.feed(Buf, static_cast<std::size_t>(N));
  }
}

bool failStr(std::string *Error, std::string Message) {
  if (Error)
    *Error = std::move(Message);
  return false;
}

} // namespace

Server::Server(const apimodel::CryptoApiModel &Api, SessionOptions Opts)
    : Api(Api), Obs(Opts.Metrics), Session(Api, std::move(Opts)) {}

scan::Scanner &Server::scanner() {
  if (!RuleScanner)
    RuleScanner =
        std::make_unique<scan::Scanner>(Api, Session.system().config());
  return *RuleScanner;
}

std::string Server::handleQuery(const std::string &What, bool &Known) const {
  Known = true;
  const core::CorpusReport &Report = Session.report();
  JsonWriter W;
  if (What == "health") {
    const core::CorpusHealth &H = Report.Health;
    W.beginObject();
    W.key("changes").value(std::uint64_t(Report.Changes.size()));
    W.key("troubled").value(std::uint64_t(H.troubled()));
    W.key("clustering_failures").value(std::uint64_t(H.ClusteringFailures));
    W.key("status").beginObject();
    for (std::size_t I = 0; I < core::NumChangeStatuses; ++I)
      W.key(core::changeStatusName(static_cast<core::ChangeStatus>(I)))
          .value(std::uint64_t(H.StatusCounts[I]));
    W.endObject();
    W.endObject();
    return W.take();
  }
  if (What == "stats") {
    SessionStats S = Session.stats();
    W.beginObject();
    W.key("changes").value(std::uint64_t(S.TotalChanges));
    W.key("ingests").value(std::uint64_t(S.Ingests));
    W.key("classes_repaired").value(std::uint64_t(S.Lifetime.ClassesRepaired));
    W.key("classes_reused").value(std::uint64_t(S.Lifetime.ClassesReused));
    W.endObject();
    return W.take();
  }
  if (What.rfind("class:", 0) == 0) {
    std::string Name = What.substr(6);
    for (const core::ClassReport &Class : Report.PerClass) {
      if (Class.TargetClass != Name)
        continue;
      W.beginObject();
      W.key("class").value(Class.TargetClass);
      W.key("usages").value(std::uint64_t(Class.Filtered.Total));
      W.key("kept").value(std::uint64_t(Class.Filtered.Kept.size()));
      W.key("leaves").value(std::uint64_t(Class.Tree.leafCount()));
      if (!Class.ClusteringError.empty())
        W.key("clustering_error").value(Class.ClusteringError);
      W.endObject();
      return W.take();
    }
  }
  Known = false;
  return std::string();
}

ServeOutcome Server::serve(int InFd, int OutFd) {
  support::ScopedSigpipeIgnore NoSigpipe;
  exec::FrameDecoder Decoder;
  exec::Frame F;
  for (;;) {
    switch (recvFrame(InFd, Decoder, F)) {
    case RecvResult::Eof:
      return ServeOutcome::Disconnected;
    case RecvResult::Error:
      return ServeOutcome::ProtocolError;
    case RecvResult::Frame:
      break;
    }

    switch (static_cast<ServiceFrame>(F.Type)) {
    case ServiceFrame::IngestReq: {
      std::vector<corpus::CodeChange> Changes;
      std::string Error;
      if (!decodeIngestRequest(F.Payload, Changes, &Error)) {
        if (!sendFrame(OutFd, ServiceFrame::ReplyErr, encodeText(Error)))
          return ServeOutcome::ProtocolError;
        break;
      }
      IngestReply Reply;
      Reply.Stats = Session.ingest(Changes);
      Reply.TotalChanges = Session.size();
      if (!sendFrame(OutFd, ServiceFrame::ReplyOk, encodeIngestReply(Reply)))
        return ServeOutcome::ProtocolError;
      break;
    }
    case ServiceFrame::QueryReq: {
      std::string What;
      if (!decodeQueryRequest(F.Payload, What)) {
        if (!sendFrame(OutFd, ServiceFrame::ReplyErr,
                       encodeText("malformed query payload")))
          return ServeOutcome::ProtocolError;
        break;
      }
      bool Known = false;
      std::string Answer = handleQuery(What, Known);
      if (!Known) {
        if (!sendFrame(OutFd, ServiceFrame::ReplyErr,
                       encodeText("unknown query: " + What)))
          return ServeOutcome::ProtocolError;
        break;
      }
      if (!sendFrame(OutFd, ServiceFrame::ReplyOk, encodeText(Answer)))
        return ServeOutcome::ProtocolError;
      break;
    }
    case ServiceFrame::SnapshotReq: {
      if (!sendFrame(OutFd, ServiceFrame::ReplyOk,
                     encodeText(Session.reportJson())))
        return ServeOutcome::ProtocolError;
      break;
    }
    case ServiceFrame::ScanReq: {
      ScanRequestWire Wire;
      std::string Error;
      if (!decodeScanRequest(F.Payload, Wire, &Error)) {
        if (!sendFrame(OutFd, ServiceFrame::ReplyErr, encodeText(Error)))
          return ServeOutcome::ProtocolError;
        break;
      }
      scan::ScanRequest Request;
      Request.Projects.reserve(Wire.Projects.size());
      for (const corpus::Project &P : Wire.Projects)
        Request.Projects.push_back(&P);
      Request.RuleFilter = std::move(Wire.RuleFilter);
      Request.Refine = Wire.Refine;
      scan::ScanReport Report = scanner().scan(Request);
      if (!sendFrame(OutFd, ServiceFrame::ReplyOk,
                     encodeText(scan::scanReportToJson(Report))))
        return ServeOutcome::ProtocolError;
      break;
    }
    case ServiceFrame::StatsReq: {
      if (!F.Payload.empty()) {
        if (!sendFrame(OutFd, ServiceFrame::ReplyErr,
                       encodeText("malformed stats payload")))
          return ServeOutcome::ProtocolError;
        break;
      }
      if (!Obs) {
        if (!sendFrame(OutFd, ServiceFrame::ReplyErr,
                       encodeText("daemon not observed (start with "
                                  "--metrics or --trace-out)")))
          return ServeOutcome::ProtocolError;
        break;
      }
      // summarize() freezes the live registry + stage table; nothing in
      // the session is touched, so the query never perturbs an ingest.
      if (!sendFrame(OutFd, ServiceFrame::ReplyOk,
                     encodeText(Obs->summarize().json())))
        return ServeOutcome::ProtocolError;
      break;
    }
    case ServiceFrame::ShutdownReq: {
      // Acknowledge first: the client's shutdown() must not race the
      // server's exit.
      sendFrame(OutFd, ServiceFrame::ReplyOk, std::string_view());
      return ServeOutcome::Shutdown;
    }
    default:
      if (!sendFrame(OutFd, ServiceFrame::ReplyErr,
                     encodeText("unknown request frame type")))
        return ServeOutcome::ProtocolError;
      break;
    }
  }
}

int service::listenUnix(const std::string &Path, std::string *Error) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    failStr(Error, "socket path too long: " + Path);
    return -1;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);

  int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0) {
    failStr(Error, std::string("socket: ") + std::strerror(errno));
    return -1;
  }
  // A stale socket file from a dead server would make bind fail forever.
  ::unlink(Path.c_str());
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      ::listen(Fd, /*backlog=*/8) != 0) {
    failStr(Error, "bind/listen " + Path + ": " + std::strerror(errno));
    ::close(Fd);
    return -1;
  }
  return Fd;
}

int service::connectUnix(const std::string &Path, std::string *Error) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    failStr(Error, "socket path too long: " + Path);
    return -1;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);

  int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0) {
    failStr(Error, std::string("socket: ") + std::strerror(errno));
    return -1;
  }
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    failStr(Error, "connect " + Path + ": " + std::strerror(errno));
    ::close(Fd);
    return -1;
  }
  return Fd;
}

int service::serveUnix(Server &S, int ListenFd) {
  for (;;) {
    int Conn;
    do {
      Conn = ::accept(ListenFd, nullptr, nullptr);
    } while (Conn < 0 && errno == EINTR);
    if (Conn < 0)
      return 1;
    ServeOutcome Outcome = S.serve(Conn, Conn);
    ::close(Conn);
    if (Outcome == ServeOutcome::Shutdown)
      return 0;
    // Disconnected / ProtocolError only end this connection; the session
    // lives on for the next client.
  }
}

bool Client::roundTrip(ServiceFrame Type, std::string_view Payload,
                       std::string &ReplyPayload, std::string *Error) {
  support::ScopedSigpipeIgnore NoSigpipe;
  std::string Bytes =
      exec::encodeFrame(static_cast<std::uint32_t>(Type), Payload);
  if (support::writeFull(Fd, Bytes.data(), Bytes.size()) !=
      static_cast<ssize_t>(Bytes.size()))
    return failStr(Error, "short write to server");
  exec::FrameDecoder Decoder;
  exec::Frame F;
  switch (recvFrame(Fd, Decoder, F)) {
  case RecvResult::Eof:
    return failStr(Error, "server closed the connection");
  case RecvResult::Error:
    return failStr(Error, Decoder.bad() ? "poisoned reply stream: " +
                                              Decoder.error()
                                        : "read error from server");
  case RecvResult::Frame:
    break;
  }
  if (static_cast<ServiceFrame>(F.Type) == ServiceFrame::ReplyErr) {
    std::string Message;
    decodeText(F.Payload, Message);
    return failStr(Error, Message.empty() ? "server error" : Message);
  }
  if (static_cast<ServiceFrame>(F.Type) != ServiceFrame::ReplyOk)
    return failStr(Error, "unexpected reply frame type");
  ReplyPayload = std::move(F.Payload);
  return true;
}

bool Client::ingest(const std::vector<corpus::CodeChange> &Changes,
                    IngestReply &Reply, std::string *Error) {
  std::string Payload;
  if (!roundTrip(ServiceFrame::IngestReq, encodeIngestRequest(Changes),
                 Payload, Error))
    return false;
  if (!decodeIngestReply(Payload, Reply))
    return failStr(Error, "malformed ingest reply");
  return true;
}

bool Client::query(const std::string &What, std::string &Answer,
                   std::string *Error) {
  std::string Payload;
  if (!roundTrip(ServiceFrame::QueryReq, encodeQueryRequest(What), Payload,
                 Error))
    return false;
  if (!decodeText(Payload, Answer))
    return failStr(Error, "malformed query reply");
  return true;
}

bool Client::snapshot(std::string &ReportJson, std::string *Error) {
  std::string Payload;
  if (!roundTrip(ServiceFrame::SnapshotReq, std::string_view(), Payload,
                 Error))
    return false;
  if (!decodeText(Payload, ReportJson))
    return failStr(Error, "malformed snapshot reply");
  return true;
}

bool Client::scan(const ScanRequestWire &Request, std::string &ReportJson,
                  std::string *Error) {
  std::string Payload;
  if (!roundTrip(ServiceFrame::ScanReq, encodeScanRequest(Request), Payload,
                 Error))
    return false;
  if (!decodeText(Payload, ReportJson))
    return failStr(Error, "malformed scan reply");
  return true;
}

bool Client::stats(std::string &SummaryJson, std::string *Error) {
  std::string Payload;
  if (!roundTrip(ServiceFrame::StatsReq, std::string_view(), Payload, Error))
    return false;
  if (!decodeText(Payload, SummaryJson))
    return failStr(Error, "malformed stats reply");
  return true;
}

bool Client::shutdown(std::string *Error) {
  std::string Payload;
  return roundTrip(ServiceFrame::ShutdownReq, std::string_view(), Payload,
                   Error);
}

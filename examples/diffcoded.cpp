//===- examples/diffcoded.cpp - The incremental analysis daemon ------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
//
// The long-lived service front end (DESIGN.md "Service mode and the
// session API"):
//
//   diffcoded <socket-path> [--threads <n>] [--max-cached <n>]
//             [--metrics] [--trace-out=<file>]
//
// binds a UNIX socket, keeps one AnalysisSession alive, and answers
// framed Ingest/Query/Snapshot/Shutdown requests until a client asks it
// to stop. Clients are `diffcode_cli connect <socket-path> ...` or
// anything speaking service/Protocol.h over the socket. Connections are
// served sequentially — the session's incremental caches are the point,
// not concurrency — so a corpus streamed in commit-sized ingests
// re-analyzes only what each commit touched.
//
// --metrics runs the daemon observed: session counters accumulate and
// `diffcode_cli connect <socket> --query metrics` introspects the live
// snapshot without disturbing the session. --trace-out=<file> (implies
// --metrics) flushes the span trace as Chrome trace_event JSON when the
// daemon shuts down. --threads and --max-cached take a non-negative
// number written in full; anything else prints usage and exits 2.
//
//===----------------------------------------------------------------------===//

#include "CliArgs.h"

#include "service/Server.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

using namespace diffcode;

static int printUsage() {
  std::fprintf(stderr, "usage: diffcoded <socket-path> [--threads <n>] "
                       "[--max-cached <n>]\n"
                       "                 [--metrics] [--trace-out=<file>]\n");
  return 2;
}

int main(int argc, char **argv) {
  if (argc < 2)
    return printUsage();
  std::string SocketPath = argv[1];
  service::SessionOptions Opts;
  Opts.Config.Threads = 0; // one analysis worker per hardware thread
  bool Metrics = false;
  std::string TraceOut;
  for (int I = 2; I < argc; ++I) {
    if (std::strcmp(argv[I], "--threads") == 0 && I + 1 < argc) {
      if (!parseNonNegative(argv[++I], Opts.Config.Threads))
        return printUsage();
    } else if (std::strcmp(argv[I], "--max-cached") == 0 && I + 1 < argc) {
      if (!parseNonNegative(argv[++I], Opts.MaxCachedChanges))
        return printUsage();
    } else if (std::strcmp(argv[I], "--metrics") == 0) {
      Metrics = true;
    } else if (std::strncmp(argv[I], "--trace-out=", 12) == 0) {
      TraceOut = argv[I] + 12;
      if (TraceOut.empty()) {
        std::fprintf(stderr, "error: --trace-out needs a file\n");
        return 2;
      }
      Metrics = true;
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", argv[I]);
      return 2;
    }
  }

  // Must outlive the Server: ingests record into it, StatsReq reads it.
  obs::Observer Obs;
  if (Metrics)
    Opts.Metrics = &Obs;

  std::string Error;
  int ListenFd = service::listenUnix(SocketPath, &Error);
  if (ListenFd < 0) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  service::Server S(apimodel::CryptoApiModel::javaCryptoApi(),
                    std::move(Opts));
  std::fprintf(stderr, "diffcoded: serving on %s\n", SocketPath.c_str());
  int Code = service::serveUnix(S, ListenFd);
  std::remove(SocketPath.c_str());
  if (!TraceOut.empty()) {
    std::ofstream Out(TraceOut);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", TraceOut.c_str());
      return 1;
    }
    Out << Obs.Trace.traceJson() << '\n';
    std::fprintf(stderr, "diffcoded: trace written to %s (%zu events)\n",
                 TraceOut.c_str(), Obs.Trace.eventCount());
  }
  return Code;
}

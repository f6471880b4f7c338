//===- tests/test_service_server.cpp - Service wire protocol & server -----===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The diffcoded wire layer: codec round-trips (including hostile
/// payloads — truncation, version skew, trailing bytes, absurd counts),
/// a real forked server driven end to end over a socketpair, and the
/// chaos case: a server killed mid-ingest must leave the client with a
/// clean error, and replaying the full change history into a fresh
/// server must land on the cold batch report byte for byte (sessions
/// are in-memory; recovery is replay).
///
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include "core/ReportWriter.h"
#include "corpus/CorpusGenerator.h"
#include "corpus/Miner.h"
#include "exec/Wire.h"
#include "scan/ScanReportWriter.h"
#include "scan/Scanner.h"
#include "support/Process.h"

#include <gtest/gtest.h>

#include <csignal>
#include <string>
#include <sys/socket.h>
#include <unistd.h>
#include <vector>

using namespace diffcode;
using namespace diffcode::service;

namespace {

const apimodel::CryptoApiModel &api() {
  return apimodel::CryptoApiModel::javaCryptoApi();
}

/// Hand-built changes (one healthy crypto edit, one odd one) — enough to
/// exercise ingest/snapshot without a generated corpus.
std::vector<corpus::CodeChange> sampleChanges() {
  corpus::CodeChange Fix;
  Fix.ProjectName = "proj-a";
  Fix.CommitIndex = 1;
  Fix.FileName = "A.java";
  Fix.OldCode = "class A { void m() { Cipher c = Cipher.getInstance(\"DES\"); "
                "c.init(1, k); } }";
  Fix.NewCode = "class A { void m() { Cipher c = "
                "Cipher.getInstance(\"AES/GCM/NoPadding\"); c.init(1, k); } }";
  corpus::CodeChange Odd;
  Odd.ProjectName = "proj-b";
  Odd.CommitIndex = 3;
  Odd.FileName = "B.java";
  Odd.Kind = "refactor";
  Odd.OldCode = "class B { int x; }";
  Odd.NewCode = "class B { int y; }";
  return {Fix, Odd};
}

std::string coldJson(const std::vector<corpus::CodeChange> &Changes) {
  core::DiffCode System(api(), core::PipelineConfig());
  core::PipelineRequest Request;
  for (const corpus::CodeChange &Change : Changes)
    Request.Changes.push_back(&Change);
  Request.TargetClasses = api().targetClasses();
  return core::corpusReportToJson(System.run(Request));
}

/// Forks a server speaking over one end of a socketpair; returns the
/// client fd (caller owns) and the child pid. The child's exit code is
/// the ServeOutcome: 0 Shutdown, 1 Disconnected, 2 ProtocolError.
pid_t forkServer(int &ClientFd) {
  int Sv[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv), 0);
  // The child closes its inherited copy of the client end, or the
  // parent's hang-up could never surface as EOF on the server side.
  pid_t Pid = support::spawnProcess([Fd = Sv[1], ClientEnd = Sv[0]] {
    ::close(ClientEnd);
    Server S(api(), SessionOptions());
    switch (S.serve(Fd, Fd)) {
    case ServeOutcome::Shutdown:
      return 0;
    case ServeOutcome::Disconnected:
      return 1;
    case ServeOutcome::ProtocolError:
      return 2;
    }
    return 3;
  });
  EXPECT_GT(Pid, 0);
  ::close(Sv[1]);
  ClientFd = Sv[0];
  return Pid;
}

} // namespace

//===----------------------------------------------------------------------===//
// Codecs
//===----------------------------------------------------------------------===//

TEST(ServiceProtocol, IngestRequestRoundTrips) {
  std::vector<corpus::CodeChange> Want = sampleChanges();
  Want[0].OldCode.push_back('\0'); // binary-safe payloads
  Want[0].OldCode += "tail";
  std::string Payload = encodeIngestRequest(Want);

  std::vector<corpus::CodeChange> Got;
  std::string Error;
  ASSERT_TRUE(decodeIngestRequest(Payload, Got, &Error)) << Error;
  ASSERT_EQ(Got.size(), Want.size());
  for (std::size_t I = 0; I < Want.size(); ++I) {
    EXPECT_EQ(Got[I].ProjectName, Want[I].ProjectName);
    EXPECT_EQ(Got[I].CommitIndex, Want[I].CommitIndex);
    EXPECT_EQ(Got[I].FileName, Want[I].FileName);
    EXPECT_EQ(Got[I].Kind, Want[I].Kind);
    EXPECT_EQ(Got[I].OldCode, Want[I].OldCode);
    EXPECT_EQ(Got[I].NewCode, Want[I].NewCode);
  }
}

TEST(ServiceProtocol, IngestRequestRejectsHostilePayloads) {
  std::vector<corpus::CodeChange> Got;
  std::string Error;

  // Truncated mid-string.
  std::string Payload = encodeIngestRequest(sampleChanges());
  EXPECT_FALSE(
      decodeIngestRequest(Payload.substr(0, Payload.size() / 2), Got, &Error));
  EXPECT_FALSE(Error.empty());

  // Trailing garbage after a well-formed body.
  EXPECT_FALSE(decodeIngestRequest(Payload + "x", Got, &Error));

  // Version skew.
  exec::WireWriter W;
  W.u32(ServiceProtocolVersion + 7);
  W.u32(0);
  EXPECT_FALSE(decodeIngestRequest(W.take(), Got, &Error));
  EXPECT_NE(Error.find("version"), std::string::npos);
  // A version-2 client, whose ingest reply carried two pair counts, is
  // refused the same way.
  exec::WireWriter V2;
  V2.u32(2);
  V2.u32(0);
  Error.clear();
  EXPECT_FALSE(decodeIngestRequest(V2.take(), Got, &Error));
  EXPECT_NE(Error.find("version"), std::string::npos);

  // An allocation-bomb count with no bytes behind it.
  exec::WireWriter Bomb;
  Bomb.u32(ServiceProtocolVersion);
  Bomb.u32(0xffffffffu);
  EXPECT_FALSE(decodeIngestRequest(Bomb.take(), Got, &Error));

  // A count at the old per-frame cap with an empty body: decoding must
  // fail without sizing storage from the count.
  exec::WireWriter AtCap;
  AtCap.u32(ServiceProtocolVersion);
  AtCap.u32(exec::MaxFramePayload / 16);
  std::vector<corpus::CodeChange> Fresh;
  EXPECT_FALSE(decodeIngestRequest(AtCap.take(), Fresh, &Error));
  EXPECT_EQ(Fresh.capacity(), 0u);

  // Empty payload.
  EXPECT_FALSE(decodeIngestRequest("", Got, &Error));
}

TEST(ServiceProtocol, IngestReplyAndTextRoundTrip) {
  IngestReply Want;
  Want.TotalChanges = 12345678901ull;
  Want.Stats.Ingested = 5;
  Want.Stats.ClassesRepaired = 4;
  Want.Stats.ClassesReused = 2;
  IngestReply Got;
  std::string Payload = encodeIngestReply(Want);
  EXPECT_EQ(Payload.size(), 4 * sizeof(std::uint64_t));
  ASSERT_TRUE(decodeIngestReply(Payload, Got));
  EXPECT_EQ(Got.TotalChanges, Want.TotalChanges);
  EXPECT_EQ(Got.Stats.Ingested, Want.Stats.Ingested);
  EXPECT_EQ(Got.Stats.ClassesRepaired, Want.Stats.ClassesRepaired);
  EXPECT_EQ(Got.Stats.ClassesReused, Want.Stats.ClassesReused);
  EXPECT_FALSE(decodeIngestReply("short", Got));
  // A version-2 reply (six u64s, the last two pair counts) fails on its
  // trailing bytes.
  exec::WireWriter V2;
  for (std::uint64_t V : {12345678901ull, 5ull, 4ull, 2ull, 99ull, 101ull})
    V2.u64(V);
  EXPECT_FALSE(decodeIngestReply(V2.take(), Got));

  std::string Text;
  std::string Binary("bin\0ary", 7);
  ASSERT_TRUE(decodeText(encodeText(Binary), Text));
  EXPECT_EQ(Text, Binary);
  EXPECT_FALSE(decodeText("", Text));
}

TEST(ServiceProtocol, ScanRequestRoundTrips) {
  ScanRequestWire Want;
  Want.Refine = true;
  Want.RuleFilter = {"R8", "R1"};
  corpus::Project P;
  P.Name = "proj\"hostile\"";
  P.Meta.IsAndroid = true;
  P.Meta.MinSdkVersion = 19;
  P.Files.push_back({"A.java", std::string("class A { \0 }", 13)});
  P.Files.push_back({"B.java", "class B {}"});
  Want.Projects.push_back(std::move(P));

  ScanRequestWire Got;
  std::string Error;
  ASSERT_TRUE(decodeScanRequest(encodeScanRequest(Want), Got, &Error)) << Error;
  EXPECT_EQ(Got.Refine, Want.Refine);
  EXPECT_EQ(Got.RuleFilter, Want.RuleFilter);
  ASSERT_EQ(Got.Projects.size(), 1u);
  EXPECT_EQ(Got.Projects[0].Name, Want.Projects[0].Name);
  EXPECT_TRUE(Got.Projects[0].Meta.IsAndroid);
  EXPECT_EQ(Got.Projects[0].Meta.MinSdkVersion, 19);
  ASSERT_EQ(Got.Projects[0].Files.size(), 2u);
  EXPECT_EQ(Got.Projects[0].Files[0].Code, Want.Projects[0].Files[0].Code);
}

TEST(ServiceProtocol, ScanRequestRejectsHostilePayloads) {
  ScanRequestWire Got;
  std::string Error;

  ScanRequestWire Want;
  corpus::Project P;
  P.Name = "p";
  P.Files.push_back({"A.java", "class A {}"});
  Want.Projects.push_back(std::move(P));
  std::string Payload = encodeScanRequest(Want);

  // Truncation, trailing garbage, emptiness.
  EXPECT_FALSE(decodeScanRequest(Payload.substr(0, Payload.size() / 2), Got,
                                 &Error));
  EXPECT_FALSE(decodeScanRequest(Payload + "x", Got, &Error));
  EXPECT_FALSE(decodeScanRequest("", Got, &Error));

  // Version skew.
  exec::WireWriter Skew;
  Skew.u32(ServiceProtocolVersion + 3);
  EXPECT_FALSE(decodeScanRequest(Skew.take(), Got, &Error));
  EXPECT_NE(Error.find("version"), std::string::npos);

  // An allocation-bomb project count with no bytes behind it.
  exec::WireWriter Bomb;
  Bomb.u32(ServiceProtocolVersion);
  Bomb.u8(0);
  Bomb.u32(0);           // no rule filter
  Bomb.u32(0xfffffff0u); // absurd project count
  EXPECT_FALSE(decodeScanRequest(Bomb.take(), Got, &Error));

  // Rule and project counts at the old per-frame cap with empty bodies:
  // decoding must fail without sizing storage from either count.
  exec::WireWriter RulesAtCap;
  RulesAtCap.u32(ServiceProtocolVersion);
  RulesAtCap.u8(0);
  RulesAtCap.u32(exec::MaxFramePayload / 16);
  ScanRequestWire FreshRules;
  EXPECT_FALSE(decodeScanRequest(RulesAtCap.take(), FreshRules, &Error));
  EXPECT_EQ(FreshRules.RuleFilter.capacity(), 0u);

  exec::WireWriter ProjectsAtCap;
  ProjectsAtCap.u32(ServiceProtocolVersion);
  ProjectsAtCap.u8(0);
  ProjectsAtCap.u32(0); // no rule filter
  ProjectsAtCap.u32(exec::MaxFramePayload / 16);
  ScanRequestWire FreshProjects;
  EXPECT_FALSE(
      decodeScanRequest(ProjectsAtCap.take(), FreshProjects, &Error));
  EXPECT_EQ(FreshProjects.Projects.capacity(), 0u);
}

//===----------------------------------------------------------------------===//
// A real forked server, end to end
//===----------------------------------------------------------------------===//

TEST(ServiceServer, ForkedRoundTripMatchesColdBatch) {
  std::vector<corpus::CodeChange> Changes = sampleChanges();
  int Fd = -1;
  pid_t Pid = forkServer(Fd);
  Client C(Fd);
  std::string Error;

  IngestReply Reply;
  ASSERT_TRUE(C.ingest(Changes, Reply, &Error)) << Error;
  EXPECT_EQ(Reply.TotalChanges, Changes.size());
  EXPECT_EQ(Reply.Stats.Ingested, Changes.size());

  std::string Health;
  ASSERT_TRUE(C.query("health", Health, &Error)) << Error;
  EXPECT_NE(Health.find("\"changes\":2"), std::string::npos) << Health;

  std::string Stats;
  ASSERT_TRUE(C.query("stats", Stats, &Error)) << Error;
  EXPECT_NE(Stats.find("\"ingests\":1"), std::string::npos) << Stats;
  EXPECT_EQ(Stats.find("cache"), std::string::npos) << Stats;
  EXPECT_EQ(Stats.find("pairs"), std::string::npos) << Stats;

  // An unknown query is an error *reply*, not a dropped connection.
  std::string Answer;
  EXPECT_FALSE(C.query("nonsense", Answer, &Error));
  EXPECT_NE(Error.find("unknown query"), std::string::npos) << Error;

  std::string Snapshot;
  ASSERT_TRUE(C.snapshot(Snapshot, &Error)) << Error;
  EXPECT_EQ(Snapshot, coldJson(Changes));

  ASSERT_TRUE(C.shutdown(&Error)) << Error;
  ::close(Fd);
  support::ExitStatus Exit = support::waitProcess(Pid);
  EXPECT_TRUE(Exit.cleanExit()) << Exit.Code;
}

TEST(ServiceServer, OneCommitPerIngestRequestMatchesColdBatch) {
  // The daemon destroys each decoded request's changes once the ingest
  // returns, so a version the session carries to the next ingest must own
  // its text (under ASan, a view into a freed request is a
  // heap-use-after-free). One IngestReq per commit, as a push hook sends.
  corpus::CorpusOptions Opts;
  Opts.NumProjects = 12;
  Opts.Seed = 42;
  corpus::Corpus Corpus = corpus::CorpusGenerator(Opts).generate();
  std::vector<corpus::CodeChange> Changes;
  for (const corpus::CodeChange *Change : corpus::Miner(api()).mine(Corpus))
    Changes.push_back(*Change);
  ASSERT_GE(Changes.size(), 30u);

  int Fd = -1;
  pid_t Pid = forkServer(Fd);
  Client C(Fd);
  std::string Error;
  std::size_t Requests = 0;
  for (std::size_t Begin = 0; Begin < Changes.size(); ++Requests) {
    std::size_t End = Begin + 1;
    while (End < Changes.size() &&
           Changes[End].ProjectName == Changes[Begin].ProjectName &&
           Changes[End].CommitIndex == Changes[Begin].CommitIndex)
      ++End;
    std::vector<corpus::CodeChange> Commit(Changes.begin() + Begin,
                                           Changes.begin() + End);
    IngestReply Reply;
    ASSERT_TRUE(C.ingest(Commit, Reply, &Error)) << Error;
    ASSERT_EQ(Reply.TotalChanges, End);
    Begin = End;
  }
  EXPECT_GT(Requests, Changes.size() / 2) << "most commits change one file";

  std::string Snapshot;
  ASSERT_TRUE(C.snapshot(Snapshot, &Error)) << Error;
  EXPECT_EQ(Snapshot, coldJson(Changes));
  ASSERT_TRUE(C.shutdown(&Error)) << Error;
  ::close(Fd);
  EXPECT_TRUE(support::waitProcess(Pid).cleanExit());
}

TEST(ServiceServer, ForkedScanMatchesLocalScanner) {
  // Two self-contained projects over the wire: one misuse, one clean.
  ScanRequestWire Wire;
  corpus::Project Bad;
  Bad.Name = "proj-bad";
  Bad.Files.push_back(
      {"Bad.java", "class Bad { void m() throws Exception { Cipher c = "
                   "Cipher.getInstance(\"DES\"); } }"});
  corpus::Project Clean;
  Clean.Name = "proj-clean";
  Clean.Files.push_back({"Clean.java", "class Clean { int x; }"});
  Wire.Projects = {Bad, Clean};

  // The local ground truth, under the same default engine config the
  // server's session runs on.
  scan::Scanner Local(api());
  scan::ScanRequest Request;
  Request.Projects = {&Bad, &Clean};
  std::string Want = scan::scanReportToJson(Local.scan(Request));

  int Fd = -1;
  pid_t Pid = forkServer(Fd);
  Client C(Fd);
  std::string Error, Got;
  ASSERT_TRUE(C.scan(Wire, Got, &Error)) << Error;
  EXPECT_EQ(Got, Want);

  // The scan is session-independent: ingesting afterwards still works.
  IngestReply Reply;
  ASSERT_TRUE(C.ingest(sampleChanges(), Reply, &Error)) << Error;
  EXPECT_EQ(Reply.TotalChanges, 2u);

  // A second scan reuses the server's warm scanner; still identical.
  ASSERT_TRUE(C.scan(Wire, Got, &Error)) << Error;
  EXPECT_EQ(Got, Want);

  ASSERT_TRUE(C.shutdown(&Error)) << Error;
  ::close(Fd);
  EXPECT_TRUE(support::waitProcess(Pid).cleanExit());
}

namespace {

// The daemon's scanner runs under its session's whole engine config: a
// scan through the server equals a local scanner built from the same
// config, fault plan and limits included.
void expectServerScansUnder(const core::PipelineConfig &Config,
                            const char *Status) {
  corpus::Project P;
  P.Name = "proj";
  P.Files.push_back({"A.java", "class A { void m() throws Exception { Cipher "
                               "c = Cipher.getInstance(\"DES\"); } }"});
  scan::ScanRequest Request;
  Request.Projects = {&P};

  SessionOptions Opts;
  Opts.Config = Config;
  Server S(api(), Opts);
  std::string Got = scan::scanReportToJson(S.scanner().scan(Request));
  EXPECT_EQ(Got,
            scan::scanReportToJson(scan::Scanner(api(), Config).scan(Request)));
  EXPECT_NE(Got.find(std::string("\"status\":\"") + Status + "\""),
            std::string::npos)
      << Got;
}

} // namespace

TEST(ServiceServer, ScannerRunsUnderTheSessionsFaultPlan) {
  // A Parser-only plan at rate 1.0 faults every unit's parse.
  core::PipelineConfig Config;
  Config.Faults.Seed = 7;
  Config.Faults.Rate = 1.0;
  Config.Faults.SiteMask = support::faultSiteBit(support::FaultSite::Parser);
  expectServerScansUnder(Config, "analysis-throw");
}

TEST(ServiceServer, ScannerRunsUnderTheSessionsLimits) {
  // The unit lexes to more than four tokens.
  core::PipelineConfig Config;
  Config.Limits.Parse.MaxTokens = 4;
  expectServerScansUnder(Config, "budget-exceeded");
}

TEST(ServiceServer, StatsReqIntrospectsObservedDaemon) {
  // An observed server: the daemon-side observer lives in the child and
  // StatsReq summarizes it live over the wire.
  int Sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv), 0);
  pid_t Pid = support::spawnProcess([Fd = Sv[1], ClientEnd = Sv[0]] {
    ::close(ClientEnd);
    obs::Observer Obs;
    SessionOptions Opts;
    Opts.Metrics = &Obs;
    Server S(api(), std::move(Opts));
    return S.serve(Fd, Fd) == ServeOutcome::Shutdown ? 0 : 2;
  });
  ASSERT_GT(Pid, 0);
  ::close(Sv[1]);
  int Fd = Sv[0];
  Client C(Fd);
  std::string Error;

  // Before any ingest the summary exists but its counters are empty.
  std::string Summary;
  ASSERT_TRUE(C.stats(Summary, &Error)) << Error;
  EXPECT_EQ(Summary.rfind("{\"counters\":[", 0), 0u) << Summary;
  EXPECT_EQ(Summary.find("\"service.ingests\""), std::string::npos);

  IngestReply Reply;
  ASSERT_TRUE(C.ingest(sampleChanges(), Reply, &Error)) << Error;

  // Now the live session counters and the ingest stage show up...
  ASSERT_TRUE(C.stats(Summary, &Error)) << Error;
  EXPECT_NE(Summary.find("\"service.ingests\""), std::string::npos) << Summary;
  EXPECT_NE(Summary.find("\"service.changes\""), std::string::npos);
  EXPECT_NE(Summary.find("\"session.ingest\""), std::string::npos) << Summary;

  // ...and asking never disturbed the session: the snapshot still
  // matches the cold batch byte for byte.
  std::string Snapshot;
  ASSERT_TRUE(C.snapshot(Snapshot, &Error)) << Error;
  EXPECT_EQ(Snapshot, coldJson(sampleChanges()));

  // A StatsReq with a payload is malformed — error reply, live socket.
  std::string Bad = exec::encodeFrame(
      static_cast<std::uint32_t>(ServiceFrame::StatsReq), "junk");
  ASSERT_EQ(support::writeFull(Fd, Bad.data(), Bad.size()),
            static_cast<ssize_t>(Bad.size()));
  {
    // Drain the ReplyErr by hand so the next round-trip stays aligned.
    exec::FrameDecoder D;
    std::optional<exec::Frame> F;
    char Buf[512];
    while (!F) {
      ssize_t N = ::read(Fd, Buf, sizeof(Buf));
      ASSERT_GT(N, 0);
      D.feed(Buf, static_cast<std::size_t>(N));
      F = D.next();
    }
    EXPECT_EQ(F->Type, static_cast<std::uint32_t>(ServiceFrame::ReplyErr));
    ASSERT_EQ(D.pendingBytes(), 0u);
  }
  ASSERT_TRUE(C.stats(Summary, &Error)) << Error;

  ASSERT_TRUE(C.shutdown(&Error)) << Error;
  ::close(Fd);
  EXPECT_TRUE(support::waitProcess(Pid).cleanExit());
}

TEST(ServiceServer, StatsReqOnUnobservedDaemonIsAnError) {
  int Fd = -1;
  pid_t Pid = forkServer(Fd); // default options: no observer
  Client C(Fd);
  std::string Error, Summary;
  EXPECT_FALSE(C.stats(Summary, &Error));
  EXPECT_NE(Error.find("not observed"), std::string::npos) << Error;
  // An error reply, not a poisoned stream: the session still answers.
  IngestReply Reply;
  ASSERT_TRUE(C.ingest(sampleChanges(), Reply, &Error)) << Error;
  ASSERT_TRUE(C.shutdown(&Error)) << Error;
  ::close(Fd);
  EXPECT_TRUE(support::waitProcess(Pid).cleanExit());
}

TEST(ServiceServer, ClientDisconnectEndsServeCleanly) {
  int Fd = -1;
  pid_t Pid = forkServer(Fd);
  ::close(Fd); // hang up without a Shutdown request
  support::ExitStatus Exit = support::waitProcess(Pid);
  EXPECT_EQ(Exit.K, support::ExitStatus::Kind::Exited);
  EXPECT_EQ(Exit.Code, 1); // ServeOutcome::Disconnected
}

TEST(ServiceServer, GarbageBytesAreAProtocolError) {
  int Fd = -1;
  pid_t Pid = forkServer(Fd);
  std::string Garbage = "this is not a DFW1 frame, not even close........";
  ASSERT_EQ(support::writeFull(Fd, Garbage.data(), Garbage.size()),
            static_cast<ssize_t>(Garbage.size()));
  ::close(Fd);
  support::ExitStatus Exit = support::waitProcess(Pid);
  EXPECT_EQ(Exit.K, support::ExitStatus::Kind::Exited);
  EXPECT_EQ(Exit.Code, 2); // ServeOutcome::ProtocolError
}

// Chaos: SIGKILL the server while an ingest frame is half-delivered.
// The client must observe a dead peer as an error return (no hang, no
// SIGPIPE), and — since sessions are in-memory and recovery is replay —
// a fresh server fed the *full* history must reproduce the cold batch
// report byte for byte.
TEST(ServiceServer, KillMidIngestThenRecoverByReplay) {
  std::vector<corpus::CodeChange> Changes = sampleChanges();

  int Fd = -1;
  pid_t Pid = forkServer(Fd);
  Client C(Fd);
  std::string Error;
  IngestReply Reply;
  ASSERT_TRUE(C.ingest({Changes[0]}, Reply, &Error)) << Error;

  // Half an ingest frame, then the kill: the server dies mid-request.
  std::string Frame =
      exec::encodeFrame(static_cast<std::uint32_t>(ServiceFrame::IngestReq),
                        encodeIngestRequest({Changes[1]}));
  ASSERT_GE(Frame.size(), 8u);
  ASSERT_EQ(support::writeFull(Fd, Frame.data(), Frame.size() / 2),
            static_cast<ssize_t>(Frame.size() / 2));
  ASSERT_TRUE(support::killProcess(Pid, SIGKILL));
  support::ExitStatus Exit = support::waitProcess(Pid);
  EXPECT_EQ(Exit.K, support::ExitStatus::Kind::Signaled);
  EXPECT_EQ(Exit.Code, SIGKILL);

  // The half-sent request gets no reply; the client sees a clean error.
  {
    support::ScopedSigpipeIgnore NoSigpipe;
    IngestReply Dead;
    EXPECT_FALSE(C.ingest({Changes[1]}, Dead, &Error));
  }
  ::close(Fd);

  // Recovery: replay everything into a fresh server.
  int Fd2 = -1;
  pid_t Pid2 = forkServer(Fd2);
  Client C2(Fd2);
  ASSERT_TRUE(C2.ingest({Changes[0]}, Reply, &Error)) << Error;
  ASSERT_TRUE(C2.ingest({Changes[1]}, Reply, &Error)) << Error;
  EXPECT_EQ(Reply.TotalChanges, Changes.size());
  std::string Snapshot;
  ASSERT_TRUE(C2.snapshot(Snapshot, &Error)) << Error;
  EXPECT_EQ(Snapshot, coldJson(Changes));
  ASSERT_TRUE(C2.shutdown(&Error)) << Error;
  ::close(Fd2);
  EXPECT_TRUE(support::waitProcess(Pid2).cleanExit());
}

TEST(ServiceServer, UnixSocketListenConnectRoundTrip) {
  std::string Path = "/tmp/diffcode-test-" + std::to_string(::getpid()) +
                     "-" + std::to_string(::testing::UnitTest::GetInstance()
                                              ->random_seed()) +
                     ".sock";
  std::string Error;
  int ListenFd = listenUnix(Path, &Error);
  ASSERT_GE(ListenFd, 0) << Error;

  pid_t Pid = support::spawnProcess([&] {
    Server S(api(), SessionOptions());
    return serveUnix(S, ListenFd);
  });
  ASSERT_GT(Pid, 0);
  ::close(ListenFd);

  int Fd = connectUnix(Path, &Error);
  ASSERT_GE(Fd, 0) << Error;
  Client C(Fd);
  IngestReply Reply;
  ASSERT_TRUE(C.ingest(sampleChanges(), Reply, &Error)) << Error;
  EXPECT_EQ(Reply.TotalChanges, 2u);
  ASSERT_TRUE(C.shutdown(&Error)) << Error;
  ::close(Fd);
  EXPECT_TRUE(support::waitProcess(Pid).cleanExit());
  ::unlink(Path.c_str());
}

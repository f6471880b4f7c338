//===- tests/test_exec_protocol.cpp - Wire format & protocol codecs --------===//
//
// The byte-level half of the supervised execution layer, tested without
// any subprocess: frame encode/decode across arbitrary chunk
// boundaries, corruption detection (magic, length, checksum,
// truncation), the message codecs (a Result decodes into any interner,
// which keeps reports id-value independent), and the POSIX pipe helpers
// (short-read/short-write loops, EPIPE-as-return-value).
//
//===----------------------------------------------------------------------===//

#include "core/DiffCode.h"
#include "core/ReportWriter.h"
#include "exec/Protocol.h"
#include "exec/Wire.h"
#include "support/FaultInjection.h"
#include "support/Process.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

using namespace diffcode;
using namespace diffcode::exec;

namespace {

usage::FeaturePath makePath(const std::string &Type, const std::string &Method,
                            unsigned ArgIndex, const std::string &Value,
                            bool IsString) {
  usage::FeaturePath Path;
  Path.push_back(usage::NodeLabel::root(Type));
  Path.push_back(usage::NodeLabel::method(Method));
  usage::NodeLabel Arg;
  Arg.K = usage::NodeLabel::Kind::Arg;
  Arg.ArgIndex = ArgIndex;
  Arg.ValueIsString = IsString;
  Arg.Text = Value;
  Path.push_back(Arg);
  return Path;
}

} // namespace

//===----------------------------------------------------------------------===//
// Wire primitives
//===----------------------------------------------------------------------===//

TEST(Wire, PrimitiveRoundTrip) {
  WireWriter W;
  W.u8(0xab);
  W.u32(0xdeadbeef);
  W.u64(0x0123456789abcdefULL);
  W.str("hello");
  W.str(std::string("nul\0byte", 8)); // embedded NUL survives
  W.str("");

  WireReader R(W.bytes());
  EXPECT_EQ(R.u8(), 0xab);
  EXPECT_EQ(R.u32(), 0xdeadbeefu);
  EXPECT_EQ(R.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(R.str(), "hello");
  EXPECT_EQ(R.str(), std::string_view("nul\0byte", 8));
  EXPECT_EQ(R.str(), "");
  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.atEnd());
}

TEST(Wire, ReaderIsBoundsCheckedAndSticky) {
  WireWriter W;
  W.u32(7);
  WireReader R(W.bytes());
  EXPECT_EQ(R.u32(), 7u);
  EXPECT_TRUE(R.atEnd());
  // Past the end: zero values, ok() false, and it stays false.
  EXPECT_EQ(R.u64(), 0u);
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.u32(), 0u);
  EXPECT_FALSE(R.atEnd());

  // A string whose length prefix overruns the buffer must not read past
  // the end.
  WireWriter W2;
  W2.u32(1000); // claims 1000 bytes; none follow
  WireReader R2(W2.bytes());
  EXPECT_EQ(R2.str(), "");
  EXPECT_FALSE(R2.ok());
}

TEST(Wire, FrameRoundTripAtEveryChunkSize) {
  std::string Stream = encodeFrame(1, "first payload") +
                       encodeFrame(2, "") +
                       encodeFrame(3, std::string(1000, 'x'));
  for (std::size_t Chunk : {std::size_t(1), std::size_t(7), Stream.size()}) {
    FrameDecoder D;
    std::vector<Frame> Frames;
    for (std::size_t Pos = 0; Pos < Stream.size(); Pos += Chunk) {
      D.feed(Stream.data() + Pos, std::min(Chunk, Stream.size() - Pos));
      while (auto F = D.next())
        Frames.push_back(std::move(*F));
    }
    ASSERT_EQ(Frames.size(), 3u) << "chunk size " << Chunk;
    EXPECT_EQ(Frames[0].Type, 1u);
    EXPECT_EQ(Frames[0].Payload, "first payload");
    EXPECT_EQ(Frames[1].Type, 2u);
    EXPECT_EQ(Frames[1].Payload, "");
    EXPECT_EQ(Frames[2].Payload, std::string(1000, 'x'));
    EXPECT_FALSE(D.bad());
    EXPECT_EQ(D.pendingBytes(), 0u);
  }
}

TEST(Wire, CorruptionIsDetectedAndSticky) {
  // Flipped payload byte -> checksum mismatch.
  {
    std::string F = encodeFrame(6, "payload bytes");
    F[WireHeaderBytes] ^= 0x01;
    FrameDecoder D;
    D.feed(F.data(), F.size());
    EXPECT_FALSE(D.next().has_value());
    EXPECT_TRUE(D.bad());
    EXPECT_NE(D.error().find("checksum"), std::string::npos);
    // Sticky: feeding a pristine frame afterwards cannot resynchronize.
    std::string Good = encodeFrame(1, "ok");
    D.feed(Good.data(), Good.size());
    EXPECT_FALSE(D.next().has_value());
    EXPECT_TRUE(D.bad());
  }
  // Bad magic.
  {
    std::string F = encodeFrame(6, "x");
    F[0] ^= 0xff;
    FrameDecoder D;
    D.feed(F.data(), F.size());
    EXPECT_FALSE(D.next().has_value());
    EXPECT_TRUE(D.bad());
    EXPECT_NE(D.error().find("magic"), std::string::npos);
  }
  // Insane length field.
  {
    std::string F = encodeFrame(6, "x");
    F[8] = F[9] = F[10] = F[11] = static_cast<char>(0xff);
    FrameDecoder D;
    D.feed(F.data(), F.size());
    EXPECT_FALSE(D.next().has_value());
    EXPECT_TRUE(D.bad());
    EXPECT_NE(D.error().find("oversized"), std::string::npos);
  }
  // Truncation is NOT an error (more bytes may come) but is visible.
  {
    std::string F = encodeFrame(6, "a longer payload");
    FrameDecoder D;
    D.feed(F.data(), F.size() / 2);
    EXPECT_FALSE(D.next().has_value());
    EXPECT_FALSE(D.bad());
    EXPECT_EQ(D.pendingBytes(), F.size() / 2);
  }
}

TEST(Wire, ChecksumIsFnv1a) {
  EXPECT_EQ(wireChecksum(""), 0x811c9dc5u);
  EXPECT_NE(wireChecksum("a"), wireChecksum("b"));
}

//===----------------------------------------------------------------------===//
// Message codecs
//===----------------------------------------------------------------------===//

TEST(Protocol, ControlFrameRoundTrip) {
  WorkUnit In;
  In.Id = 42;
  In.Attempt = 3;
  In.Indices = {7, 8, 9, 1ull << 40};
  std::string F = encodeWork(In);
  WorkUnit Out;
  ASSERT_TRUE(decodeWork(std::string_view(F).substr(WireHeaderBytes), Out));
  EXPECT_EQ(Out.Id, 42u);
  EXPECT_EQ(Out.Attempt, 3u);
  EXPECT_EQ(Out.Indices, In.Indices);

  std::uint64_t UnitId = 0;
  std::string Done = encodeUnitDone(99);
  ASSERT_TRUE(decodeUnitDone(std::string_view(Done).substr(WireHeaderBytes),
                             UnitId));
  EXPECT_EQ(UnitId, 99u);

  // Trailing garbage is a protocol error, not silently ignored.
  std::string Longer = std::string(F).substr(WireHeaderBytes) + "x";
  EXPECT_FALSE(decodeWork(Longer, Out));
}

TEST(Protocol, TelemetryRoundTrip) {
  obs::Registry Reg;
  Reg.counter("exec.changes", obs::Unit::None).add(7);
  Reg.counter("exec.rss", obs::Unit::Bytes).add(1 << 20);
  obs::Histogram &H = Reg.histogram("exec.latency", obs::Unit::Nanoseconds);
  H.record(100);
  H.record(100000);

  std::vector<obs::Tracer::Event> Spans;
  Spans.push_back({"processChange", 1000, 500, 2, 0});
  Spans.push_back({"processChange", 2000, 300, 2, 0});

  // Frames are encoded by appending, here into an empty buffer.
  WireWriter Scratch;
  std::string F;
  appendTelemetry(F, Scratch, Spans, Reg.snapshot());
  TelemetryFrame Out;
  ASSERT_TRUE(
      decodeTelemetry(std::string_view(F).substr(WireHeaderBytes), Out));
  ASSERT_EQ(Out.Spans.size(), 2u);
  EXPECT_EQ(Out.Spans[0].Name, "processChange");
  EXPECT_EQ(Out.Spans[0].StartNs, 1000u);
  EXPECT_EQ(Out.Spans[1].DurNs, 300u);
  EXPECT_EQ(Out.Spans[1].Tid, 2u);
  // The snapshot survives the wire byte-identically (JSON is the
  // canonical rendering).
  EXPECT_EQ(Out.Metrics.json(), Reg.snapshot().json());

  // An empty frame (no new spans, empty registry) is valid too.
  std::string Empty;
  appendTelemetry(Empty, Scratch, {}, obs::Snapshot());
  TelemetryFrame EmptyOut;
  ASSERT_TRUE(decodeTelemetry(
      std::string_view(Empty).substr(WireHeaderBytes), EmptyOut));
  EXPECT_TRUE(EmptyOut.Spans.empty());
  EXPECT_TRUE(EmptyOut.Metrics.Values.empty());

  // Appending after a UnitDone (the worker's coalesced write) adds
  // exactly the frame an empty buffer gets.
  std::string Coalesced = encodeUnitDone(3);
  appendTelemetry(Coalesced, Scratch, Spans, Reg.snapshot());
  EXPECT_EQ(Coalesced, encodeUnitDone(3) + F);
}

TEST(Protocol, TelemetryRejectsHostilePayloads) {
  obs::Registry Reg;
  Reg.counter("a.count").add(1);
  Reg.histogram("b.hist").record(42);
  std::vector<obs::Tracer::Event> Spans;
  Spans.push_back({"span", 10, 5, 1, 0});
  std::string Frame;
  WireWriter Scratch;
  appendTelemetry(Frame, Scratch, Spans, Reg.snapshot());
  std::string Payload = Frame.substr(WireHeaderBytes);
  TelemetryFrame Out;
  ASSERT_TRUE(decodeTelemetry(Payload, Out));

  // Truncation at every byte boundary fails cleanly.
  for (std::size_t Len = 0; Len < Payload.size(); ++Len)
    EXPECT_FALSE(decodeTelemetry(Payload.substr(0, Len), Out)) << Len;
  // Trailing bytes are a protocol error.
  EXPECT_FALSE(decodeTelemetry(Payload + "x", Out));

  // A span count larger than the bytes that follow must not balloon.
  {
    WireWriter W;
    W.u32(0xffffffffu); // span count
    EXPECT_FALSE(decodeTelemetry(W.bytes(), Out));
  }

  // Out-of-range kind / unit / stability bytes.
  auto HostileMetric = [](std::uint8_t Kind, std::uint8_t Unit,
                          std::uint8_t Stability) {
    WireWriter W;
    W.u32(0); // no spans
    W.u32(1); // one metric
    W.str("m");
    W.u8(Kind);
    W.u8(Unit);
    W.u8(Stability);
    W.u64(0);
    return std::string(W.bytes());
  };
  EXPECT_FALSE(decodeTelemetry(HostileMetric(2, 0, 0), Out)); // kind
  EXPECT_FALSE(decodeTelemetry(HostileMetric(3, 0, 0), Out)); // kind
  EXPECT_FALSE(decodeTelemetry(HostileMetric(0, 3, 0), Out)); // unit
  EXPECT_FALSE(decodeTelemetry(HostileMetric(0, 9, 0), Out)); // unit
  EXPECT_FALSE(decodeTelemetry(HostileMetric(0, 0, 7), Out)); // stability
  ASSERT_TRUE(decodeTelemetry(HostileMetric(0, 0, 0), Out));
  // Kind 2 is out of range (a protocol-v3 sender's histogram byte). With
  // no value bytes after it, only the kind range check can reject it.
  {
    std::string KindTwo = HostileMetric(2, 0, 0);
    KindTwo.resize(KindTwo.size() - sizeof(std::uint64_t));
    EXPECT_FALSE(decodeTelemetry(KindTwo, Out));
  }

  // Metric names out of order (Snapshot::merge's precondition).
  {
    WireWriter W;
    W.u32(0);
    W.u32(2);
    for (const char *Name : {"b", "a"}) {
      W.str(Name);
      W.u8(0);
      W.u8(0);
      W.u8(0);
      W.u64(0);
    }
    EXPECT_FALSE(decodeTelemetry(W.bytes(), Out));
  }

  // Histogram buckets: index past the fixed layout, and out of order.
  auto HostileBuckets = [](std::uint32_t I1, std::uint32_t I2) {
    WireWriter W;
    W.u32(0);
    W.u32(1);
    W.str("h");
    W.u8(static_cast<std::uint8_t>(obs::MetricKind::Histogram));
    W.u8(0);
    W.u8(0);
    W.u64(2); // count
    W.u64(10); // sum
    W.u64(1); // min
    W.u64(9); // max
    W.u32(2); // two buckets
    W.u32(I1);
    W.u64(1);
    W.u32(I2);
    W.u64(1);
    return std::string(W.bytes());
  };
  EXPECT_FALSE(decodeTelemetry(HostileBuckets(1, 65), Out)); // past layout
  EXPECT_FALSE(decodeTelemetry(HostileBuckets(5, 5), Out)); // not ascending
  EXPECT_FALSE(decodeTelemetry(HostileBuckets(5, 3), Out)); // descending
  ASSERT_TRUE(decodeTelemetry(HostileBuckets(3, 5), Out));
}

TEST(Protocol, ResultRoundTripAcrossInterners) {
  // Worker and coordinator tables hold different content first, so the
  // id values cannot line up: only paths shipped by value survive.
  support::Interner WorkerTable;
  WorkerTable.path(makePath("worker.Only", "w()", 1, "w", false));

  core::ChangeRecord In;
  In.Origin = "projX@c3";
  In.GroundTruthKind = "fix:R1";
  In.Status = core::ChangeStatus::Degraded;
  In.StatusDetail = "parse diagnostics on old version";
  In.StepsUsed = 1234;
  In.PerClass["javax.crypto.Cipher"].push_back(usage::UsageChange::intern(
      WorkerTable, "javax.crypto.Cipher",
      {makePath("javax.crypto.Cipher", "getInstance(String)", 0, "DES", true)},
      {makePath("javax.crypto.Cipher", "getInstance(String)", 0, "AES", true),
       makePath("javax.crypto.Cipher", "init(int,Key)", 1, "T", false)},
      "projX@c3"));
  In.PerClass["java.security.MessageDigest"] = {};
  In.Classification["R1"] = rules::ChangeClass::SecurityFix;
  In.Classification["R7"] = rules::ChangeClass::NonSemantic;

  WireWriter Scratch;
  std::string Frame;
  appendResult(Frame, Scratch, 17, In);

  support::Interner ParentTable;
  ParentTable.path(makePath("pad.Type", "pad()", 2, "pad", false));
  FrameDecoder D;
  D.feed(Frame.data(), Frame.size());
  auto F = D.next();
  ASSERT_TRUE(F.has_value());
  ASSERT_EQ(F->Type, static_cast<std::uint32_t>(FrameType::Result));
  EXPECT_FALSE(D.next().has_value());
  core::ChangeRecord Out;
  std::uint64_t Index = 0;
  ASSERT_TRUE(decodeResult(F->Payload, ParentTable, Index, Out));
  EXPECT_EQ(Index, 17u);
  // The decoded record renders byte-identically (the JSON materializes
  // paths through the interner, so this proves the paths are faithful).
  EXPECT_EQ(core::changeRecordToJson(Out), core::changeRecordToJson(In));
  ASSERT_EQ(Out.PerClass.count("javax.crypto.Cipher"), 1u);
  const usage::UsageChange &Decoded = Out.PerClass["javax.crypto.Cipher"][0];
  EXPECT_EQ(Decoded.Table, &ParentTable);
  EXPECT_TRUE(Decoded.sameFeatures(In.PerClass["javax.crypto.Cipher"][0]));

  // A table that already holds every path hands out the same ids again
  // and grows no further.
  std::size_t Labels = ParentTable.labelCount();
  std::size_t Paths = ParentTable.pathCount();
  core::ChangeRecord Again;
  ASSERT_TRUE(decodeResult(F->Payload, ParentTable, Index, Again));
  EXPECT_EQ(Again.PerClass["javax.crypto.Cipher"][0].Removed,
            Decoded.Removed);
  EXPECT_EQ(Again.PerClass["javax.crypto.Cipher"][0].Added, Decoded.Added);
  EXPECT_EQ(ParentTable.labelCount(), Labels);
  EXPECT_EQ(ParentTable.pathCount(), Paths);

  // Truncation at every byte boundary fails cleanly.
  std::string Payload = Frame.substr(WireHeaderBytes);
  support::Interner Junk;
  core::ChangeRecord Dummy;
  for (std::size_t Len = 0; Len < Payload.size(); ++Len)
    EXPECT_FALSE(decodeResult(Payload.substr(0, Len), Junk, Index, Dummy))
        << Len;
  EXPECT_FALSE(decodeResult(Payload + "x", Junk, Index, Dummy));

  // Hostile path lists inside one usage change of one class.
  auto UsageHeader = [](WireWriter &W, std::uint32_t UsageChanges) {
    W.u64(17);
    W.str("projX@c3");
    W.str("fix:R1");
    W.u8(static_cast<std::uint8_t>(core::ChangeStatus::Ok));
    W.str("");
    W.u64(0);
    W.u32(1); // one class
    W.str("javax.crypto.Cipher");
    W.u32(UsageChanges);
    W.str("javax.crypto.Cipher");
    W.str("projX@c3");
  };
  // One removed path of one label of kind \p Kind; nothing else.
  auto OneLabel = [&](std::uint8_t Kind) {
    WireWriter W;
    UsageHeader(W, 1);
    W.u32(1); // removed paths
    W.u32(1); // labels
    W.u8(Kind);
    W.u32(0);
    W.u8(1);
    W.str("AES");
    W.u32(0); // added paths
    W.u32(0); // rules
    return std::string(W.bytes());
  };
  ASSERT_TRUE(decodeResult(OneLabel(2), Junk, Index, Dummy));
  EXPECT_FALSE(decodeResult(OneLabel(3), Junk, Index, Dummy)); // past Arg
  EXPECT_FALSE(decodeResult(OneLabel(0xFF), Junk, Index, Dummy));
  // A label cut after its argument index: no string flag, no text.
  WireWriter Truncated;
  UsageHeader(Truncated, 1);
  Truncated.u32(1);
  Truncated.u32(1);
  Truncated.u8(2);
  Truncated.u32(0);
  EXPECT_FALSE(decodeResult(Truncated.bytes(), Junk, Index, Dummy));

  // Element counts the payload cannot back fail without first reserving
  // storage for them, each with no body: 2^32 - 1 usage changes in a
  // class, 2^32 - 1 removed paths in a usage change, and 2^32 - 1 labels
  // in a path.
  WireWriter ChangeBomb;
  UsageHeader(ChangeBomb, 0xFFFFFFFFu);
  WireWriter PathBomb;
  UsageHeader(PathBomb, 1);
  PathBomb.u32(0xFFFFFFFFu); // removed paths
  WireWriter LabelBomb;
  UsageHeader(LabelBomb, 1);
  LabelBomb.u32(1);           // removed paths
  LabelBomb.u32(0xFFFFFFFFu); // labels
  for (const WireWriter *Bomb : {&ChangeBomb, &PathBomb, &LabelBomb}) {
    bool Decoded = true;
    EXPECT_NO_THROW(Decoded = decodeResult(Bomb->bytes(), Junk, Index, Dummy));
    EXPECT_FALSE(Decoded);
  }
}

//===----------------------------------------------------------------------===//
// ChangeStatus taxonomy
//===----------------------------------------------------------------------===//

TEST(ChangeStatusNames, DistinctAndStable) {
  std::set<std::string> Names;
  for (std::size_t I = 0; I < core::NumChangeStatuses; ++I) {
    std::string Name =
        core::changeStatusName(static_cast<core::ChangeStatus>(I));
    EXPECT_NE(Name, "unknown") << I;
    EXPECT_TRUE(Names.insert(Name).second) << Name;
  }
  EXPECT_EQ(Names.size(), core::NumChangeStatuses);
  // The supervised taxonomy's stable names.
  EXPECT_STREQ(core::changeStatusName(core::ChangeStatus::WorkerCrash),
               "worker-crash");
  EXPECT_STREQ(core::changeStatusName(core::ChangeStatus::WorkerTimeout),
               "worker-timeout");
  EXPECT_STREQ(core::changeStatusName(core::ChangeStatus::WorkerOom),
               "worker-oom");
}

//===----------------------------------------------------------------------===//
// Process-level fault sites (no subprocess: decision purity only)
//===----------------------------------------------------------------------===//

TEST(ProcFaultSites, NamedAndMaskable) {
  EXPECT_STREQ(support::faultSiteName(support::FaultSite::ProcKill),
               "proc-kill");
  EXPECT_STREQ(support::faultSiteName(support::FaultSite::ProcHang),
               "proc-hang");
  EXPECT_STREQ(support::faultSiteName(support::FaultSite::ProcSlowStart),
               "proc-slow-start");
  EXPECT_STREQ(support::faultSiteName(support::FaultSite::ProcFrameCorrupt),
               "proc-frame-corrupt");
  EXPECT_STREQ(support::faultSiteName(support::FaultSite::ProcOomExit),
               "proc-oom");
  // The default mask arms every site, including the process-level ones.
  support::FaultPlan Plan;
  Plan.Rate = 1.0;
  for (unsigned I = 0; I < support::NumFaultSites; ++I)
    EXPECT_TRUE(Plan.armed(static_cast<support::FaultSite>(I)));
  EXPECT_GE(support::FirstProcFaultSite, 4u);
}

TEST(ProcFaultSites, NestedScopesDecideIndependentlyAndRestore) {
  support::FaultPlan Plan;
  Plan.Seed = 11;
  Plan.Rate = 0.5;
  Plan.SiteMask = support::faultSiteBit(support::FaultSite::ProcKill) |
                  support::faultSiteBit(support::FaultSite::ProcHang);

  auto Decide = [](unsigned Key) {
    return std::make_pair(
        support::faultPoint(support::FaultSite::ProcKill, Key),
        support::faultPoint(support::FaultSite::ProcHang, Key));
  };

  // No scope installed: never fires.
  EXPECT_EQ(Decide(0), std::make_pair(false, false));

  std::vector<std::pair<bool, bool>> OuterFirst, OuterSecond, Inner;
  {
    support::FaultScope Outer(&Plan, /*ScopeKey=*/3);
    for (unsigned Key = 0; Key < 64; ++Key)
      OuterFirst.push_back(Decide(Key));
    {
      // A nested scope (a different change) decides independently...
      support::FaultScope Nested(&Plan, /*ScopeKey=*/4);
      for (unsigned Key = 0; Key < 64; ++Key)
        Inner.push_back(Decide(Key));
    }
    // ...and the outer scope's decisions are restored exactly.
    for (unsigned Key = 0; Key < 64; ++Key)
      OuterSecond.push_back(Decide(Key));
  }
  EXPECT_EQ(OuterFirst, OuterSecond);
  EXPECT_NE(OuterFirst, Inner); // 2^-128 false-failure odds; seed-stable
  // Rate 0.5 over 64 keys x 2 sites: both outcomes occur.
  bool AnyFired = false, AnyClean = false;
  for (auto [K, H] : OuterFirst) {
    AnyFired = AnyFired || K || H;
    AnyClean = AnyClean || (!K && !H);
  }
  EXPECT_TRUE(AnyFired);
  EXPECT_TRUE(AnyClean);
  // Scope gone: decisions stop firing again.
  EXPECT_EQ(Decide(0), std::make_pair(false, false));
}

//===----------------------------------------------------------------------===//
// POSIX pipe helpers
//===----------------------------------------------------------------------===//

TEST(ProcessHelpers, FullReadWriteAcrossPipeBuffer) {
  // 1 MiB through a ~64 KiB pipe: both sides must loop over short
  // transfers. Writer on a thread, reader on the test thread.
  support::Pipe P;
  const std::size_t Size = 1 << 20;
  std::string Sent(Size, '\0');
  for (std::size_t I = 0; I < Size; ++I)
    Sent[I] = static_cast<char>(I * 1315423911u >> 3);
  std::thread Writer([&] {
    EXPECT_EQ(support::writeFull(P.writeFd(), Sent.data(), Size),
              static_cast<ssize_t>(Size));
    P.closeWrite();
  });
  std::string Got(Size, '\0');
  EXPECT_EQ(support::readFull(P.readFd(), Got.data(), Size),
            static_cast<ssize_t>(Size));
  EXPECT_EQ(Got, Sent);
  // EOF after the writer closed: short count, not an error.
  char Extra;
  EXPECT_EQ(support::readFull(P.readFd(), &Extra, 1), 0);
  Writer.join();
}

TEST(ProcessHelpers, ClosedPeerIsEpipeNotSigpipe) {
  support::ScopedSigpipeIgnore Ignore;
  support::Pipe P;
  P.closeRead();
  char Byte = 'x';
  errno = 0;
  EXPECT_EQ(support::writeFull(P.writeFd(), &Byte, 1), -1);
  EXPECT_EQ(errno, EPIPE);
}

TEST(ProcessHelpers, SpawnWaitAndKill) {
  // Clean exit.
  pid_t Pid = support::spawnProcess([] { return 0; });
  ASSERT_GT(Pid, 0);
  support::ExitStatus ES = support::waitProcess(Pid);
  EXPECT_TRUE(ES.cleanExit());
  // Distinguished exit code.
  Pid = support::spawnProcess([] { return 86; });
  ASSERT_GT(Pid, 0);
  ES = support::waitProcess(Pid);
  EXPECT_EQ(ES.K, support::ExitStatus::Kind::Exited);
  EXPECT_EQ(ES.Code, 86);
  // Signal death.
  Pid = support::spawnProcess([]() -> int {
    for (;;)
      ::pause();
  });
  ASSERT_GT(Pid, 0);
  EXPECT_TRUE(support::killProcess(Pid, SIGKILL));
  ES = support::waitProcess(Pid);
  EXPECT_EQ(ES.K, support::ExitStatus::Kind::Signaled);
  EXPECT_EQ(ES.Code, SIGKILL);
  // An escaping exception is contained into exit code 125.
  Pid = support::spawnProcess([]() -> int { throw std::runtime_error("x"); });
  ASSERT_GT(Pid, 0);
  ES = support::waitProcess(Pid);
  EXPECT_EQ(ES.K, support::ExitStatus::Kind::Exited);
  EXPECT_EQ(ES.Code, 125);
}

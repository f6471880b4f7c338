//===- bench/micro_incremental.cpp - Session append vs cold batch ---------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The point of service mode (DESIGN.md "Service mode and the session
/// API"): when one commit lands on an already-analyzed corpus, an
/// AnalysisSession analyzes only the commit's changes, re-filters only
/// the classes they touch and re-clusters only those whose survivors
/// grew, where a batch pipeline re-runs everything. This bench measures
/// that gap at corpus scale and gates on it.
///
/// Scenario: mine a generated corpus down to n changes, split off the
/// final commit's changes (the "append"), then time
///
///   * cold:        DiffCode::run over all n changes (what a batch CLI
///                  invocation re-does when the corpus grows by one
///                  commit), and
///   * incremental: session.ingest(tail) on a session pre-warmed with
///                  the first n - tail changes (warm-up untimed — it is
///                  the one-time cost the service amortizes away).
///
/// Each side is min-of-N with a fresh pre-warmed session per
/// incremental rep, since ingest mutates the session and replaying the
/// same tail would time an append of duplicates instead of a novel
/// commit.
///
/// Self-verifying:
///
///   * byte-identity: the warmed-then-appended session's snapshot JSON
///     equals the cold batch report byte for byte (the session
///     contract);
///   * bookkeeping: the session holds exactly n changes and the append
///     ingested exactly the tail;
///   * speedup: cold wall time over incremental wall time is at least
///     5x (the ISSUE acceptance bar; at n=10k the observed ratio is
///     orders of magnitude higher, so the bar has slack for noise).
///
///   micro_incremental [n] [seed] [out.json]   (defaults: 10000 42
///                                             BENCH_incremental.json)
///
//===----------------------------------------------------------------------===//

#include "core/DiffCode.h"
#include "core/ReportWriter.h"
#include "corpus/CorpusGenerator.h"
#include "corpus/Miner.h"
#include "service/AnalysisSession.h"
#include "support/JsonWriter.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

using namespace diffcode;
using namespace diffcode::core;

namespace {

constexpr double SpeedupBar = 5.0;
constexpr unsigned Reps = 3;

const apimodel::CryptoApiModel &api() {
  return apimodel::CryptoApiModel::javaCryptoApi();
}

std::uint64_t nanosSince(std::chrono::steady_clock::time_point Start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Start)
          .count());
}

} // namespace

int main(int argc, char **argv) {
  long long N = argc > 1 ? std::atoll(argv[1]) : 10000;
  if (N < 2) {
    std::fprintf(stderr,
                 "usage: micro_incremental [n >= 2] [seed] [out.json]"
                 "   (defaults: 10000 42 BENCH_incremental.json)\n");
    return 2;
  }
  std::uint64_t Seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;
  const char *OutPath = argc > 3 ? argv[3] : "BENCH_incremental.json";

  //===--------------------------------------------------------------------===//
  // Corpus: grow until the miner yields at least n changes, then trim
  //===--------------------------------------------------------------------===//

  // ~16-20 mined changes per generated project at the default knobs;
  // start from that estimate and double on a shortfall.
  unsigned Projects = static_cast<unsigned>((N + 15) / 16);
  if (Projects < 8)
    Projects = 8;
  corpus::Corpus C;
  corpus::Miner M(api());
  std::vector<const corpus::CodeChange *> Mined;
  for (unsigned Attempt = 0; Attempt < 6; ++Attempt) {
    corpus::CorpusOptions Opts;
    Opts.NumProjects = Projects;
    Opts.Seed = Seed;
    C = corpus::CorpusGenerator(Opts).generate();
    Mined = M.mine(C);
    if (Mined.size() >= static_cast<std::size_t>(N))
      break;
    Projects *= 2;
  }
  if (Mined.size() < static_cast<std::size_t>(N)) {
    std::fprintf(stderr, "error: only mined %zu of %lld requested changes\n",
                 Mined.size(), N);
    return 2;
  }
  Mined.resize(static_cast<std::size_t>(N));

  // The appended "commit": the trailing run of changes sharing the last
  // change's (project, commit) identity — what one push delivers.
  std::size_t Head = Mined.size();
  while (Head > 0 &&
         Mined[Head - 1]->ProjectName == Mined.back()->ProjectName &&
         Mined[Head - 1]->CommitIndex == Mined.back()->CommitIndex)
    --Head;
  if (Head == 0) {
    std::fprintf(stderr, "error: corpus collapsed into a single commit\n");
    return 2;
  }
  std::vector<corpus::CodeChange> HeadChanges, TailChanges;
  HeadChanges.reserve(Head);
  TailChanges.reserve(Mined.size() - Head);
  for (std::size_t I = 0; I < Mined.size(); ++I)
    (I < Head ? HeadChanges : TailChanges).push_back(*Mined[I]);
  std::fprintf(stderr,
               "incremental bench: %lld changes (seed %llu, %u projects), "
               "append = last commit of %zu changes\n",
               N, static_cast<unsigned long long>(Seed), Projects,
               TailChanges.size());

  PipelineConfig Config; // Threads = 0: hardware width on both sides
  DiffCode System(api(), Config);
  PipelineRequest All;
  All.Changes = Mined;
  All.TargetClasses = api().targetClasses();

  service::SessionOptions SessOpts;
  SessOpts.Config = Config;
  auto warmedSession = [&] {
    auto S = std::make_unique<service::AnalysisSession>(api(), SessOpts);
    S->ingest(HeadChanges);
    return S;
  };

  //===--------------------------------------------------------------------===//
  // Byte-identity + bookkeeping
  //===--------------------------------------------------------------------===//

  std::string ColdJson = corpusReportToJson(System.run(All));
  auto Probe = warmedSession();
  service::IngestStats TailStats = Probe->ingest(TailChanges);
  std::string SessionJson = Probe->reportJson();
  bool ByteIdentical = !ColdJson.empty() && ColdJson == SessionJson;
  bool BookkeepingOk = Probe->size() == Mined.size() &&
                       TailStats.Ingested == TailChanges.size();
  Probe.reset();

  //===--------------------------------------------------------------------===//
  // Throughput: min-of-N, fresh warmed session per incremental rep
  //===--------------------------------------------------------------------===//

  std::uint64_t ColdWallNs = ~std::uint64_t(0);
  std::uint64_t IncrWallNs = ~std::uint64_t(0);
  std::size_t Sink = 0; // keeps the timed runs observable
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    auto Session = warmedSession(); // untimed: the amortized one-time cost
    auto IncrStart = std::chrono::steady_clock::now();
    Sink += Session->ingest(TailChanges).Ingested;
    std::uint64_t Incr = nanosSince(IncrStart);
    if (Incr < IncrWallNs)
      IncrWallNs = Incr;

    auto ColdStart = std::chrono::steady_clock::now();
    Sink += System.run(All).Changes.size();
    std::uint64_t Cold = nanosSince(ColdStart);
    if (Cold < ColdWallNs)
      ColdWallNs = Cold;
  }
  double Speedup =
      static_cast<double>(ColdWallNs) / static_cast<double>(IncrWallNs);
  bool SpeedupOk = Speedup >= SpeedupBar;
  std::fprintf(stderr,
               "  cold batch   %10.2f ms (all %zu changes)\n"
               "  append       %10.2f ms (%zu changes)\n"
               "  speedup      %10.1fx (bar %.0fx)\n",
               ColdWallNs / 1e6, Mined.size(), IncrWallNs / 1e6,
               TailChanges.size(), Speedup, SpeedupBar);

  //===--------------------------------------------------------------------===//
  // Report
  //===--------------------------------------------------------------------===//

  JsonWriter W;
  W.beginObject();
  W.key("bench").value("micro_incremental");
  W.key("n").value(static_cast<std::uint64_t>(Mined.size()));
  W.key("seed").value(Seed);
  W.key("projects").value(static_cast<std::uint64_t>(Projects));
  W.key("append_changes").value(static_cast<std::uint64_t>(TailChanges.size()));
  W.key("reps").value(static_cast<std::uint64_t>(Reps));
  W.key("cold_wall_ns_min").value(ColdWallNs);
  W.key("incremental_wall_ns_min").value(IncrWallNs);
  W.key("speedup").value(Speedup);
  W.key("speedup_bar").value(SpeedupBar);
  W.key("append_ingest").beginObject();
  W.key("classes_repaired")
      .value(static_cast<std::uint64_t>(TailStats.ClassesRepaired));
  W.key("classes_reused")
      .value(static_cast<std::uint64_t>(TailStats.ClassesReused));
  W.endObject();
  W.key("byte_identical").value(ByteIdentical);
  W.key("bookkeeping_ok").value(BookkeepingOk);
  W.key("speedup_ok").value(SpeedupOk);
  bool Pass = ByteIdentical && BookkeepingOk && SpeedupOk && Sink > 0;
  W.key("pass").value(Pass);
  W.endObject();

  std::string Json = W.take();
  std::printf("%s\n", Json.c_str());
  std::ofstream Out(OutPath);
  if (Out)
    Out << Json << "\n";
  else
    std::fprintf(stderr, "warning: cannot write %s\n", OutPath);

  if (!ByteIdentical)
    std::fprintf(stderr,
                 "FAIL: warmed session snapshot differs from cold batch\n");
  if (!BookkeepingOk)
    std::fprintf(stderr, "FAIL: session bookkeeping inconsistent\n");
  if (!SpeedupOk)
    std::fprintf(stderr, "FAIL: append speedup %.2fx below %.0fx bar\n",
                 Speedup, SpeedupBar);
  std::fprintf(stderr, "  %s\n", Pass ? "PASS" : "FAIL");
  return Pass ? 0 : 1;
}

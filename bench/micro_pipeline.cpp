//===- bench/micro_pipeline.cpp - Frontend & analysis throughput -----------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
//
// Micro-benchmark M1: the per-stage cost of the DiffCode pipeline on a
// representative generated source file — lexing, parsing, abstract
// interpretation, DAG derivation, and the full per-change diff. Backs the
// Section 5.1 claim that the analyzer is "efficient and scalable" (the
// paper processed 11,551 code changes).
//
// Besides the google-benchmark suites, `--verify-overhead` runs the
// observability layer's cost guard: alternating metrics-off/metrics-on
// analyzeChanges batches over a mined corpus, asserting the observed run
// stays within 5% of the unobserved one (the ISSUE's overhead bar). A
// second sweep gates the supervised+traced configuration the same way —
// worker observers ship Telemetry frames coalesced with the per-unit
// result writes, so observation must stay within the supervision
// engine's own 10% bar. Self-verifying: exits non-zero when either bar
// is exceeded.
//
//===----------------------------------------------------------------------===//

#include <benchmark/benchmark.h>

#include "core/DiffCode.h"
#include "corpus/CorpusGenerator.h"
#include "exec/Supervisor.h"
#include "corpus/Miner.h"
#include "corpus/Scenario.h"
#include "javaast/AstPrinter.h"
#include "javaast/Lexer.h"
#include "javaast/Parser.h"
#include "obs/Observer.h"
#include "support/JsonWriter.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string_view>

using namespace diffcode;

namespace {

std::string sampleSource(bool Secure) {
  Rng R(2024);
  corpus::ScenarioInstance Inst;
  Inst.Kind = corpus::ScenarioKind::BlockCipher;
  Inst.Details = corpus::drawDetails(Inst.Kind, R);
  Inst.Details.Secure = Secure;
  Inst.StyleSeed = 1234;
  Inst.ClassName = "BenchSample";
  return corpus::renderScenario(Inst, "com.example.bench");
}

void BM_Lexer(benchmark::State &State) {
  std::string Source = sampleSource(true);
  for (auto _ : State) {
    java::DiagnosticsEngine Diags;
    java::Lexer Lex(Source, Diags);
    benchmark::DoNotOptimize(Lex.lexAll());
  }
  State.SetBytesProcessed(State.iterations() * Source.size());
}
BENCHMARK(BM_Lexer);

void BM_Parser(benchmark::State &State) {
  std::string Source = sampleSource(true);
  for (auto _ : State) {
    java::AstContext Ctx;
    java::DiagnosticsEngine Diags;
    benchmark::DoNotOptimize(java::parseJava(Source, Ctx, Diags));
  }
  State.SetBytesProcessed(State.iterations() * Source.size());
}
BENCHMARK(BM_Parser);

void BM_ParserArenaReuse(benchmark::State &State) {
  // Steady-state parse cost when one AstContext is recycled across files,
  // as processChange does: the arena reaches zero allocator traffic.
  std::string Source = sampleSource(true);
  java::AstContext Ctx;
  for (auto _ : State) {
    Ctx.reset();
    java::DiagnosticsEngine Diags;
    benchmark::DoNotOptimize(java::parseJava(Source, Ctx, Diags));
  }
  State.SetBytesProcessed(State.iterations() * Source.size());
}
BENCHMARK(BM_ParserArenaReuse);

void BM_PrettyPrinter(benchmark::State &State) {
  std::string Source = sampleSource(true);
  java::AstContext Ctx;
  java::DiagnosticsEngine Diags;
  java::CompilationUnit *Unit = java::parseJava(Source, Ctx, Diags);
  for (auto _ : State) {
    java::AstPrinter Printer;
    benchmark::DoNotOptimize(Printer.print(Unit));
  }
}
BENCHMARK(BM_PrettyPrinter);

void BM_AbstractInterpreter(benchmark::State &State) {
  std::string Source = sampleSource(true);
  java::AstContext Ctx;
  java::DiagnosticsEngine Diags;
  java::CompilationUnit *Unit = java::parseJava(Source, Ctx, Diags);
  const apimodel::CryptoApiModel &Api =
      apimodel::CryptoApiModel::javaCryptoApi();
  for (auto _ : State) {
    analysis::AbstractInterpreter Interp(Api);
    benchmark::DoNotOptimize(Interp.analyze(Unit));
  }
}
BENCHMARK(BM_AbstractInterpreter);

void BM_DagDerivation(benchmark::State &State) {
  core::DiffCode System(apimodel::CryptoApiModel::javaCryptoApi());
  analysis::AnalysisResult Result = System.analyzeSourceChecked(sampleSource(true)).Result;
  for (auto _ : State)
    benchmark::DoNotOptimize(System.dagsForClass(Result, "Cipher"));
}
BENCHMARK(BM_DagDerivation);

void BM_FullCodeChange(benchmark::State &State) {
  core::DiffCode System(apimodel::CryptoApiModel::javaCryptoApi());
  corpus::CodeChange Change;
  Change.OldCode = sampleSource(false);
  Change.NewCode = sampleSource(true);
  const std::vector<std::string> &Targets =
      apimodel::CryptoApiModel::javaCryptoApi().targetClasses();
  for (auto _ : State)
    benchmark::DoNotOptimize(
        System.processChange(Change, Targets, {}, *System.labels()));
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_FullCodeChange);

//===----------------------------------------------------------------------===//
// --verify-overhead: the observability cost guard
//===----------------------------------------------------------------------===//

std::uint64_t nanosSince(std::chrono::steady_clock::time_point Start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Start)
          .count());
}

/// One alternating off/on sweep: \p Reps batches each way, interleaved so
/// slow drift (thermal, page cache) hits both sides equally. Returns the
/// minimum wall time per side — min-of-N is the standard noise filter for
/// a shared machine.
struct OverheadSample {
  std::uint64_t OffNs = ~std::uint64_t(0);
  std::uint64_t OnNs = ~std::uint64_t(0);
  double ratio() const {
    return static_cast<double>(OnNs) / static_cast<double>(OffNs);
  }
};

OverheadSample measureOverhead(const core::DiffCode &System,
                               const core::PipelineRequest &Off,
                               unsigned Reps) {
  OverheadSample Sample;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    auto Start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(System.analyzeChanges(Off));
    std::uint64_t OffNs = nanosSince(Start);
    if (OffNs < Sample.OffNs)
      Sample.OffNs = OffNs;

    obs::Observer Obs; // fresh per batch: measures first-touch cost too
    core::PipelineRequest On = Off;
    On.Metrics = &Obs;
    Start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(System.analyzeChanges(On));
    std::uint64_t OnNs = nanosSince(Start);
    if (OnNs < Sample.OnNs)
      Sample.OnNs = OnNs;
  }
  return Sample;
}

/// The supervised flavor of measureOverhead: the same alternating
/// off/on sweep, but each batch runs through exec::superviseChanges so
/// the "on" side pays the whole telemetry path — worker-side observers,
/// Telemetry frames coalesced into the per-unit result writes, and the
/// coordinator-side stitch/merge.
OverheadSample measureSupervisedOverhead(const core::DiffCode &System,
                                         const core::PipelineRequest &Off,
                                         unsigned Reps) {
  OverheadSample Sample;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    auto Start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(exec::superviseChanges(System, Off));
    std::uint64_t OffNs = nanosSince(Start);
    if (OffNs < Sample.OffNs)
      Sample.OffNs = OffNs;

    obs::Observer Obs;
    core::PipelineRequest On = Off;
    On.Metrics = &Obs;
    Start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(exec::superviseChanges(System, On));
    std::uint64_t OnNs = nanosSince(Start);
    if (OnNs < Sample.OnNs)
      Sample.OnNs = OnNs;
  }
  return Sample;
}

int verifyOverhead() {
  constexpr double Bar = 1.05; // observed run within 5% of unobserved
  // The supervised configuration carries fork/pipe noise an in-process
  // batch does not, so its observation gate matches the supervision
  // engine's own overhead bar (bench/micro_supervision.cpp).
  constexpr double SupervisedBar = 1.10;
  constexpr std::size_t MaxChanges = 48;

  corpus::CorpusOptions Opts;
  Opts.Seed = 42;
  Opts.NumProjects = 16;
  corpus::Corpus C = corpus::CorpusGenerator(Opts).generate();
  const apimodel::CryptoApiModel &Api =
      apimodel::CryptoApiModel::javaCryptoApi();
  corpus::Miner M(Api);
  std::vector<const corpus::CodeChange *> Mined = M.mine(C);
  if (Mined.size() > MaxChanges)
    Mined.resize(MaxChanges);
  std::fprintf(stderr, "overhead guard: %zu changes, bar %.0f%%\n",
               Mined.size(), (Bar - 1.0) * 100.0);

  core::DiffCode System(Api);
  core::PipelineRequest Off;
  Off.Changes = Mined;
  Off.TargetClasses = Api.targetClasses();

  // Warm both paths (page in the corpus, populate interner and metric
  // names) before anything is timed.
  benchmark::DoNotOptimize(System.analyzeChanges(Off));
  {
    obs::Observer Obs;
    core::PipelineRequest On = Off;
    On.Metrics = &Obs;
    benchmark::DoNotOptimize(System.analyzeChanges(On));
  }

  unsigned Reps = 7;
  OverheadSample Sample = measureOverhead(System, Off, Reps);
  bool Pass = Sample.ratio() < Bar;
  if (!Pass) {
    // One retry with more batches: a single unlucky scheduling quantum on
    // a busy host should not fail the guard.
    Reps = 15;
    std::fprintf(stderr, "  ratio %.4f over bar, retrying with %u reps\n",
                 Sample.ratio(), Reps);
    Sample = measureOverhead(System, Off, Reps);
    Pass = Sample.ratio() < Bar;
  }

  std::fprintf(stderr, "  off %8.2f ms  on %8.2f ms  ratio %.4f  %s\n",
               Sample.OffNs / 1e6, Sample.OnNs / 1e6, Sample.ratio(),
               Pass ? "PASS" : "FAIL");

  // The supervised+traced gate: the same corpus through the worker-pool
  // engine, unobserved vs observed (stitched spans + shipped metrics).
  core::PipelineRequest SupOff = Off;
  SupOff.Exec.Mode = core::ExecutionMode::Supervised;
  SupOff.Exec.Workers = 2;
  benchmark::DoNotOptimize(exec::superviseChanges(System, SupOff)); // warm
  unsigned SupReps = 5;
  OverheadSample Sup = measureSupervisedOverhead(System, SupOff, SupReps);
  bool SupPass = Sup.ratio() < SupervisedBar;
  if (!SupPass) {
    SupReps = 11;
    std::fprintf(stderr,
                 "  supervised ratio %.4f over bar, retrying with %u reps\n",
                 Sup.ratio(), SupReps);
    Sup = measureSupervisedOverhead(System, SupOff, SupReps);
    SupPass = Sup.ratio() < SupervisedBar;
  }
  std::fprintf(stderr, "  supervised off %8.2f ms  on %8.2f ms  ratio %.4f  %s\n",
               Sup.OffNs / 1e6, Sup.OnNs / 1e6, Sup.ratio(),
               SupPass ? "PASS" : "FAIL");

  JsonWriter W;
  W.beginObject();
  W.key("bench").value("micro_pipeline_overhead");
  W.key("changes").value(static_cast<std::uint64_t>(Mined.size()));
  W.key("reps").value(static_cast<std::uint64_t>(Reps));
  W.key("off_ns_min").value(Sample.OffNs);
  W.key("on_ns_min").value(Sample.OnNs);
  W.key("overhead_ratio").value(Sample.ratio());
  W.key("overhead_bar").value(Bar);
  W.key("sup_reps").value(static_cast<std::uint64_t>(SupReps));
  W.key("sup_off_ns_min").value(Sup.OffNs);
  W.key("sup_on_ns_min").value(Sup.OnNs);
  W.key("sup_overhead_ratio").value(Sup.ratio());
  W.key("sup_overhead_bar").value(SupervisedBar);
  W.key("pass").value(Pass && SupPass);
  W.endObject();
  std::printf("%s\n", W.take().c_str());

  return Pass && SupPass ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  for (int I = 1; I < argc; ++I)
    if (std::string_view(argv[I]) == "--verify-overhead")
      return verifyOverhead();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

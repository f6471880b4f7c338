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
// stays within 5% of the unobserved one in CPU time. A second sweep
// gates the supervised+traced configuration the same way — observed
// workers record each unit into a fresh registry and tracer and ship
// both in a Telemetry frame coalesced with the unit's result writes, so
// observation must stay within the supervision engine's own 10% bar.
// Self-verifying: exits non-zero when either bar is exceeded.
//
//===----------------------------------------------------------------------===//

#include <benchmark/benchmark.h>

#include "core/DiffCode.h"
#include "corpus/CorpusGenerator.h"
#include "exec/Supervisor.h"
#include "corpus/Miner.h"
#include "corpus/Scenario.h"
#include "javaast/Lexer.h"
#include "javaast/Parser.h"
#include "obs/Observer.h"
#include "support/JsonWriter.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <sys/resource.h>

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

/// CPU nanoseconds (user + system) this process and its reaped children
/// have used. superviseChanges reaps every worker before it returns, so
/// a delta across a supervised batch charges the whole pool; an
/// in-process batch reaps no child, so its delta is the process's own.
/// CPU time is what the guard gates: it leaves out the time a batch
/// waits for a core on a shared host.
std::uint64_t cpuNowNs() {
  auto Sum = [](const rusage &R) {
    auto Tv = [](const timeval &T) {
      return static_cast<std::uint64_t>(T.tv_sec) * 1000000000ull +
             static_cast<std::uint64_t>(T.tv_usec) * 1000ull;
    };
    return Tv(R.ru_utime) + Tv(R.ru_stime);
  };
  rusage Self{}, Children{};
  getrusage(RUSAGE_SELF, &Self);
  getrusage(RUSAGE_CHILDREN, &Children);
  return Sum(Self) + Sum(Children);
}

/// One alternating off/on sweep of Reps batches each way: minimum CPU
/// time (gated) and minimum wall time (reported) per side. Min-of-N is
/// the standard noise filter for a shared machine.
struct OverheadSample {
  unsigned Reps = 0;
  std::uint64_t OffCpuNs = ~std::uint64_t(0);
  std::uint64_t OnCpuNs = ~std::uint64_t(0);
  std::uint64_t OffWallNs = ~std::uint64_t(0);
  std::uint64_t OnWallNs = ~std::uint64_t(0);
  double ratio() const {
    return static_cast<double>(OnCpuNs) / static_cast<double>(OffCpuNs);
  }
  double wallRatio() const {
    return static_cast<double>(OnWallNs) / static_cast<double>(OffWallNs);
  }
};

/// \p Reps batches each way through \p RunBatch, interleaved so slow
/// drift (thermal, page cache) hits both sides equally. The "on" side
/// gets a fresh observer per batch, so it pays first-touch costs too.
template <typename RunFn>
OverheadSample measureOverhead(const core::PipelineRequest &Off,
                               unsigned Reps, RunFn RunBatch) {
  OverheadSample Sample;
  Sample.Reps = Reps;
  auto Time = [&](const core::PipelineRequest &Request, std::uint64_t &Cpu,
                  std::uint64_t &Wall) {
    std::uint64_t Cpu0 = cpuNowNs();
    auto Start = std::chrono::steady_clock::now();
    RunBatch(Request);
    Wall = std::min(Wall, nanosSince(Start));
    Cpu = std::min(Cpu, cpuNowNs() - Cpu0);
  };
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    Time(Off, Sample.OffCpuNs, Sample.OffWallNs);
    obs::Observer Obs;
    core::PipelineRequest On = Off;
    On.Metrics = &Obs;
    Time(On, Sample.OnCpuNs, Sample.OnWallNs);
  }
  return Sample;
}

/// One gated sweep of \p Reps batches, retried once with \p RetryReps
/// when over \p Bar: a single unlucky scheduling quantum on a busy host
/// should not fail the guard. Returns the last sweep.
template <typename RunFn>
OverheadSample gatedSweep(const char *Label, double Bar,
                          const core::PipelineRequest &Off, unsigned Reps,
                          unsigned RetryReps, RunFn RunBatch) {
  OverheadSample Sample = measureOverhead(Off, Reps, RunBatch);
  if (Sample.ratio() >= Bar) {
    std::fprintf(stderr,
                 "  %s cpu ratio %.4f over bar, retrying with %u reps\n",
                 Label, Sample.ratio(), RetryReps);
    Sample = measureOverhead(Off, RetryReps, RunBatch);
  }
  bool Pass = Sample.ratio() < Bar;
  std::fprintf(stderr,
               "  %-10s cpu off %7.2f ms  on %7.2f ms  ratio %.4f  %s"
               "   (wall %.2f / %.2f ms, ratio %.4f, ungated)\n",
               Label, Sample.OffCpuNs / 1e6, Sample.OnCpuNs / 1e6,
               Sample.ratio(), Pass ? "PASS" : "FAIL", Sample.OffWallNs / 1e6,
               Sample.OnWallNs / 1e6, Sample.wallRatio());
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
  std::fprintf(stderr,
               "overhead guard: %zu changes, CPU-time bars %.0f%% "
               "(in-process) and %.0f%% (supervised)\n",
               Mined.size(), (Bar - 1.0) * 100.0,
               (SupervisedBar - 1.0) * 100.0);

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

  OverheadSample Sample =
      gatedSweep("in-process", Bar, Off, 7, 15,
                 [&](const core::PipelineRequest &R) {
                   benchmark::DoNotOptimize(System.analyzeChanges(R));
                 });
  bool Pass = Sample.ratio() < Bar;

  // The supervised+traced gate: the same corpus through the worker-pool
  // engine, unobserved vs observed (stitched spans + shipped metrics).
  core::PipelineRequest SupOff = Off;
  SupOff.Exec.Mode = core::ExecutionMode::Supervised;
  SupOff.Exec.Workers = 2;
  auto Supervise = [&](const core::PipelineRequest &R) {
    benchmark::DoNotOptimize(exec::superviseChanges(System, R));
  };
  Supervise(SupOff); // warm
  OverheadSample Sup =
      gatedSweep("supervised", SupervisedBar, SupOff, 5, 11, Supervise);
  bool SupPass = Sup.ratio() < SupervisedBar;

  JsonWriter W;
  W.beginObject();
  W.key("bench").value("micro_pipeline_overhead");
  W.key("changes").value(static_cast<std::uint64_t>(Mined.size()));
  W.key("reps").value(static_cast<std::uint64_t>(Sample.Reps));
  W.key("off_cpu_ns_min").value(Sample.OffCpuNs);
  W.key("on_cpu_ns_min").value(Sample.OnCpuNs);
  W.key("overhead_ratio").value(Sample.ratio());
  W.key("overhead_bar").value(Bar);
  W.key("off_wall_ns_min").value(Sample.OffWallNs);
  W.key("on_wall_ns_min").value(Sample.OnWallNs);
  W.key("wall_ratio").value(Sample.wallRatio());
  W.key("sup_reps").value(static_cast<std::uint64_t>(Sup.Reps));
  W.key("sup_off_cpu_ns_min").value(Sup.OffCpuNs);
  W.key("sup_on_cpu_ns_min").value(Sup.OnCpuNs);
  W.key("sup_overhead_ratio").value(Sup.ratio());
  W.key("sup_overhead_bar").value(SupervisedBar);
  W.key("sup_off_wall_ns_min").value(Sup.OffWallNs);
  W.key("sup_on_wall_ns_min").value(Sup.OnWallNs);
  W.key("sup_wall_ratio").value(Sup.wallRatio());
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

//===- perfbench/src/Inputs.cpp - Seeded in-memory workload inputs --------===//

#include "Bench.h"

#include "corpus/CorpusGenerator.h"
#include "corpus/Miner.h"
#include "rules/BuiltinRules.h"

#include <algorithm>

using namespace perfbench;

const apimodel::CryptoApiModel &perfbench::api() {
  return apimodel::CryptoApiModel::javaCryptoApi();
}

const std::vector<const rules::Rule *> &perfbench::classifyRules() {
  static const std::vector<const rules::Rule *> Rules = [] {
    std::vector<const rules::Rule *> Out;
    for (const rules::Rule &R : rules::elicitedRules())
      Out.push_back(&R);
    return Out;
  }();
  return Rules;
}

core::PipelineConfig perfbench::pipelineConfig(unsigned Threads) {
  core::PipelineConfig Config;
  Config.Threads = Threads;
  return Config;
}

core::PipelineRequest perfbench::mineRequest(const MinedCorpus &M,
                                             bool Supervised) {
  core::PipelineRequest Request;
  Request.Changes = M.Changes;
  Request.TargetClasses = api().targetClasses();
  Request.ClassifyWith = classifyRules();
  if (Supervised) {
    Request.Exec.Mode = core::ExecutionMode::Supervised;
    Request.Exec.Workers = Width;
  }
  return Request;
}

service::SessionOptions perfbench::sessionOptions() {
  service::SessionOptions Opts;
  Opts.Config = pipelineConfig(1);
  Opts.ClassifyWith = classifyRules();
  return Opts;
}

scan::ScanConfig perfbench::scanConfig() {
  scan::ScanConfig Config;
  Config.Threads = Width;
  return Config;
}

static corpus::Corpus generate(unsigned Projects, std::uint64_t Seed) {
  corpus::CorpusOptions Opts;
  Opts.NumProjects = Projects;
  Opts.Seed = Seed;
  return corpus::CorpusGenerator(Opts).generate();
}

MinedCorpus perfbench::mineCorpus(unsigned Projects, std::uint64_t Seed,
                                  obs::Tracer *T) {
  MinedCorpus M;
  {
    obs::Span S(T, "corpus.generate");
    M.Corpus = generate(Projects, Seed);
  }
  obs::Span S(T, "corpus.mine");
  M.Changes = corpus::Miner(api()).mine(M.Corpus);
  return M;
}

ForkCorpus perfbench::forkCorpus(unsigned Projects, std::uint64_t Seed,
                                obs::Tracer *T) {
  ForkCorpus F;
  obs::Span S(T, "corpus.generate");
  F.Heads = generate(Projects, Seed);
  F.Forks.reserve(F.Heads.Projects.size());
  for (const corpus::Project &P : F.Heads.Projects) {
    corpus::Project Fork = P;
    Fork.Name += "-fork";
    if (!P.History.empty()) {
      const corpus::CodeChange &Last = P.History.back();
      auto It = std::find_if(Fork.Files.begin(), Fork.Files.end(),
                             [&](const corpus::ProjectFile &File) {
                               return File.Name == Last.FileName;
                             });
      if (It == Fork.Files.end() && !Last.OldCode.empty())
        Fork.Files.push_back({Last.FileName, Last.OldCode});
      else if (It != Fork.Files.end() && Last.OldCode.empty())
        Fork.Files.erase(It);
      else if (It != Fork.Files.end())
        It->Code = Last.OldCode;
    }
    F.Forks.push_back(std::move(Fork));
  }
  for (std::size_t I = 0; I < F.Forks.size(); ++I) {
    F.Scan.push_back(&F.Heads.Projects[I]);
    F.Scan.push_back(&F.Forks[I]);
    F.Units += F.Heads.Projects[I].Files.size() + F.Forks[I].Files.size();
  }
  return F;
}

AppendSplit perfbench::splitForAppend(const MinedCorpus &M, unsigned Commits) {
  // Walk commit groups (consecutive changes sharing project and commit
  // index, what one push delivers) back from the end.
  const auto &C = M.Changes;
  std::vector<std::size_t> Starts;
  for (std::size_t I = 0; I < C.size(); ++I)
    if (I == 0 || C[I]->ProjectName != C[I - 1]->ProjectName ||
        C[I]->CommitIndex != C[I - 1]->CommitIndex)
      Starts.push_back(I);
  std::size_t Take = std::min<std::size_t>(Commits, Starts.size() / 2);
  std::size_t HeadEnd = Starts[Starts.size() - Take];
  AppendSplit S;
  for (std::size_t I = 0; I < HeadEnd; ++I)
    S.Head.push_back(*C[I]);
  for (std::size_t G = Starts.size() - Take; G < Starts.size(); ++G) {
    std::size_t End = G + 1 < Starts.size() ? Starts[G + 1] : C.size();
    std::vector<corpus::CodeChange> Commit;
    for (std::size_t I = Starts[G]; I < End; ++I)
      Commit.push_back(*C[I]);
    S.Commits.push_back(std::move(Commit));
  }
  return S;
}

double perfbench::verdictAgreement(const std::vector<core::ChangeRecord> &Records,
                                   std::size_t &Labelled) {
  std::size_t Agree = 0;
  Labelled = 0;
  for (const core::ChangeRecord &Record : Records) {
    const std::string &Kind = Record.GroundTruthKind;
    bool Fix = Kind.rfind("fix:", 0) == 0, Bug = Kind.rfind("bug:", 0) == 0;
    if (!Fix && !Bug)
      continue;
    ++Labelled;
    auto It = Record.Classification.find(Kind.substr(4));
    if (It != Record.Classification.end() &&
        It->second == (Fix ? rules::ChangeClass::SecurityFix
                           : rules::ChangeClass::BuggyChange))
      ++Agree;
  }
  return Labelled ? double(Agree) / double(Labelled) : 0.0;
}

void perfbench::foldProject(scan::ScanReport &Report,
                            scan::ProjectScanRecord Rec) {
  ++Report.StatusCounts[static_cast<unsigned>(Rec.Status)];
  if (Rec.Report.anyMatch())
    ++Report.ProjectsWithViolation;
  const std::vector<rules::RuleVerdict> &Verdicts = Rec.Report.verdicts();
  for (std::size_t J = 0; J < Verdicts.size(); ++J) {
    scan::RuleTotal &Total = Report.Rules[J];
    Total.Applicable += Verdicts[J].Applicable;
    Total.Matched += Verdicts[J].Matched;
    Total.Violations += Verdicts[J].Violations.size();
    Total.Suppressed += Verdicts[J].Suppressed;
  }
  Report.Projects.push_back(std::move(Rec));
}

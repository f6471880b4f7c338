//===- bench/fig10_rule_violations.cpp - Reproduces Figure 10 --------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
//
// Figure 10: CryptoChecker over the project corpus — for each rule R1-R13
// the number of projects with at least one applicable usage and the
// number with at least one violating usage.
//
// Shape targets (paper, 519 projects):
//   * > 57% of projects violate at least one rule;
//   * near-universal matching for R3 (94.8%) and R5 (97.6%) — the "safe"
//     configuration is rare in the wild;
//   * mid-range matching for R1/R7 (28-35%), low for R9/R10/R12 (< 6%).
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"

#include "rules/BuiltinRules.h"
#include "rules/CryptoChecker.h"
#include "support/TablePrinter.h"

#include <iostream>
#include <map>

using namespace diffcode;
using namespace diffcode::rules;

namespace {

struct PaperRow {
  const char *Rule;
  double ApplicablePct, MatchingPct;
};
const PaperRow PaperRows[] = {
    {"R1", 49.5, 34.6},  {"R2", 12.3, 23.4}, {"R3", 58.8, 94.8},
    {"R4", 58.8, 1.0},   {"R5", 40.7, 97.6}, {"R6", 11.4, 81.4},
    {"R7", 40.7, 28.4},  {"R8", 40.7, 9.5},  {"R9", 23.9, 5.6},
    {"R10", 44.7, 5.2},  {"R11", 12.3, 11.0}, {"R12", 58.8, 0.3},
    {"R13", 1.5, 50.0},
};

} // namespace

int main(int argc, char **argv) {
  std::printf("== Figure 10: CryptoChecker rule violations across projects "
              "==\n\n");
  corpus::CorpusOptions Opts = bench::standardCorpus(argc, argv);
  std::printf("corpus: %u synthetic projects (seed %llu)\n\n",
              Opts.NumProjects, static_cast<unsigned long long>(Opts.Seed));
  corpus::Corpus C = corpus::CorpusGenerator(Opts).generate();

  const apimodel::CryptoApiModel &Api =
      apimodel::CryptoApiModel::javaCryptoApi();
  core::DiffCode System(Api);
  CryptoChecker Checker;

  std::map<std::string, unsigned> Applicable, Matching;
  unsigned ProjectsWithViolation = 0;

  for (const corpus::Project &P : C.Projects) {
    // Analyze every HEAD file of the project.
    std::vector<UnitFacts> Units;
    for (const corpus::ProjectFile &File : P.Files)
      Units.push_back(
          UnitFacts::from(System.analyzeSourceChecked(File.Code).Result));

    ProjectReport Report = Checker.checkProject(Units, P.Meta);
    for (const RuleVerdict &Verdict : Report.verdicts()) {
      if (Verdict.Applicable)
        ++Applicable[Report.text(Verdict.Rule)];
      if (Verdict.Matched)
        ++Matching[Report.text(Verdict.Rule)];
    }
    if (Report.anyMatch())
      ++ProjectsWithViolation;
  }

  std::size_t N = C.Projects.size();
  TablePrinter Table({"Rule", "Applicable (% of total)",
                      "Matching (% of appl.)", "paper appl.%",
                      "paper match%"});
  for (std::size_t I = 0; I < std::size(PaperRows); ++I) {
    const char *RuleId = PaperRows[I].Rule;
    unsigned App = Applicable[RuleId], Match = Matching[RuleId];
    char AppBuf[64], MatchBuf[64], PA[32], PM[32];
    std::snprintf(AppBuf, sizeof(AppBuf), "%u (%.1f%%)", App,
                  N ? 100.0 * App / N : 0.0);
    std::snprintf(MatchBuf, sizeof(MatchBuf), "%u (%.1f%%)", Match,
                  App ? 100.0 * Match / App : 0.0);
    std::snprintf(PA, sizeof(PA), "%.1f%%", PaperRows[I].ApplicablePct);
    std::snprintf(PM, sizeof(PM), "%.1f%%", PaperRows[I].MatchingPct);
    Table.addRow({RuleId, AppBuf, MatchBuf, PA, PM});
  }
  Table.print(std::cout);

  std::printf("\nprojects violating at least one rule: %u / %zu (%.1f%%)  "
              "(paper: > 57%%)\n",
              ProjectsWithViolation, N,
              N ? 100.0 * ProjectsWithViolation / N : 0.0);
  return 0;
}

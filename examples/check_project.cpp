//===- examples/check_project.cpp - CryptoChecker on a project -------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
//
// Runs CryptoChecker (all 13 elicited rules, Figure 9) over either the
// .java files passed on the command line or, with no arguments, over a
// freshly generated synthetic project. Prints per-rule verdicts and the
// violating allocation sites.
//
// Usage: check_project [file.java ...]
//
//===----------------------------------------------------------------------===//

#include "core/DiffCode.h"
#include "corpus/CorpusGenerator.h"
#include "rules/BuiltinRules.h"
#include "rules/CryptoChecker.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace diffcode;

namespace {

std::string readFile(const char *Path) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open %s\n", Path);
    return std::string();
  }
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

} // namespace

int main(int argc, char **argv) {
  const apimodel::CryptoApiModel &Api = apimodel::CryptoApiModel::javaCryptoApi();
  core::DiffCode System(Api);

  std::vector<std::pair<std::string, std::string>> Sources; // name, code
  rules::ProjectMetadata Meta;

  if (argc > 1) {
    for (int I = 1; I < argc; ++I) {
      std::string Code = readFile(argv[I]);
      if (!Code.empty())
        Sources.emplace_back(argv[I], std::move(Code));
    }
  } else {
    std::printf("(no files given — generating a synthetic project)\n\n");
    corpus::CorpusOptions Opts;
    Opts.Seed = 7;
    Opts.MaxFilesPerProject = 4;
    Opts.MinFilesPerProject = 3;
    Rng R(Opts.Seed);
    corpus::Project P =
        corpus::CorpusGenerator(Opts).generateProject("demo", R);
    Meta = P.Meta;
    for (const corpus::ProjectFile &File : P.Files)
      Sources.emplace_back(File.Name, File.Code);
  }

  std::vector<rules::UnitFacts> Units;
  Units.reserve(Sources.size());
  for (const auto &[Name, Code] : Sources) {
    std::printf("analyzing %s ...\n", Name.c_str());
    Units.push_back(
        rules::UnitFacts::from(System.analyzeSourceChecked(Code).Result));
  }

  rules::CryptoChecker Checker;
  rules::ProjectReport Report = Checker.checkProject(Units, Meta);

  std::printf("\n%-5s %-11s %-8s %s\n", "rule", "applicable", "matched",
              "description");
  for (const rules::RuleVerdict &Verdict : Report.verdicts()) {
    const std::string &RuleId = Report.text(Verdict.Rule);
    const rules::Rule *R = rules::findRule(RuleId);
    std::printf("%-5s %-11s %-8s %s\n", RuleId.c_str(),
                Verdict.Applicable ? "yes" : "no",
                Verdict.Matched ? "YES" : "no",
                R ? R->Description.c_str() : "");
    for (const rules::Violation &V : Verdict.Violations)
      std::printf("      -> %s at %s (%s)\n", Report.text(V.Type).c_str(),
                  Report.text(V.Site).c_str(),
                  Sources[V.UnitIndex].first.c_str());
  }
  std::printf("\nproject %s at least one rule\n",
              Report.anyMatch() ? "VIOLATES" : "passes");
  return Report.anyMatch() ? 1 : 0;
}

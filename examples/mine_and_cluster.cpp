//===- examples/mine_and_cluster.cpp - The full DiffCode pipeline ----------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
//
// End-to-end demo of Sections 4-6: generate a GitHub-shaped corpus, mine
// the crypto-touching commits, run the abstraction + filters, cluster the
// surviving semantic usage changes per target class, and print the
// Cipher dendrogram together with auto-suggested rule candidates for the
// largest clusters.
//
// Usage: mine_and_cluster [num_projects] [seed]
//
//===----------------------------------------------------------------------===//

#include "core/DiffCode.h"
#include "corpus/CorpusGenerator.h"
#include "corpus/Miner.h"
#include "rules/RuleSuggestion.h"

#include <cstdio>
#include <cstdlib>

using namespace diffcode;

int main(int argc, char **argv) {
  corpus::CorpusOptions CorpusOpts;
  CorpusOpts.NumProjects = argc > 1 ? std::atoi(argv[1]) : 40;
  CorpusOpts.Seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;

  std::printf("generating corpus: %u projects (seed %llu)...\n",
              CorpusOpts.NumProjects,
              static_cast<unsigned long long>(CorpusOpts.Seed));
  corpus::Corpus C = corpus::CorpusGenerator(CorpusOpts).generate();

  const apimodel::CryptoApiModel &Api = apimodel::CryptoApiModel::javaCryptoApi();
  corpus::Miner M(Api);
  std::vector<const corpus::CodeChange *> Mined = M.mine(C);
  std::printf("mined %zu crypto-touching code changes out of %zu commits\n\n",
              Mined.size(), C.totalChanges());

  core::DiffCode System(Api);
  core::CorpusReport Report = System.run(
      {.Changes = Mined, .TargetClasses = Api.targetClasses()});

  std::printf("%-16s %8s %7s %6s %6s %6s\n", "target class", "usages",
              "fsame", "fadd", "frem", "fdup");
  for (const core::ClassReport &Class : Report.PerClass)
    std::printf("%-16s %8zu %7zu %6zu %6zu %6zu\n",
                Class.TargetClass.c_str(), Class.Filtered.Total,
                Class.Filtered.AfterSame, Class.Filtered.AfterAdd,
                Class.Filtered.AfterRem, Class.Filtered.AfterDup);

  // Show the Cipher dendrogram (Figure 8 analogue) and suggest rules for
  // the flat clusters at the default cut threshold.
  for (const core::ClassReport &Class : Report.PerClass) {
    if (Class.TargetClass != "Cipher" || Class.Filtered.Kept.empty())
      continue;
    std::printf("\n== hierarchical clustering of the %zu semantic Cipher "
                "changes ==\n",
                Class.Filtered.Kept.size());
    std::printf("%s", Class.Tree
                          .render([&](std::size_t Item) {
                            return Class.Filtered.Kept[Item].str();
                          })
                          .c_str());

    std::printf("\n== auto-suggested rule candidates (clusters with >= 2 "
                "changes) ==\n");
    for (const std::vector<std::size_t> &Cluster :
         Class.Tree.cut(cluster::DefaultCut)) {
      if (Cluster.size() < 2)
        continue;
      std::vector<usage::UsageChange> Members;
      for (std::size_t Item : Cluster)
        Members.push_back(Class.Filtered.Kept[Item]);
      if (auto Suggested = rules::suggestRuleForCluster(
              Members, "cluster-" + std::to_string(Cluster.size())))
        std::printf("  [%zu changes] %s\n", Cluster.size(),
                    rules::describeRule(*Suggested).c_str());
    }
  }
  return 0;
}

//===- bench/fig8_dendrogram.cpp - Reproduces Figure 8 ---------------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
//
// Figure 8: the hierarchical clustering of the Cipher usage changes. The
// paper's figure shows a cluster of three usage changes that all switch
// from AES in (implicit) ECB mode to CBC/GCM with an IvParameterSpec —
// the cluster that identifies rule R7.
//
// Shape targets:
//   * a cluster exists whose members remove an "arg1:AES..." ECB-style
//     getInstance feature and add a feedback-mode transform + IV;
//   * the cluster's auto-suggested rule matches ECB usages (R7's shape).
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"

#include "rules/RuleSuggestion.h"

#include <iostream>

using namespace diffcode;

namespace {

bool removesEcbFeature(const usage::UsageChange &Change) {
  for (const usage::FeaturePath &Path : Change.removedPaths())
    for (const usage::NodeLabel &Label : Path)
      if (Label.K == usage::NodeLabel::Kind::Arg && Label.ValueIsString &&
          (Label.Text == "AES" || Label.Text.rfind("AES/ECB", 0) == 0 ||
           Label.Text == "DES" || Label.Text.rfind("DES/", 0) == 0))
        return true;
  return false;
}

bool addsFeedbackMode(const usage::UsageChange &Change) {
  for (const usage::FeaturePath &Path : Change.addedPaths())
    for (const usage::NodeLabel &Label : Path)
      if (Label.K == usage::NodeLabel::Kind::Arg &&
          (Label.Text.find("/CBC") != std::string::npos ||
           Label.Text.find("/GCM") != std::string::npos ||
           Label.Text.find("/CTR") != std::string::npos ||
           Label.Text == "IvParameterSpec"))
        return true;
  return false;
}

} // namespace

int main(int argc, char **argv) {
  std::printf("== Figure 8: hierarchical clustering of Cipher usage changes "
              "==\n\n");
  bench::MinedCorpus Mined = bench::mineStandardCorpus(argc, argv);

  const apimodel::CryptoApiModel &Api =
      apimodel::CryptoApiModel::javaCryptoApi();
  core::PipelineConfig SysOpts;
  SysOpts.Threads = 0; // all cores; results are order-deterministic
  core::DiffCode System(Api, SysOpts);
  core::CorpusReport Report = System.run(
      {.Changes = Mined.Changes, .TargetClasses = {"Cipher"}});
  const core::ClassReport &Cipher = Report.PerClass.front();
  const std::vector<usage::UsageChange> &Kept = Cipher.Filtered.Kept;
  std::printf("%zu semantic Cipher usage changes after filtering\n\n",
              Kept.size());

  std::printf("dendrogram (complete linkage, usageDist):\n");
  std::printf("%s\n", Cipher.Tree
                          .render([&](std::size_t Item) {
                            std::string Label = Kept[Item].str();
                            if (!Label.empty() && Label.back() == '\n')
                              Label.pop_back();
                            return "[" + Kept[Item].Origin + "]\n" + Label;
                          })
                          .c_str());

  // Find the ECB->feedback-mode cluster (the paper's R7 cluster).
  std::printf("flat clusters at cut %.2f:\n", cluster::DefaultCut);
  std::size_t ClusterId = 0;
  for (const std::vector<std::size_t> &Cluster :
       Cipher.Tree.cut(cluster::DefaultCut)) {
    std::size_t EcbMembers = 0;
    for (std::size_t Item : Cluster)
      if (removesEcbFeature(Kept[Item]) && addsFeedbackMode(Kept[Item]))
        ++EcbMembers;
    std::printf("  cluster %zu: %zu members (%zu ECB->feedback-mode "
                "fixes)\n",
                ClusterId, Cluster.size(), EcbMembers);
    if (Cluster.size() >= 2) {
      std::vector<usage::UsageChange> Members;
      for (std::size_t Item : Cluster)
        Members.push_back(Kept[Item]);
      if (auto Rule = rules::suggestRuleForCluster(
              Members, "cluster" + std::to_string(ClusterId)))
        std::printf("    -> generalized rule: %s\n",
                    rules::describeRule(*Rule).c_str());
    }
    ++ClusterId;
  }

  // Shape check: an ECB cluster of >= 2 changes exists (paper: 3 usage
  // changes merge into the R7 cluster).
  bool FoundR7Cluster = false;
  for (const std::vector<std::size_t> &Cluster :
       Cipher.Tree.cut(cluster::DefaultCut)) {
    std::size_t EcbMembers = 0;
    for (std::size_t Item : Cluster)
      if (removesEcbFeature(Kept[Item]) && addsFeedbackMode(Kept[Item]))
        ++EcbMembers;
    FoundR7Cluster = FoundR7Cluster || EcbMembers >= 2;
  }
  std::printf("\nshape check: ECB-mode fix cluster with >= 2 members: %s "
              "(paper: 3-member cluster identifying R7)\n",
              FoundR7Cluster ? "FOUND" : "not found");
  return 0;
}

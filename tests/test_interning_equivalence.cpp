//===- tests/test_interning_equivalence.cpp - ID model vs string engine ----===//
//
// Differential harness for the interned corpus data model (DESIGN.md
// "Interned data model"). The refactor's promise is behavioral
// invisibility: every stage that now runs on LabelId/PathId integers —
// shortest-path elimination, the fsame/fadd/frem/fdup filters,
// clustering, report emission — must produce byte-identical results to
// a reference engine that works directly on materialized strings,
// exactly like the pre-interning implementation.
//
// The reference engine here is deliberately naive: it renders every
// path with pathToString, filters on string tuples, and clusters with
// the naive oracle over the string-space usageDist (Distance.h).
// Agreement is checked on hand-built smoke changes and on generated
// corpora, end-to-end through DiffCode::run at 1, 2, and 8 threads.
//
//===----------------------------------------------------------------------===//

#include "core/DiffCode.h"

#include "NaiveClustering.h"
#include "cluster/Distance.h"
#include "cluster/HierarchicalClustering.h"
#include "core/ReportWriter.h"
#include "support/JsonWriter.h"
#include "corpus/CorpusGenerator.h"
#include "corpus/Miner.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <set>
#include <tuple>

using namespace diffcode;
using namespace diffcode::analysis;
using namespace diffcode::core;
using namespace diffcode::usage;

namespace {

const apimodel::CryptoApiModel &api() {
  return apimodel::CryptoApiModel::javaCryptoApi();
}

support::Interner &table() {
  static support::Interner Table;
  return Table;
}

//===----------------------------------------------------------------------===//
// String-space reference engine
//===----------------------------------------------------------------------===//

/// A usage change rendered back to the pre-interning representation.
struct StringChange {
  std::string TypeName;
  std::vector<std::string> Removed;
  std::vector<std::string> Added;
};

StringChange render(const UsageChange &Change) {
  StringChange Out;
  Out.TypeName = Change.TypeName;
  for (const FeaturePath &Path : Change.removedPaths())
    Out.Removed.push_back(pathToString(Path));
  for (const FeaturePath &Path : Change.addedPaths())
    Out.Added.push_back(pathToString(Path));
  return Out;
}

/// The filter pipeline exactly as the string-based engine ran it:
/// emptiness checks plus a first-occurrence duplicate set keyed on
/// rendered feature strings.
std::vector<FilterStage>
referenceFilters(const std::vector<UsageChange> &Changes) {
  std::vector<FilterStage> Outcome;
  std::set<std::tuple<std::string, std::vector<std::string>,
                      std::vector<std::string>>>
      Seen;
  for (const UsageChange &Change : Changes) {
    StringChange S = render(Change);
    if (S.Removed.empty() && S.Added.empty())
      Outcome.push_back(FilterStage::FSame);
    else if (S.Removed.empty())
      Outcome.push_back(FilterStage::FAdd);
    else if (S.Added.empty())
      Outcome.push_back(FilterStage::FRem);
    else if (!Seen.emplace(S.TypeName, S.Removed, S.Added).second)
      Outcome.push_back(FilterStage::FDup);
    else
      Outcome.push_back(FilterStage::Kept);
  }
  return Outcome;
}

/// Random feature path over a small crypto vocabulary (same shape as the
/// clustering differential harnesses).
FeaturePath randomPath(Rng &R) {
  static const char *Roots[] = {"Cipher", "MessageDigest", "SecureRandom"};
  static const char *Methods[] = {"Cipher.getInstance/1", "Cipher.init/3",
                                  "Cipher.doFinal/1",
                                  "MessageDigest.getInstance/1",
                                  "SecureRandom.setSeed/1"};
  static const char *Strings[] = {"AES", "AES/CBC/PKCS5Padding",
                                  "AES/GCM/NoPadding", "DES", "SHA-1",
                                  "SHA-256"};
  FeaturePath Path = {NodeLabel::root(Roots[R.index(3)])};
  Path.push_back(NodeLabel::method(Methods[R.index(5)]));
  if (R.chance(0.7)) {
    unsigned Index = static_cast<unsigned>(R.range(1, 3));
    if (R.chance(0.6))
      Path.push_back(
          NodeLabel::arg(Index, AbstractValue::strConst(Strings[R.index(6)])));
    else
      Path.push_back(NodeLabel::arg(Index, AbstractValue::byteArrayTop()));
  }
  return Path;
}

std::vector<UsageChange> randomCorpus(unsigned Seed, std::size_t Size) {
  Rng R(Seed * 6271u + 5);
  std::vector<UsageChange> Changes;
  Changes.reserve(Size);
  for (std::size_t C = 0; C < Size; ++C) {
    std::vector<FeaturePath> Removed, Added;
    for (std::size_t I = 0, N = R.range(0, 3); I < N; ++I)
      Removed.push_back(randomPath(R));
    for (std::size_t I = 0, N = R.range(0, 3); I < N; ++I)
      Added.push_back(randomPath(R));
    Changes.push_back(UsageChange::intern(table(), "Cipher", Removed, Added));
  }
  return Changes;
}

/// Smoke corpus: hand-built changes covering duplicates, pure adds, pure
/// removals, empty changes, shared prefixes, and string/non-string args.
std::vector<UsageChange> smokeCorpus() {
  auto Mode = [](const char *From, const char *To) {
    return UsageChange::intern(
        table(), "Cipher",
        {{NodeLabel::root("Cipher"), NodeLabel::method("Cipher.getInstance/1"),
          NodeLabel::arg(1, AbstractValue::strConst(From))}},
        {{NodeLabel::root("Cipher"), NodeLabel::method("Cipher.getInstance/1"),
          NodeLabel::arg(1, AbstractValue::strConst(To))}});
  };
  std::vector<UsageChange> Changes = {
      Mode("AES", "AES/CBC/PKCS5Padding"),
      Mode("AES", "AES/CBC/PKCS5Padding"), // exact duplicate -> fdup
      Mode("DES", "AES/GCM/NoPadding"),
      UsageChange::intern(table(), "Cipher", {}, {}),          // fsame
      UsageChange::intern(
          table(), "Cipher", {},
          {{NodeLabel::root("Cipher"),
            NodeLabel::method("Cipher.doFinal/1")}}),          // fadd
      UsageChange::intern(
          table(), "Cipher",
          {{NodeLabel::root("Cipher"),
            NodeLabel::method("Cipher.doFinal/1")}},
          {}),                                                 // frem
      UsageChange::intern(
          table(), "Cipher",
          {{NodeLabel::root("Cipher"),
            NodeLabel::method("Cipher.init/3"),
            NodeLabel::arg(2, AbstractValue::intConst(128))}},
          {{NodeLabel::root("Cipher"),
            NodeLabel::method("Cipher.init/3"),
            NodeLabel::arg(2, AbstractValue::intConst(256))}}),
  };
  return Changes;
}

} // namespace

//===----------------------------------------------------------------------===//
// Filters: integer-set fdup vs string-tuple fdup
//===----------------------------------------------------------------------===//

TEST(InterningEquivalence, FiltersMatchStringReferenceOnSmoke) {
  std::vector<UsageChange> Changes = smokeCorpus();
  FilterResult Production = applyFilters(Changes);
  std::vector<FilterStage> Reference = referenceFilters(Changes);
  ASSERT_EQ(Production.Outcome.size(), Reference.size());
  for (std::size_t I = 0; I < Reference.size(); ++I)
    EXPECT_EQ(Production.Outcome[I], Reference[I]) << "change " << I;
}

TEST(InterningEquivalence, FiltersMatchStringReferenceOnRandomCorpora) {
  for (unsigned Seed = 0; Seed < 8; ++Seed) {
    std::vector<UsageChange> Changes = randomCorpus(Seed, 150);
    FilterResult Production = applyFilters(Changes);
    std::vector<FilterStage> Reference = referenceFilters(Changes);
    ASSERT_EQ(Production.Outcome.size(), Reference.size());
    for (std::size_t I = 0; I < Reference.size(); ++I)
      EXPECT_EQ(Production.Outcome[I], Reference[I])
          << "seed " << Seed << " change " << I;
  }
}

//===----------------------------------------------------------------------===//
// Clustering: NN-chain engine vs the naive oracle
//===----------------------------------------------------------------------===//

TEST(InterningEquivalence, ClusteringMatchesStringMetricTrees) {
  // Production: clusterUsageChanges (usageDistanceMatrix + NN-chain).
  // Reference: a pairwise usageDist matrix + the naive oracle. Merges
  // must be bit-identical.
  for (unsigned Seed : {3u, 4u}) {
    std::vector<UsageChange> Changes = randomCorpus(Seed + 200, 80);
    cluster::Dendrogram Production = cluster::clusterUsageChanges(Changes);
    ASSERT_TRUE(oracle::hasEngineLayout(Production));

    std::vector<double> D = cluster::pairwiseDistanceMatrix(
        Changes.size(), [&](std::size_t I, std::size_t J) {
          return cluster::usageDist(Changes[I], Changes[J]);
        });
    EXPECT_EQ(oracle::mergesOf(Production),
              oracle::naiveMerges(Changes.size(), D))
        << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// Reports: id-resolved emission vs hand-rendered strings
//===----------------------------------------------------------------------===//

TEST(InterningEquivalence, UsageChangeJsonMatchesHandRendering) {
  for (const UsageChange &Change : smokeCorpus()) {
    StringChange S = render(Change);
    JsonWriter W;
    W.beginObject();
    W.key("type").value(S.TypeName);
    W.key("origin").value(Change.Origin);
    W.key("removed").beginArray();
    for (const std::string &Path : S.Removed)
      W.value(Path);
    W.endArray();
    W.key("added").beginArray();
    for (const std::string &Path : S.Added)
      W.value(Path);
    W.endArray();
    W.endObject();
    EXPECT_EQ(usageChangeToJson(Change), W.take());
  }
}

//===----------------------------------------------------------------------===//
// End to end: generated corpora through DiffCode::run at 1/2/8 threads.
// Id values are scheduling-dependent when workers intern concurrently;
// the report must not be.
//===----------------------------------------------------------------------===//

TEST(InterningEquivalence, PipelineReportByteIdenticalAcrossThreadCounts) {
  corpus::CorpusOptions Opts;
  Opts.Seed = 83;
  Opts.NumProjects = 8;
  corpus::Corpus C = corpus::CorpusGenerator(Opts).generate();
  corpus::Miner M(api());
  std::vector<const corpus::CodeChange *> Mined = M.mine(C);
  ASSERT_FALSE(Mined.empty());

  PipelineRequest Request;
  Request.Changes = Mined;
  Request.TargetClasses = api().targetClasses();

  std::string Baseline;
  for (unsigned Threads : {1u, 2u, 8u}) {
    PipelineConfig Options;
    Options.Threads = Threads;
    CorpusReport Report = DiffCode(api(), Options).run(Request);
    std::string Json = corpusReportToJson(Report);
    if (Baseline.empty())
      Baseline = Json;
    else
      EXPECT_EQ(Json, Baseline) << "threads=" << Threads;

    // Each kept change also re-renders identically from materialized
    // strings — the per-change byte-identity behind the corpus JSON.
    for (const ClassReport &Class : Report.PerClass)
      for (const UsageChange &Kept : Class.Filtered.Kept) {
        StringChange S = render(Kept);
        std::vector<std::string> FromIds;
        for (support::PathId Id : Kept.Removed)
          FromIds.push_back(Kept.pathString(Id));
        EXPECT_EQ(FromIds, S.Removed);
      }
  }
  EXPECT_FALSE(Baseline.empty());
}

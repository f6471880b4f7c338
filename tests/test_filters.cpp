//===- tests/test_filters.cpp - Filter pipeline tests (Section 4.2) --------===//

#include "core/Filters.h"

#include <gtest/gtest.h>

using namespace diffcode;
using namespace diffcode::analysis;
using namespace diffcode::core;
using namespace diffcode::usage;

namespace {

support::Interner &table() {
  static support::Interner Table;
  return Table;
}

FeaturePath path(const char *Algo) {
  return {NodeLabel::root("Cipher"),
          NodeLabel::method("Cipher.getInstance/1"),
          NodeLabel::arg(1, AbstractValue::strConst(Algo))};
}

UsageChange make(const std::vector<FeaturePath> &Removed,
                 const std::vector<FeaturePath> &Added,
                 const char *Origin = "p@c0") {
  return UsageChange::intern(table(), "Cipher", Removed, Added, Origin);
}

} // namespace

TEST(Filters, ClassifySolo) {
  EXPECT_EQ(classifySolo(make({}, {})), FilterStage::FSame);
  EXPECT_EQ(classifySolo(make({}, {path("AES")})), FilterStage::FAdd);
  EXPECT_EQ(classifySolo(make({path("AES")}, {})), FilterStage::FRem);
  EXPECT_EQ(classifySolo(make({path("AES")}, {path("DES")})),
            FilterStage::Kept);
}

TEST(Filters, StageNames) {
  EXPECT_STREQ(filterStageName(FilterStage::Kept), "kept");
  EXPECT_STREQ(filterStageName(FilterStage::FSame), "fsame");
  EXPECT_STREQ(filterStageName(FilterStage::FAdd), "fadd");
  EXPECT_STREQ(filterStageName(FilterStage::FRem), "frem");
  EXPECT_STREQ(filterStageName(FilterStage::FDup), "fdup");
}

TEST(Filters, EmptyInput) {
  FilterResult R = applyFilters({});
  EXPECT_EQ(R.Total, 0u);
  EXPECT_EQ(R.AfterDup, 0u);
  EXPECT_TRUE(R.Kept.empty());
}

TEST(Filters, PipelineCountsMatchAttrition) {
  std::vector<UsageChange> Changes = {
      make({}, {}),                        // fsame
      make({}, {}),                        // fsame
      make({}, {path("AES")}),             // fadd
      make({path("AES")}, {}),             // frem
      make({path("AES")}, {path("DES")}),  // kept
      make({path("AES")}, {path("DES")}),  // fdup of previous
      make({path("DES")}, {path("AES")}),  // kept (reversed != dup)
  };
  FilterResult R = applyFilters(Changes);
  EXPECT_EQ(R.Total, 7u);
  EXPECT_EQ(R.AfterSame, 5u);
  EXPECT_EQ(R.AfterAdd, 4u);
  EXPECT_EQ(R.AfterRem, 3u);
  EXPECT_EQ(R.AfterDup, 2u);
  ASSERT_EQ(R.Kept.size(), 2u);
  ASSERT_EQ(R.Outcome.size(), 7u);
  EXPECT_EQ(R.Outcome[0], FilterStage::FSame);
  EXPECT_EQ(R.Outcome[2], FilterStage::FAdd);
  EXPECT_EQ(R.Outcome[3], FilterStage::FRem);
  EXPECT_EQ(R.Outcome[4], FilterStage::Kept);
  EXPECT_EQ(R.Outcome[5], FilterStage::FDup);
  EXPECT_EQ(R.Outcome[6], FilterStage::Kept);
}

TEST(Filters, DupKeepsFirstOccurrence) {
  std::vector<UsageChange> Changes = {
      make({path("AES")}, {path("DES")}, "first"),
      make({path("AES")}, {path("DES")}, "second"),
  };
  FilterResult R = applyFilters(Changes);
  ASSERT_EQ(R.Kept.size(), 1u);
  EXPECT_EQ(R.Kept[0].Origin, "first");
}

TEST(Filters, DupIgnoresOrigin) {
  // Identical features from different projects are still duplicates —
  // that is the whole point of fdup.
  std::vector<UsageChange> Changes = {
      make({path("AES")}, {path("DES")}, "projA@c1"),
      make({path("AES")}, {path("DES")}, "projB@c9"),
  };
  EXPECT_EQ(applyFilters(Changes).AfterDup, 1u);
}

TEST(Filters, DifferentTypeNamesAreNotDuplicates) {
  UsageChange A = make({path("AES")}, {path("DES")});
  UsageChange B = A;
  B.TypeName = "Mac";
  FilterResult R = applyFilters({A, B});
  EXPECT_EQ(R.Kept.size(), 2u);
}

TEST(Filters, IdempotentOnKeptChanges) {
  std::vector<UsageChange> Changes = {
      make({path("AES")}, {path("DES")}),
      make({path("DES")}, {path("AES/GCM/NoPadding")}),
      make({}, {}),
  };
  FilterResult Once = applyFilters(Changes);
  FilterResult Twice = applyFilters(Once.Kept);
  EXPECT_EQ(Twice.Total, Once.Kept.size());
  EXPECT_EQ(Twice.Kept.size(), Once.Kept.size());
  for (std::size_t I = 0; I < Twice.Kept.size(); ++I)
    EXPECT_TRUE(Twice.Kept[I].sameFeatures(Once.Kept[I]));
}

TEST(Filters, OrderOfStagesMattersForAttribution) {
  // A change with empty F- AND empty F+ is attributed to fsame, not fadd
  // or frem (the paper reports fsame separately even though fadd+frem
  // subsume it).
  FilterResult R = applyFilters({make({}, {})});
  EXPECT_EQ(R.Outcome[0], FilterStage::FSame);
}

TEST(Filters, LargeBatchStaysConsistent) {
  std::vector<UsageChange> Changes;
  for (int I = 0; I < 200; ++I) {
    if (I % 4 == 0)
      Changes.push_back(make({}, {}));
    else if (I % 4 == 1)
      Changes.push_back(make({}, {path("AES")}));
    else if (I % 4 == 2)
      Changes.push_back(make({path("AES")}, {}));
    else
      Changes.push_back(make({path("AES")}, {path("DES")}));
  }
  FilterResult R = applyFilters(Changes);
  EXPECT_EQ(R.Total, 200u);
  EXPECT_EQ(R.AfterSame, 150u);
  EXPECT_EQ(R.AfterAdd, 100u);
  EXPECT_EQ(R.AfterRem, 50u);
  // 50 identical kept changes collapse to 1.
  EXPECT_EQ(R.AfterDup, 1u);
}

TEST(Filters, ContinuingChunkByChunkEqualsOneRun) {
  // Every way to split the list into contiguous chunks (2^(n-1) of them),
  // with each stage represented, duplicates of a kept change landing in
  // later chunks, and a duplicate of an fadd change that must stay fadd.
  const std::vector<UsageChange> Changes = {
      make({path("AES")}, {path("DES")}, "k1"),
      make({}, {}),
      make({path("AES")}, {path("DES")}, "dup-of-k1"),
      make({}, {path("AES")}),
      make({path("DES")}, {path("AES")}, "k2"),
      make({path("AES")}, {}),
      make({}, {path("AES")}),
      make({path("DES")}, {path("AES")}, "dup-of-k2"),
      make({path("AES")}, {path("DES")}, "dup-of-k1-again"),
      make({path("RC4")}, {path("AES")}, "k3"),
      make({}, {}),
  };
  const FilterResult Whole = applyFilters(Changes);
  ASSERT_EQ(Whole.Kept.size(), 3u);
  ASSERT_EQ(Whole.AfterRem - Whole.AfterDup, 3u);

  const std::size_t Cuts = Changes.size() - 1;
  for (std::uint32_t Mask = 0; Mask < (1u << Cuts); ++Mask) {
    // Bit I set: a chunk ends after Changes[I].
    std::vector<UsageChange> Prefix;
    FilterResult Continued;
    FilterSeen Seen;
    for (std::size_t I = 0; I < Changes.size(); ++I) {
      Prefix.push_back(Changes[I]);
      if (I + 1 == Changes.size() || (Mask >> I & 1u))
        continueFilters(Prefix, Continued, Seen);
    }
    EXPECT_EQ(Continued.Outcome, Whole.Outcome) << Mask;
    EXPECT_EQ(Continued.Total, Whole.Total) << Mask;
    EXPECT_EQ(Continued.AfterSame, Whole.AfterSame) << Mask;
    EXPECT_EQ(Continued.AfterAdd, Whole.AfterAdd) << Mask;
    EXPECT_EQ(Continued.AfterRem, Whole.AfterRem) << Mask;
    EXPECT_EQ(Continued.AfterDup, Whole.AfterDup) << Mask;
    ASSERT_EQ(Continued.Kept.size(), Whole.Kept.size()) << Mask;
    for (std::size_t K = 0; K < Whole.Kept.size(); ++K) {
      EXPECT_TRUE(Continued.Kept[K].sameFeatures(Whole.Kept[K])) << Mask;
      EXPECT_EQ(Continued.Kept[K].Origin, Whole.Kept[K].Origin) << Mask;
    }
  }
}

TEST(Filters, ContinuingWithNothingNewChangesNothing) {
  std::vector<UsageChange> Changes = {make({path("AES")}, {path("DES")}),
                                      make({}, {})};
  FilterResult R;
  FilterSeen Seen;
  continueFilters(Changes, R, Seen);
  continueFilters(Changes, R, Seen);
  EXPECT_EQ(R.Total, 2u);
  EXPECT_EQ(R.Outcome.size(), 2u);
  EXPECT_EQ(R.Kept.size(), 1u);
  EXPECT_EQ(Seen.size(), 1u);
}

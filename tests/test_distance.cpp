//===- tests/test_distance.cpp - Clustering metric tests (Section 4.3) -----===//

#include "cluster/Distance.h"

#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace diffcode;
using namespace diffcode::analysis;
using namespace diffcode::cluster;
using namespace diffcode::usage;

namespace {

NodeLabel rootL(const char *T) { return NodeLabel::root(T); }
NodeLabel methodL(const char *Sig) { return NodeLabel::method(Sig); }
NodeLabel strArg(unsigned I, const char *V) {
  return NodeLabel::arg(I, AbstractValue::strConst(V));
}
NodeLabel atomArg(unsigned I, const AbstractValue &V) {
  return NodeLabel::arg(I, V);
}

FeaturePath cipherGet(const char *Algo) {
  return {rootL("Cipher"), methodL("Cipher.getInstance/1"), strArg(1, Algo)};
}

support::Interner &table() {
  static support::Interner Table;
  return Table;
}

UsageChange change(const std::vector<FeaturePath> &Removed,
                   const std::vector<FeaturePath> &Added) {
  return UsageChange::intern(table(), "Cipher", Removed, Added);
}

/// Random feature path for property tests.
FeaturePath randomPath(Rng &R) {
  static const char *Methods[] = {"Cipher.getInstance/1", "Cipher.init/3",
                                  "MessageDigest.getInstance/1",
                                  "SecureRandom.setSeed/1"};
  static const char *Strings[] = {"AES", "AES/CBC/PKCS5Padding", "DES",
                                  "SHA-1", "SHA-256"};
  FeaturePath P = {rootL(R.chance(0.5) ? "Cipher" : "MessageDigest")};
  P.push_back(methodL(Methods[R.index(4)]));
  if (R.chance(0.7)) {
    if (R.chance(0.5))
      P.push_back(strArg(static_cast<unsigned>(R.range(1, 3)),
                         Strings[R.index(5)]));
    else
      P.push_back(atomArg(static_cast<unsigned>(R.range(1, 3)),
                          AbstractValue::byteArrayTop()));
  }
  return P;
}

} // namespace

//===----------------------------------------------------------------------===//
// labelUnits / labelSimilarity
//===----------------------------------------------------------------------===//

TEST(LabelUnits, MethodIsSingleUnit) {
  EXPECT_EQ(labelUnits(methodL("Cipher.getInstance/1")).size(), 1u);
  EXPECT_EQ(labelUnits(rootL("Cipher")).size(), 1u);
}

TEST(LabelUnits, StringArgSplitsPerCharacter) {
  std::vector<std::string> Units = labelUnits(strArg(1, "AES"));
  // arg marker + 3 characters.
  ASSERT_EQ(Units.size(), 4u);
  EXPECT_EQ(Units[0], "arg1");
  EXPECT_EQ(Units[1], "A");
}

TEST(LabelUnits, AtomicArgIsTwoUnits) {
  EXPECT_EQ(labelUnits(atomArg(2, AbstractValue::byteArrayTop())).size(), 2u);
  EXPECT_EQ(
      labelUnits(atomArg(1, AbstractValue::intConst(1, "ENCRYPT_MODE")))
          .size(),
      2u);
}

TEST(LabelSimilarity, DifferentMethodsScoreZero) {
  // "it takes 1 modification to change any method signature to a
  // different one" -> ratio 1 - 1/1 = 0.
  EXPECT_DOUBLE_EQ(
      labelSimilarity(methodL("Cipher.init/2"), methodL("Cipher.doFinal/1")),
      0.0);
  // Arity is stripped from method labels, so two overloads coincide.
  EXPECT_DOUBLE_EQ(labelSimilarity(methodL("Cipher.init/2"),
                                   methodL("Cipher.init/3")),
                   1.0);
}

TEST(LabelSimilarity, SimilarStringsScoreHigh) {
  double Close = labelSimilarity(strArg(1, "AES/CBC/PKCS5Padding"),
                                 strArg(1, "AES/CBC/NoPadding"));
  double Far = labelSimilarity(strArg(1, "AES/CBC/PKCS5Padding"),
                               strArg(1, "RC4"));
  EXPECT_GT(Close, Far);
  EXPECT_GT(Close, 0.5);
}

//===----------------------------------------------------------------------===//
// pathDist
//===----------------------------------------------------------------------===//

TEST(PathDist, IdenticalIsZero) {
  FeaturePath P = cipherGet("AES");
  EXPECT_DOUBLE_EQ(pathDist(P, P), 0.0);
}

TEST(PathDist, SharedPrefixReducesDistance) {
  FeaturePath A = cipherGet("AES");
  FeaturePath B = cipherGet("DES");
  FeaturePath C = {rootL("Mac"), methodL("Mac.getInstance/1"),
                   strArg(1, "HmacSHA256")};
  EXPECT_LT(pathDist(A, B), pathDist(A, C));
}

TEST(PathDist, PrefixPathCloserThanUnrelated) {
  FeaturePath Long = cipherGet("AES");
  FeaturePath Short = {rootL("Cipher"), methodL("Cipher.getInstance/1")};
  double D = pathDist(Long, Short);
  // Common prefix 2 of max length 3.
  EXPECT_DOUBLE_EQ(D, 1.0 - 2.0 / 3.0);
}

TEST(PathDist, EmptyVsNonEmpty) {
  FeaturePath Empty;
  EXPECT_DOUBLE_EQ(pathDist(Empty, Empty), 0.0);
  EXPECT_DOUBLE_EQ(pathDist(Empty, cipherGet("AES")), 1.0);
}

class PathDistProperty : public ::testing::TestWithParam<int> {};

TEST_P(PathDistProperty, MetricShape) {
  Rng R(GetParam() * 131 + 7);
  FeaturePath A = randomPath(R), B = randomPath(R);
  double AB = pathDist(A, B), BA = pathDist(B, A);
  EXPECT_DOUBLE_EQ(AB, BA);
  EXPECT_GE(AB, 0.0);
  EXPECT_LE(AB, 1.0);
  EXPECT_DOUBLE_EQ(pathDist(A, A), 0.0);
  if (AB == 0.0)
    EXPECT_EQ(A, B);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathDistProperty, ::testing::Range(0, 50));

//===----------------------------------------------------------------------===//
// pathsDist
//===----------------------------------------------------------------------===//

TEST(PathsDist, BothEmptyIsZero) { EXPECT_DOUBLE_EQ(pathsDist({}, {}), 0.0); }

TEST(PathsDist, OneEmptyIsOne) {
  EXPECT_DOUBLE_EQ(pathsDist({cipherGet("AES")}, {}), 1.0);
  EXPECT_DOUBLE_EQ(pathsDist({}, {cipherGet("AES")}), 1.0);
}

TEST(PathsDist, MatchingIgnoresOrder) {
  std::vector<FeaturePath> F1 = {cipherGet("AES"), cipherGet("DES")};
  std::vector<FeaturePath> F2 = {cipherGet("DES"), cipherGet("AES")};
  EXPECT_DOUBLE_EQ(pathsDist(F1, F2), 0.0);
}

TEST(PathsDist, UnbalancedSetsPayPerExtraPath) {
  std::vector<FeaturePath> F1 = {cipherGet("AES")};
  std::vector<FeaturePath> F2 = {cipherGet("AES"), cipherGet("DES")};
  // One perfect match + one unmatched out of max 2.
  EXPECT_DOUBLE_EQ(pathsDist(F1, F2), 0.5);
}

TEST(PathsDist, PicksMinimalMatching) {
  // Must pair AES<->AES-like and DES<->DES-like, not crosswise.
  std::vector<FeaturePath> F1 = {cipherGet("AES/CBC/PKCS5Padding"),
                                 cipherGet("DES")};
  std::vector<FeaturePath> F2 = {cipherGet("DES/CBC"),
                                 cipherGet("AES/CBC/NoPadding")};
  double D = pathsDist(F1, F2);
  double Crosswise = (pathDist(F1[0], F2[0]) + pathDist(F1[1], F2[1])) / 2.0;
  EXPECT_LE(D, Crosswise);
}

//===----------------------------------------------------------------------===//
// usageDist
//===----------------------------------------------------------------------===//

TEST(UsageDist, IdenticalChangesZero) {
  UsageChange C =
      change({cipherGet("AES")}, {cipherGet("AES/CBC/PKCS5Padding")});
  EXPECT_DOUBLE_EQ(usageDist(C, C), 0.0);
}

TEST(UsageDist, AveragesRemovedAndAdded) {
  UsageChange A = change({cipherGet("AES")}, {});
  UsageChange B = change({cipherGet("AES")}, {cipherGet("DES")});
  // Removed sides identical (0), added sides 1 vs 0 paths (1) -> 0.5.
  EXPECT_DOUBLE_EQ(usageDist(A, B), 0.5);
}

TEST(UsageDist, SimilarFixesCloserThanDifferentFixes) {
  // Two ECB->CBC style fixes vs an ECB->CBC fix and a SHA fix.
  UsageChange EcbToCbc =
      change({cipherGet("AES")}, {cipherGet("AES/CBC/PKCS5Padding")});
  UsageChange EcbToGcm =
      change({cipherGet("AES/ECB")}, {cipherGet("AES/GCM/NoPadding")});
  UsageChange ShaFix = change(
      {{rootL("MessageDigest"), methodL("MessageDigest.getInstance/1"),
        strArg(1, "SHA-1")}},
      {{rootL("MessageDigest"), methodL("MessageDigest.getInstance/1"),
        strArg(1, "SHA-256")}});
  EXPECT_LT(usageDist(EcbToCbc, EcbToGcm), usageDist(EcbToCbc, ShaFix));
}

class UsageDistProperty : public ::testing::TestWithParam<int> {};

TEST_P(UsageDistProperty, MetricShape) {
  Rng R(GetParam() * 733 + 3);
  auto RandomChange = [&] {
    std::vector<FeaturePath> Rem, Add;
    for (std::size_t I = 0, N = R.range(0, 3); I < N; ++I)
      Rem.push_back(randomPath(R));
    for (std::size_t I = 0, N = R.range(0, 3); I < N; ++I)
      Add.push_back(randomPath(R));
    return change(std::move(Rem), std::move(Add));
  };
  UsageChange A = RandomChange(), B = RandomChange();
  double AB = usageDist(A, B);
  EXPECT_DOUBLE_EQ(AB, usageDist(B, A));
  EXPECT_GE(AB, 0.0);
  EXPECT_LE(AB, 1.0);
  EXPECT_DOUBLE_EQ(usageDist(A, A), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UsageDistProperty, ::testing::Range(0, 50));

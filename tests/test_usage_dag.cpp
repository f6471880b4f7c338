//===- tests/test_usage_dag.cpp - Usage DAG tests (Section 3.4) ------------===//

#include "usage/UsageDag.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace diffcode;
using namespace diffcode::analysis;
using namespace diffcode::usage;

namespace {

/// Builds a small fixture mirroring Figure 2: objects, events, DAG.
struct Fixture {
  ObjectTable Objects;
  UsageLog Log;
  unsigned Enc = 0, IvSpec = 0;

  Fixture(bool NewVersion) {
    java::SourceLocation L13{13, 1, 0}, L12{12, 1, 0};
    Enc = Objects.getOrCreate(L13, "Cipher");
    if (!NewVersion) {
      Log[Enc].push_back(
          {"Cipher.getInstance/1", {AbstractValue::strConst("AES")}});
      Log[Enc].push_back(
          {"Cipher.init/2",
           {AbstractValue::intConst(1, "ENCRYPT_MODE"),
            AbstractValue::topObject("Secret")}});
      return;
    }
    IvSpec = Objects.getOrCreate(L12, "IvParameterSpec");
    Log[IvSpec].push_back(
        {"IvParameterSpec.<init>/1", {AbstractValue::byteArrayTop()}});
    Log[Enc].push_back(
        {"Cipher.getInstance/1",
         {AbstractValue::strConst("AES/CBC/PKCS5Padding")}});
    UsageEvent Init{"Cipher.init/3",
                    {AbstractValue::intConst(1, "ENCRYPT_MODE"),
                     AbstractValue::topObject("Secret"),
                     AbstractValue::object(IvSpec, "IvParameterSpec")}};
    Log[Enc].push_back(Init);
    Log[IvSpec].push_back(Init); // init also uses the IvParameterSpec
  }
};

std::vector<std::string> pathStrings(const UsageDag &Dag) {
  std::vector<std::string> Out;
  for (const FeaturePath &Path : Dag.paths())
    Out.push_back(pathToString(Path));
  std::sort(Out.begin(), Out.end());
  return Out;
}

bool containsPath(const UsageDag &Dag, const std::string &Text) {
  std::vector<std::string> Paths = pathStrings(Dag);
  return std::find(Paths.begin(), Paths.end(), Text) != Paths.end();
}

} // namespace

TEST(NodeLabel, Construction) {
  EXPECT_EQ(NodeLabel::root("Cipher").str(), "Cipher");
  EXPECT_EQ(NodeLabel::method("Cipher.init/3").str(), "Cipher.init");
  EXPECT_EQ(NodeLabel::arg(1, AbstractValue::strConst("AES")).str(),
            "arg1:AES");
  EXPECT_EQ(NodeLabel::arg(3, AbstractValue::byteArrayTop()).str(),
            "arg3:⊤byte[]");
}

TEST(NodeLabel, StringConstMarked) {
  EXPECT_TRUE(NodeLabel::arg(1, AbstractValue::strConst("AES")).ValueIsString);
  EXPECT_FALSE(NodeLabel::arg(1, AbstractValue::strTop()).ValueIsString);
  EXPECT_FALSE(
      NodeLabel::arg(1, AbstractValue::intConst(1, "X")).ValueIsString);
}

TEST(NodeLabel, OrderingAndEquality) {
  NodeLabel A = NodeLabel::arg(1, AbstractValue::strConst("AES"));
  NodeLabel B = NodeLabel::arg(2, AbstractValue::strConst("AES"));
  NodeLabel C = NodeLabel::arg(1, AbstractValue::strConst("DES"));
  EXPECT_TRUE(A == A);
  EXPECT_FALSE(A == B);
  EXPECT_TRUE(A < B || B < A);
  EXPECT_TRUE(A < C || C < A);
}

TEST(UsageDag, Figure2OldVersionStructure) {
  Fixture F(/*NewVersion=*/false);
  UsageDag Dag = UsageDag::build(F.Objects, F.Log, F.Enc);
  EXPECT_EQ(Dag.typeName(), "Cipher");
  EXPECT_TRUE(containsPath(Dag, "Cipher"));
  EXPECT_TRUE(containsPath(Dag, "Cipher Cipher.getInstance arg1:AES"));
  EXPECT_TRUE(containsPath(Dag, "Cipher Cipher.init arg1:ENCRYPT_MODE"));
  EXPECT_TRUE(containsPath(Dag, "Cipher Cipher.init arg2:Secret"));
  // 6 nodes as in Figure 2(b).
  EXPECT_EQ(Dag.labelSet().size(), 6u);
}

TEST(UsageDag, Figure2NewVersionExpandsIvSpec) {
  Fixture F(/*NewVersion=*/true);
  UsageDag Dag = UsageDag::build(F.Objects, F.Log, F.Enc);
  EXPECT_TRUE(containsPath(
      Dag, "Cipher Cipher.init arg3:IvParameterSpec IvParameterSpec.<init> "
           "arg1:⊤byte[]"));
  // The no-cycle rule: Cipher.init must NOT be re-expanded underneath the
  // IvParameterSpec argument.
  EXPECT_FALSE(containsPath(
      Dag, "Cipher Cipher.init arg3:IvParameterSpec Cipher.init"));
  // 9 nodes as in Figure 2(c).
  EXPECT_EQ(Dag.labelSet().size(), 9u);
}

TEST(UsageDag, Figure2DistanceIsOneHalf) {
  Fixture Old(false), New(true);
  UsageDag G1 = UsageDag::build(Old.Objects, Old.Log, Old.Enc);
  UsageDag G2 = UsageDag::build(New.Objects, New.Log, New.Enc);
  EXPECT_DOUBLE_EQ(dagDistance(G1, G2), 0.5);
}

TEST(UsageDag, DistanceAxioms) {
  Fixture Old(false), New(true);
  UsageDag G1 = UsageDag::build(Old.Objects, Old.Log, Old.Enc);
  UsageDag G2 = UsageDag::build(New.Objects, New.Log, New.Enc);
  EXPECT_DOUBLE_EQ(dagDistance(G1, G1), 0.0);
  EXPECT_DOUBLE_EQ(dagDistance(G2, G2), 0.0);
  EXPECT_DOUBLE_EQ(dagDistance(G1, G2), dagDistance(G2, G1));
  EXPECT_GE(dagDistance(G1, G2), 0.0);
  EXPECT_LE(dagDistance(G1, G2), 1.0);
}

TEST(UsageDag, EmptyForIsRootOnly) {
  UsageDag Empty = UsageDag::emptyFor("Cipher");
  EXPECT_TRUE(Empty.isRootOnly());
  EXPECT_EQ(Empty.typeName(), "Cipher");
  EXPECT_EQ(Empty.paths().size(), 1u);
  EXPECT_TRUE(Empty.sameIdentity(UsageDag::emptyFor("Cipher")));
  EXPECT_FALSE(Empty.sameIdentity(UsageDag::emptyFor("Mac")));
}

TEST(UsageDag, DistanceToEmpty) {
  Fixture Old(false);
  UsageDag G = UsageDag::build(Old.Objects, Old.Log, Old.Enc);
  UsageDag Empty = UsageDag::emptyFor("Cipher");
  // Shares only the root label: 1 - 1/6.
  EXPECT_DOUBLE_EQ(dagDistance(G, Empty), 1.0 - 1.0 / 6.0);
  // Different root type shares nothing.
  EXPECT_DOUBLE_EQ(dagDistance(Empty, UsageDag::emptyFor("Mac")), 1.0);
}

TEST(UsageDag, DuplicateEventsCollapse) {
  ObjectTable Objects;
  UsageLog Log;
  unsigned Obj = Objects.getOrCreate({1, 1, 0}, "MessageDigest");
  UsageEvent Update{"MessageDigest.update/1",
                    {AbstractValue::byteArrayTop()}};
  Log[Obj].push_back(Update);
  Log[Obj].push_back(Update);
  Log[Obj].push_back(Update);
  UsageDag Dag = UsageDag::build(Objects, Log, Obj);
  // Root + one method node + one arg node.
  EXPECT_EQ(Dag.size(), 3u);
}

TEST(UsageDag, DepthBoundRespected) {
  // Chain: A uses B uses C uses D ... via constructor args.
  ObjectTable Objects;
  UsageLog Log;
  std::vector<unsigned> Chain;
  for (unsigned I = 0; I < 8; ++I)
    Chain.push_back(
        Objects.getOrCreate({I + 1, 1, 0}, "T" + std::to_string(I)));
  for (unsigned I = 0; I < 8; ++I) {
    std::vector<AbstractValue> Args;
    if (I + 1 < 8)
      Args.push_back(
          AbstractValue::object(Chain[I + 1], "T" + std::to_string(I + 1)));
    Log[Chain[I]].push_back(
        {"T" + std::to_string(I) + ".<init>/" +
             std::to_string(Args.size()),
         Args});
  }
  UsageDag Shallow = UsageDag::build(Objects, Log, Chain[0], 3);
  UsageDag Deep = UsageDag::build(Objects, Log, Chain[0], 7);
  EXPECT_LT(Shallow.size(), Deep.size());
  for (const FeaturePath &Path : Shallow.paths())
    EXPECT_LE(Path.size(), 4u); // depth 3 -> at most 4 nodes per path
}

TEST(UsageDag, CycleBetweenObjectsTerminates) {
  // A's event references B, B's event references A.
  ObjectTable Objects;
  UsageLog Log;
  unsigned A = Objects.getOrCreate({1, 1, 0}, "Alpha");
  unsigned B = Objects.getOrCreate({2, 1, 0}, "Beta");
  Log[A].push_back({"Alpha.use/1", {AbstractValue::object(B, "Beta")}});
  Log[B].push_back({"Beta.use/1", {AbstractValue::object(A, "Alpha")}});
  UsageDag Dag = UsageDag::build(Objects, Log, A, 10);
  EXPECT_LT(Dag.size(), 12u); // terminates with a small graph
}

TEST(UsageDag, CanonicalStringDetectsEquality) {
  Fixture F1(false), F2(false);
  UsageDag A = UsageDag::build(F1.Objects, F1.Log, F1.Enc);
  UsageDag B = UsageDag::build(F2.Objects, F2.Log, F2.Enc);
  EXPECT_EQ(A.canonicalString(), B.canonicalString());
  Fixture F3(true);
  UsageDag C = UsageDag::build(F3.Objects, F3.Log, F3.Enc);
  EXPECT_NE(A.canonicalString(), C.canonicalString());
}

TEST(UsageDag, CanonicalStringIgnoresChildOrder) {
  ObjectTable Objects;
  unsigned Obj = Objects.getOrCreate({1, 1, 0}, "Cipher");
  UsageLog LogAB, LogBA;
  UsageEvent E1{"Cipher.a/0", {}}, E2{"Cipher.b/0", {}};
  LogAB[Obj] = {E1, E2};
  LogBA[Obj] = {E2, E1};
  UsageDag A = UsageDag::build(Objects, LogAB, Obj);
  UsageDag B = UsageDag::build(Objects, LogBA, Obj);
  EXPECT_EQ(A.canonicalString(), B.canonicalString());
  EXPECT_EQ(A.canonicalHash(), B.canonicalHash());
  EXPECT_TRUE(A.sameIdentity(B));
}

TEST(UsageDag, CanonicalIdentitySeparatesLabelsThatRenderAlike) {
  // "1" and 1 both display as arg1:1; the canonical form keeps the
  // string flag, so the two DAGs are not the same usage.
  ObjectTable Objects;
  unsigned Obj = Objects.getOrCreate({1, 1, 0}, "Cipher");
  UsageLog Str, Int;
  Str[Obj] = {{"Cipher.getInstance/1", {AbstractValue::strConst("1")}}};
  Int[Obj] = {{"Cipher.getInstance/1", {AbstractValue::intConst(1)}}};
  UsageDag A = UsageDag::build(Objects, Str, Obj);
  UsageDag B = UsageDag::build(Objects, Int, Obj);
  EXPECT_EQ(A.str(), B.str());
  EXPECT_NE(A.canonicalString(), B.canonicalString());
  EXPECT_FALSE(A.sameIdentity(B));
}

TEST(UsageDag, PathsKeepLabelsThatRenderAlike) {
  ObjectTable Objects;
  unsigned Obj = Objects.getOrCreate({1, 1, 0}, "Cipher");
  UsageLog Log;
  Log[Obj] = {{"Cipher.getInstance/1", {AbstractValue::strConst("1")}},
              {"Cipher.getInstance/1", {AbstractValue::intConst(1)}}};
  // Root, the shared method path, and one arg1:1 path per value kind.
  EXPECT_EQ(UsageDag::build(Objects, Log, Obj).paths().size(), 4u);
}

TEST(UsageDag, PathsAreDeduplicated) {
  Fixture F(true);
  UsageDag Dag = UsageDag::build(F.Objects, F.Log, F.Enc);
  std::vector<std::string> Paths = pathStrings(Dag);
  EXPECT_EQ(std::unique(Paths.begin(), Paths.end()), Paths.end());
}

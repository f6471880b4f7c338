//===- tests/test_tls_generality.cpp - Second-API generality tests ---------===//

#include "apimodel/TlsApiModel.h"
#include "core/DiffCode.h"
#include "rules/CryptoChecker.h"
#include "rules/TlsRules.h"

#include <gtest/gtest.h>

using namespace diffcode;

namespace {

const char *Sslv3Source =
    "class Chan { SSLSocketFactory open(KeyManager[] k, TrustManager[] t) "
    "throws Exception { "
    "SSLContext ctx = SSLContext.getInstance(\"SSLv3\"); "
    "SecureRandom r = new SecureRandom(); "
    "ctx.init(k, t, r); "
    "return ctx.getSocketFactory(); } }";

const char *Tls12Source =
    "class Chan { SSLSocketFactory open(KeyManager[] k, TrustManager[] t) "
    "throws Exception { "
    "SSLContext ctx = SSLContext.getInstance(\"TLSv1.2\"); "
    "SecureRandom r = new SecureRandom(); "
    "ctx.init(k, t, r); "
    "return ctx.getSocketFactory(); } }";

rules::UnitFacts factsFor(core::DiffCode &System, const char *Source) {
  return rules::UnitFacts::from(System.analyzeSourceChecked(Source).Result);
}

} // namespace

TEST(TlsApiModel, TargetClasses) {
  const apimodel::CryptoApiModel &Api = apimodel::javaTlsApi();
  EXPECT_TRUE(Api.isTargetClass("SSLContext"));
  EXPECT_TRUE(Api.isTargetClass("SSLSocketFactory"));
  EXPECT_FALSE(Api.isTargetClass("Cipher"));
  ASSERT_NE(Api.lookupMethod("SSLContext", "getInstance", 1), nullptr);
  EXPECT_TRUE(Api.lookupMethod("SSLContext", "getInstance", 1)->IsFactory);
  EXPECT_FALSE(Api.lookupMethod("SSLContext", "init", 3)->IsFactory);
}

TEST(TlsGenerality, AnalyzerTracksSslContext) {
  core::DiffCode System(apimodel::javaTlsApi());
  analysis::AnalysisResult Result = System.analyzeSourceChecked(Sslv3Source).Result;
  std::vector<usage::UsageDag> Dags =
      System.dagsForClass(Result, "SSLContext");
  ASSERT_EQ(Dags.size(), 1u);
  bool SawProtocol = false;
  for (const usage::FeaturePath &Path : Dags.front().paths())
    SawProtocol =
        SawProtocol ||
        usage::pathToString(Path) ==
            "SSLContext SSLContext.getInstance arg1:SSLv3";
  EXPECT_TRUE(SawProtocol);
}

TEST(TlsGenerality, UsageChangeFromHardeningCommit) {
  core::DiffCode System(apimodel::javaTlsApi());
  corpus::CodeChange Change;
  Change.OldCode = Sslv3Source;
  Change.NewCode = Tls12Source;
  std::vector<usage::UsageChange> Changes =
      System.usageChangesFor(Change, "SSLContext");
  ASSERT_EQ(Changes.size(), 1u);
  ASSERT_EQ(Changes[0].Removed.size(), 1u);
  ASSERT_EQ(Changes[0].Added.size(), 1u);
  EXPECT_EQ(Changes[0].pathString(Changes[0].Removed[0]),
            "SSLContext SSLContext.getInstance arg1:SSLv3");
  EXPECT_EQ(Changes[0].pathString(Changes[0].Added[0]),
            "SSLContext SSLContext.getInstance arg1:TLSv1.2");
}

TEST(TlsRules, T1FlagsDeprecatedProtocols) {
  core::DiffCode System(apimodel::javaTlsApi());
  rules::CryptoChecker Checker(rules::tlsRules());
  rules::UnitFacts OldFacts = factsFor(System, Sslv3Source);
  rules::UnitFacts NewFacts = factsFor(System, Tls12Source);

  rules::ProjectReport OldReport = Checker.checkProject({OldFacts});
  rules::ProjectReport NewReport = Checker.checkProject({NewFacts});
  EXPECT_TRUE(OldReport.verdicts()[0].Matched);  // T1
  EXPECT_TRUE(OldReport.verdicts()[1].Matched);  // T2
  EXPECT_FALSE(OldReport.verdicts()[2].Matched); // T3 (no getDefault)
  EXPECT_FALSE(NewReport.anyMatch());
}

TEST(TlsRules, T3FlagsDefaultFactory) {
  core::DiffCode System(apimodel::javaTlsApi());
  rules::UnitFacts Facts = factsFor(
      System,
      "class C { Socket open(String host) throws Exception { "
      "SSLSocketFactory f = SSLSocketFactory.getDefault(); "
      "return f.createSocket(host, 443); } }");
  rules::CryptoChecker Checker(rules::tlsRules());
  rules::ProjectReport Report = Checker.checkProject({Facts});
  bool T3 = false;
  for (const rules::RuleVerdict &V : Report.verdicts())
    if (Report.text(V.Rule) == "T3")
      T3 = V.Matched;
  EXPECT_TRUE(T3);
}

TEST(TlsRules, ClassifierWorksAcrossApis) {
  core::DiffCode System(apimodel::javaTlsApi());
  rules::UnitFacts OldFacts = factsFor(System, Sslv3Source);
  rules::UnitFacts NewFacts = factsFor(System, Tls12Source);
  EXPECT_EQ(rules::classifyChange(rules::tlsRules()[0], OldFacts, NewFacts),
            rules::ChangeClass::SecurityFix);
  EXPECT_EQ(rules::classifyChange(rules::tlsRules()[0], NewFacts, OldFacts),
            rules::ChangeClass::BuggyChange);
}

TEST(TlsGenerality, CryptoRulesDoNotInterfere) {
  // Running the TLS source through the *crypto* pipeline still works —
  // the SecureRandom usage is visible, the SSLContext is an unknown
  // class that is tracked but not a target.
  core::DiffCode System(apimodel::CryptoApiModel::javaCryptoApi());
  analysis::AnalysisResult Result = System.analyzeSourceChecked(Sslv3Source).Result;
  EXPECT_FALSE(System.dagsForClass(Result, "SecureRandom").empty());
  EXPECT_TRUE(System.dagsForClass(Result, "SSLContext").empty());
}

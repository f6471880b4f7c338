//===- core/ReportWriter.cpp -----------------------------------------------===//

#include "core/ReportWriter.h"

#include "support/JsonWriter.h"

using namespace diffcode;
using namespace diffcode::core;

namespace {

void emitPaths(JsonWriter &W, const char *Key, const usage::UsageChange &Change,
               const std::vector<support::PathId> &Paths) {
  // Ids resolve to strings only here, at the emission boundary;
  // Interner::pathString renders byte-identically to the old
  // pathToString over materialised paths.
  W.key(Key).beginArray();
  for (support::PathId Id : Paths)
    W.value(Change.Table->pathString(Id));
  W.endArray();
}

void emitUsageChange(JsonWriter &W, const usage::UsageChange &Change) {
  W.beginObject();
  W.key("type").value(Change.TypeName);
  W.key("origin").value(Change.Origin);
  emitPaths(W, "removed", Change, Change.Removed);
  emitPaths(W, "added", Change, Change.Added);
  W.endObject();
}

void emitChangeRecord(JsonWriter &W, const ChangeRecord &Record) {
  W.beginObject();
  W.key("origin").value(Record.Origin);
  W.key("kind").value(Record.GroundTruthKind);
  W.key("status").value(changeStatusName(Record.Status));
  W.key("detail").value(Record.StatusDetail);
  W.key("steps").value(static_cast<std::uint64_t>(Record.StepsUsed));
  W.key("perClass").beginArray();
  for (const auto &[Target, Changes] : Record.PerClass) {
    W.beginObject();
    W.key("target").value(Target);
    W.key("changes").beginArray();
    for (const usage::UsageChange &Change : Changes)
      emitUsageChange(W, Change);
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.key("classification").beginArray();
  for (const auto &[RuleId, Class] : Record.Classification) {
    W.beginObject();
    W.key("rule").value(RuleId);
    W.key("class").value(rules::changeClassName(Class));
    W.endObject();
  }
  W.endArray();
  W.endObject();
}

void emitHealth(JsonWriter &W, const CorpusHealth &Health) {
  W.beginObject();
  W.key("statuses").beginObject();
  for (std::size_t I = 0; I < NumChangeStatuses; ++I)
    W.key(changeStatusName(static_cast<ChangeStatus>(I)))
        .value(static_cast<std::uint64_t>(Health.StatusCounts[I]));
  W.endObject();
  W.key("clusteringFailures")
      .value(static_cast<std::uint64_t>(Health.ClusteringFailures));
  W.key("worstOffenders").beginArray();
  for (const WorstOffender &O : Health.WorstOffenders) {
    W.beginObject();
    W.key("origin").value(O.Origin);
    W.key("steps").value(O.Steps);
    // Deliberately no wall time here: the "health" block is part of the
    // byte-deterministic report surface; per-offender wall time lives in
    // the PerRun "metrics" block and the CLI table.
    W.key("status").value(changeStatusName(O.Status));
    W.endObject();
  }
  W.endArray();
  W.endObject();
}

/// The "metrics" block: the run summary plus per-offender wall times
/// (PerRun data whose only JSON home is this block).
void emitMetrics(JsonWriter &W, const CorpusReport &Report) {
  W.beginObject();
  W.key("counters").rawValue(Report.Metrics.Metrics.json());
  W.key("stages").beginArray();
  for (const obs::Tracer::StageTotal &S : Report.Metrics.Stages) {
    W.beginObject();
    W.key("name").value(S.Name);
    W.key("spans").value(S.Spans);
    W.key("totalNs").value(S.TotalNs);
    W.endObject();
  }
  W.endArray();
  W.key("worstOffenders").beginArray();
  for (const WorstOffender &O : Report.Health.WorstOffenders) {
    W.beginObject();
    W.key("origin").value(O.Origin);
    W.key("wallNs").value(O.WallNanos);
    W.endObject();
  }
  W.endArray();
  W.endObject();
}

} // namespace

std::string diffcode::core::usageChangeToJson(const usage::UsageChange &Change) {
  JsonWriter W;
  emitUsageChange(W, Change);
  return W.take();
}

std::string diffcode::core::changeRecordToJson(const ChangeRecord &Record) {
  JsonWriter W;
  emitChangeRecord(W, Record);
  return W.take();
}

std::string diffcode::core::corpusReportToJson(const CorpusReport &Report) {
  JsonWriter W;
  W.beginObject();
  W.key("classes").beginArray();
  for (const ClassReport &Class : Report.PerClass) {
    W.beginObject();
    W.key("target").value(Class.TargetClass);
    W.key("total").value(Class.Filtered.Total);
    W.key("afterFsame").value(Class.Filtered.AfterSame);
    W.key("afterFadd").value(Class.Filtered.AfterAdd);
    W.key("afterFrem").value(Class.Filtered.AfterRem);
    W.key("afterFdup").value(Class.Filtered.AfterDup);
    W.key("kept").beginArray();
    for (const usage::UsageChange &Change : Class.Filtered.Kept)
      emitUsageChange(W, Change);
    W.endArray();
    if (!Class.ClusteringError.empty())
      W.key("clusteringError").value(Class.ClusteringError);
    W.endObject();
  }
  W.endArray();
  W.key("changes").value(Report.Changes.size());
  W.key("health");
  emitHealth(W, Report.Health);
  // Last key, and only for observed runs: a metrics-off report is a
  // byte-for-byte prefix of the metrics-on report of the same corpus
  // (tests/test_metrics_differential.cpp relies on this).
  if (!Report.Metrics.empty()) {
    W.key("metrics");
    emitMetrics(W, Report);
  }
  W.endObject();
  return W.take();
}

std::string
diffcode::core::projectReportToJson(const rules::ProjectReport &Report) {
  JsonWriter W;
  W.beginObject();
  writeProjectVerdicts(W, Report);
  W.endObject();
  return W.take();
}

void diffcode::core::writeProjectVerdicts(JsonWriter &W,
                                          const rules::ProjectReport &Report) {
  W.key("rules").beginArray();
  for (const rules::RuleVerdict &Verdict : Report.verdicts()) {
    W.beginObject();
    W.key("id").value(Report.text(Verdict.Rule));
    W.key("applicable").value(Verdict.Applicable);
    W.key("matched").value(Verdict.Matched);
    // Only refined runs can suppress; the key's absence keeps the
    // refine-off report byte-identical to the pre-refinement shape.
    if (Verdict.Suppressed > 0)
      W.key("suppressed").value(static_cast<std::uint64_t>(Verdict.Suppressed));
    W.key("violations").beginArray();
    for (const rules::Violation &V : Verdict.Violations) {
      W.beginObject();
      W.key("type").value(Report.text(V.Type));
      W.key("site").value(Report.text(V.Site));
      W.key("unit").value(static_cast<std::uint64_t>(V.UnitIndex));
      W.endObject();
    }
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.key("anyMatch").value(Report.anyMatch());
}

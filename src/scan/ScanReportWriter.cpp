//===- scan/ScanReportWriter.cpp -------------------------------------------===//

#include "scan/ScanReportWriter.h"

#include "core/ReportWriter.h"
#include "support/JsonWriter.h"

#include <ostream>
#include <sstream>

using namespace diffcode;
using namespace diffcode::scan;

namespace {

/// One project record. Its verdicts come from core::writeProjectVerdicts,
/// so a record reads the same whether it came from the scanner or the
/// batch checker.
std::string recordJson(const ProjectScanRecord &Rec) {
  JsonWriter W;
  W.beginObject();
  W.key("project").value(Rec.Project);
  W.key("status").value(core::changeStatusName(Rec.Status));
  if (Rec.Status != core::ChangeStatus::Ok && !Rec.Detail.empty())
    W.key("detail").value(Rec.Detail);
  W.key("units").value(static_cast<std::uint64_t>(Rec.Units));
  core::writeProjectVerdicts(W, Rec.Report);
  W.endObject();
  return W.take();
}

std::string summaryJson(const ScanReport &Report) {
  JsonWriter W;
  W.beginObject();
  W.key("projects").value(static_cast<std::uint64_t>(Report.Projects.size()));
  W.key("violating")
      .value(static_cast<std::uint64_t>(Report.ProjectsWithViolation));
  W.key("status").beginObject();
  for (unsigned I = 0; I < core::NumChangeStatuses; ++I)
    if (Report.StatusCounts[I])
      W.key(core::changeStatusName(static_cast<core::ChangeStatus>(I)))
          .value(static_cast<std::uint64_t>(Report.StatusCounts[I]));
  W.endObject();
  W.key("rules").beginArray();
  for (const RuleTotal &T : Report.Rules) {
    W.beginObject();
    W.key("id").value(Report.text(T.Rule));
    W.key("applicable").value(T.Applicable);
    W.key("matched").value(T.Matched);
    W.key("violations").value(T.Violations);
    W.key("suppressed").value(T.Suppressed);
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return W.take();
}

} // namespace

ScanReportWriter::ScanReportWriter(std::ostream &Out) : Out(Out) {
  Out << "{\"projects\":[";
}

void ScanReportWriter::onProject(std::size_t, const ProjectScanRecord &Record) {
  if (AnyProject)
    Out << ',';
  AnyProject = true;
  Out << recordJson(Record);
}

void ScanReportWriter::finish(const ScanReport &Report) {
  Out << "],\"summary\":" << summaryJson(Report);
  // Last key, and only for observed runs: an unobserved scan report is
  // a byte-for-byte prefix of the observed report of the same corpus
  // (mirroring corpusReportToJson's contract).
  if (!Report.Metrics.empty())
    Out << ",\"metrics\":" << Report.Metrics.json();
  Out << '}';
  Out.flush();
}

std::string scan::scanReportToJson(const ScanReport &Report) {
  std::ostringstream OS;
  ScanReportWriter W(OS);
  for (std::size_t I = 0; I < Report.Projects.size(); ++I)
    W.onProject(I, Report.Projects[I]);
  W.finish(Report);
  return OS.str();
}

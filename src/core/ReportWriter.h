//===- core/ReportWriter.h - JSON export of pipeline results ---------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serializes the pipeline's outputs to JSON for downstream tooling: a
/// usage change (its signed feature paths), a whole CorpusReport (per-
/// class filter stats + kept changes), and a CryptoChecker ProjectReport
/// (per-rule verdicts and violating sites). The paper published its
/// commits and reports at diffcode.ethz.ch; this is the machine-readable
/// equivalent.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_CORE_REPORTWRITER_H
#define DIFFCODE_CORE_REPORTWRITER_H

#include "core/DiffCode.h"
#include "rules/CryptoChecker.h"

#include <string>

namespace diffcode {
class JsonWriter;

namespace core {

/// One usage change as a JSON object
/// {"type":..,"origin":..,"removed":[..],"added":[..]}.
std::string usageChangeToJson(const usage::UsageChange &Change);

/// One processed change with its containment status:
/// {"origin":..,"kind":..,"status":..,"detail":..,"steps":..,
///  "perClass":[{"target":..,"changes":[..]}],"classification":[..]}.
/// Byte-identical serialization is what the fault-injection harness
/// compares across thread counts.
std::string changeRecordToJson(const ChangeRecord &Record);

/// The whole corpus pipeline result:
/// {"classes":[{"target":..,"total":..,"fsame":..,..,"kept":[...]}],
///  "changes":..,"health":{"statuses":{..},"clusteringFailures":..,
///  "worstOffenders":[..]}}.
std::string corpusReportToJson(const CorpusReport &Report);

/// A CryptoChecker project report:
/// {"rules":[{"id":..,"applicable":..,"matched":..,"violations":[..]}],
///  "anyMatch":..}.
std::string projectReportToJson(const rules::ProjectReport &Report);

/// Writes \p Report's "rules" array and "anyMatch" key into the object
/// \p W has open. projectReportToJson and the scanner's per-project
/// records both emit their verdicts through it, so the two shapes cannot
/// drift apart.
void writeProjectVerdicts(JsonWriter &W, const rules::ProjectReport &Report);

} // namespace core
} // namespace diffcode

#endif // DIFFCODE_CORE_REPORTWRITER_H

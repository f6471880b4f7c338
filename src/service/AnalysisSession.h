//===- service/AnalysisSession.h - Incremental analysis session ------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stateful heart of service mode (DESIGN.md "Service mode and the
/// session API"): an AnalysisSession is a PipelineRequest whose state
/// persists — changes accumulate across ingest() calls, and the
/// per-class clustering the batch pipeline would recompute from scratch
/// is repaired incrementally instead:
///
///   * every appended change is analyzed once, by the same
///     processChange a cold run calls, under the fault scope of its
///     global corpus index;
///   * per-class pair distances are persisted across ingests keyed by
///     usage-change feature signatures, so repairing a dendrogram after
///     an append computes only the new item's pairs — every old pair is
///     a table lookup (bit-identical: cold runs evaluate the same
///     cluster::usageDist per pair);
///   * only classes whose usage set actually changed are re-filtered and
///     re-clustered; untouched classes keep their ClassReport verbatim.
///
/// Byte-identity contract (the PR 1-7 differential pattern): after any
/// sequence of ingests, report() is byte-identical to a cold
/// DiffCode::run over the same changes in the same order, at any thread
/// count. One deliberate scope cut keeps that contract airtight: when a
/// fault campaign arms any in-process analysis site, the pair tables are
/// bypassed and touched classes re-cluster cold — a table lookup skips
/// the Hungarian fault points a cold matrix evaluates, so the tables are
/// only trusted when they cannot change observable behaviour.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_SERVICE_ANALYSISSESSION_H
#define DIFFCODE_SERVICE_ANALYSISSESSION_H

#include "core/DiffCode.h"
#include "corpus/RepoModel.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace diffcode {
namespace service {

/// Session knobs: the pipeline config the session's DiffCode runs under
/// and the rules a cold PipelineRequest would classify with. The session
/// always covers the API model's target classes and builds dendrograms.
struct SessionOptions {
  core::PipelineConfig Config;
  /// Rules each change is classified under (may be empty). Pointed-to
  /// rules must outlive the session.
  std::vector<const rules::Rule *> ClassifyWith;
  /// Observability sink for service.* metrics (null = off). Must
  /// outlive the session.
  obs::Observer *Metrics = nullptr;
};

/// What one ingest() did, mirrored into the obs registry as service.*
/// metrics when the session is observed. Deterministic for a given
/// ingest sequence.
struct IngestStats {
  std::size_t Ingested = 0;      ///< Changes appended this call.
  /// Always 0: the session keeps no per-change record memo. The field
  /// stays only because the benchmark (perfbench/src/Traced.cpp) reads
  /// it; it goes together with perfbench's service.cache_hit_share.
  std::size_t CacheHits = 0;
  std::size_t ClassesRepaired = 0; ///< Classes re-filtered/re-clustered.
  std::size_t ClassesReused = 0;   ///< Classes kept verbatim.
  std::uint64_t PairsComputed = 0; ///< Fresh usageDist evaluations.
  std::uint64_t PairsReused = 0;   ///< Pair distances served from tables.
};

/// Cumulative session counters (sums of every ingest's IngestStats), for
/// the Query wire request and tests.
struct SessionStats {
  std::size_t TotalChanges = 0;
  std::size_t Ingests = 0;
  IngestStats Lifetime; ///< Ingested/repaired/pairs summed over ingests.
};

/// A long-lived incremental pipeline over an append-only change stream.
/// Not thread-safe: the server loop (service/Server.h) serializes
/// requests; embedders needing concurrency put a session behind a lock.
class AnalysisSession {
public:
  explicit AnalysisSession(const apimodel::CryptoApiModel &Api,
                           SessionOptions Opts = SessionOptions());
  ~AnalysisSession();

  AnalysisSession(const AnalysisSession &) = delete;
  AnalysisSession &operator=(const AnalysisSession &) = delete;

  /// Appends \p Changes to the session corpus and repairs the report:
  /// analyzes each change (Config.Threads workers), then re-filters and
  /// re-clusters only classes whose usage set changed. The changes
  /// themselves are not retained — their records are.
  IngestStats ingest(const std::vector<corpus::CodeChange> &Changes);

  /// The repaired-to-date report: byte-identical to a cold
  /// DiffCode::run over every ingested change in ingest order. Valid
  /// until the next ingest().
  const core::CorpusReport &report() const { return Report; }

  /// corpusReportToJson(report()) — the snapshot the wire protocol
  /// serves.
  std::string reportJson() const;

  /// Changes ingested so far.
  std::size_t size() const { return Report.Changes.size(); }

  SessionStats stats() const;

  /// The session's DiffCode (for tests that compare against cold runs
  /// under the identical config).
  const core::DiffCode &system() const { return System; }

private:
  struct ClassState;

  void repairClass(std::size_t ClassIndex, std::size_t FirstNewRecord,
                   IngestStats &Stats);
  void recordMetrics(const IngestStats &Stats) const;

  SessionOptions Opts;
  core::DiffCode System;
  std::vector<std::string> TargetClasses;
  /// False when a fault campaign arms an in-process analysis or
  /// clustering site. It guards only the pair tables: a lookup would skip
  /// the Hungarian fault points a cold matrix evaluates, so touched
  /// classes then re-cluster cold (still byte-identical). Parser and
  /// interpreter campaigns lose only the tables' speed.
  bool CachingSafe = true;

  /// The live report. Report.Changes is the session's record store;
  /// PerClass is repaired in place; Health recomputed per ingest.
  core::CorpusReport Report;

  /// Per target class (parallel to TargetClasses / Report.PerClass).
  std::vector<std::unique_ptr<ClassState>> Classes;

  std::size_t Ingests = 0;
  IngestStats Lifetime;
};

} // namespace service
} // namespace diffcode

#endif // DIFFCODE_SERVICE_ANALYSISSESSION_H

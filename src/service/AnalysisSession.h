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
///   * every ingested batch is analyzed by the same analyzeChanges a
///     cold run calls, each change under the fault scope of its global
///     corpus index; a version repeated within the batch is analyzed
///     once, and each file history's last new-side version is carried to
///     the next ingest (core::VersionCarry), so a commit's old file, the
///     previous commit's new file, is not analyzed again;
///   * the health block and each touched class's filter result are
///     continued over the new records only (core::HealthTally,
///     core::continueFilters with a per-class fdup seen-set), which gives
///     exactly what a recount over the whole session gives;
///   * only classes the new records contribute to are re-filtered, and a
///     touched class is re-clustered only when its survivors grew
///     (survivors are append-only, so the same count means the same
///     matrix and the same tree); untouched classes keep their
///     ClassReport verbatim;
///   * a class whose survivors grew re-clusters from scratch through
///     DiffCode::clusterClass, exactly as a cold run does. Per class the
///     session keeps only fdup's seen-set.
///
/// Byte-identity contract (the PR 1-7 differential pattern): after any
/// sequence of ingests, report() is byte-identical to a cold
/// DiffCode::run over the same changes in the same order, at any thread
/// count. One deliberate scope cut keeps that contract airtight: when a
/// fault campaign arms any in-process analysis site, touched classes
/// re-cluster on every ingest — a kept tree skips the Hungarian and
/// clustering fault points a cold run evaluates, so it is only trusted
/// when it cannot change observable behaviour.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_SERVICE_ANALYSISSESSION_H
#define DIFFCODE_SERVICE_ANALYSISSESSION_H

#include "core/DiffCode.h"
#include "corpus/RepoModel.h"

#include <cstdint>
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
  /// Observability sink (null = off): the service.* metrics, and each
  /// ingest's analysis metrics as an observed analyzeChanges records them
  /// (processChange spans, pipeline.versions_*). Must outlive the
  /// session.
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
  /// Classes the new records contribute to: each is re-filtered, and
  /// re-clustered only when its survivors grew (or, under an armed
  /// analysis or clustering campaign, always).
  std::size_t ClassesRepaired = 0;
  std::size_t ClassesReused = 0; ///< Classes kept verbatim.
  /// usageDist calls made by this ingest's re-clusters: C(n, 2) for each
  /// re-clustered class with n survivors. 0 when every touched class kept
  /// its tree.
  std::uint64_t PairsComputed = 0;
  /// Always 0: the session keeps no pair-distance tables. The field stays
  /// only because the benchmark (perfbench/src/Traced.cpp) reads it; it
  /// goes together with perfbench's service.pairs_reused.
  std::uint64_t PairsReused = 0;
};

/// Cumulative session counters, for the Query wire request and tests.
struct SessionStats {
  std::size_t TotalChanges = 0;
  std::size_t Ingests = 0;
  /// Ingested, ClassesRepaired and ClassesReused summed over ingests (what
  /// the "stats" query reports); the other fields stay 0.
  IngestStats Lifetime;
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
  /// analyzes them with DiffCode::analyzeChanges (Config.Threads
  /// threads), continues the filter result of each class they contribute
  /// to, re-clusters those whose survivors grew, and extends the health
  /// tally. The changes themselves are not retained — their records are,
  /// and a copy of each file history's last new-side text.
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
  void repairClass(std::size_t ClassIndex, std::size_t FirstNewRecord,
                   IngestStats &Stats);
  void recordMetrics(const IngestStats &Stats) const;

  SessionOptions Opts;
  core::DiffCode System;
  std::vector<std::string> TargetClasses;
  /// False when a fault campaign arms an in-process analysis or
  /// clustering site. It guards only the kept trees: a kept tree skips the
  /// Hungarian and clustering fault points a cold re-cluster evaluates, so
  /// touched classes then re-cluster on every ingest (still
  /// byte-identical).
  bool CachingSafe = true;

  /// The live report. Report.Changes is the session's record store;
  /// PerClass is repaired in place; Health is rebuilt from Tally.
  core::CorpusReport Report;
  /// The health tally over Report.Changes, extended by each ingest's
  /// records.
  core::HealthTally Tally;

  /// fdup's seen-set over each class's survivors so far, so an ingest
  /// filters only its own usage changes (core::continueFilters). Parallel
  /// to TargetClasses / Report.PerClass.
  std::vector<core::FilterSeen> Seen;

  /// Each file history's last new-side version, which the next ingest's
  /// analyzeChanges seeds that history's store with.
  core::VersionCarry Carry;

  std::size_t Ingests = 0;
  IngestStats Lifetime;
};

} // namespace service
} // namespace diffcode

#endif // DIFFCODE_SERVICE_ANALYSISSESSION_H

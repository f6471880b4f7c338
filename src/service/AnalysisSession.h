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
/// persists — changes accumulate across ingest() calls, and every
/// intermediate product the batch pipeline would recompute from scratch
/// is cached and incrementally repaired instead:
///
///   * per-change records are memoised under a content-hash key (dual
///     independent FNV-1a variants over both source versions, plus both
///     lengths, seeded by a fingerprint of the parse/analysis limits), so
///     re-ingesting an already-seen file re-analyzes nothing;
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
/// DiffCode::run over the same changes in the same order — at any
/// thread count, any cache bound, and with the ServiceHash collision
/// site armed. One deliberate scope cut keeps that contract airtight:
/// when a fault campaign arms any in-process analysis site, memoisation
/// is bypassed entirely — cached work evaluates fault points differently
/// than cold work would, so the caches are only trusted when they cannot
/// change observable behaviour.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_SERVICE_ANALYSISSESSION_H
#define DIFFCODE_SERVICE_ANALYSISSESSION_H

#include "core/DiffCode.h"
#include "corpus/RepoModel.h"

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace diffcode {
namespace service {

/// Session knobs: the pipeline config the session's DiffCode runs under,
/// plus what a cold PipelineRequest would carry (target classes, rules,
/// whether dendrograms build) and the cache bound.
struct SessionOptions {
  core::PipelineConfig Config;
  /// Empty = the API model's target classes.
  std::vector<std::string> TargetClasses;
  /// Rules each change is classified under (may be empty). Pointed-to
  /// rules must outlive the session.
  std::vector<const rules::Rule *> ClassifyWith;
  bool BuildDendrograms = true;
  /// Upper bound on memoised per-change records (0 = unbounded). FIFO
  /// eviction in insertion order: a bound only changes how much future
  /// work is saved, never a single report byte.
  std::size_t MaxCachedChanges = 0;
  /// Observability sink for service.* cache/repair metrics (null = off).
  /// Must outlive the session.
  obs::Observer *Metrics = nullptr;
};

/// What one ingest() did, mirrored into the obs registry as service.*
/// metrics when the session is observed. Deterministic for a given
/// ingest sequence (eviction order is insertion order, and hit/miss is a
/// pure function of content + config fingerprint).
struct IngestStats {
  std::size_t Ingested = 0;      ///< Changes appended this call.
  std::size_t CacheHits = 0;     ///< Records served from the memo table.
  std::size_t CacheMisses = 0;   ///< Records analyzed fresh.
  std::size_t Evictions = 0;     ///< Memo entries dropped by the bound.
  std::size_t ClassesRepaired = 0; ///< Classes re-filtered/re-clustered.
  std::size_t ClassesReused = 0;   ///< Classes kept verbatim.
  std::uint64_t PairsComputed = 0; ///< Fresh usageDist evaluations.
  std::uint64_t PairsReused = 0;   ///< Pair distances served from tables.
};

/// Cumulative session counters (sums of every ingest's IngestStats plus
/// the current cache size), for the Query wire request and tests.
struct SessionStats {
  std::size_t TotalChanges = 0;
  std::size_t Ingests = 0;
  std::size_t CachedRecords = 0;
  IngestStats Lifetime; ///< Ingested/hits/misses/... summed over ingests.
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
  /// analyzes only cache-missing changes (Config.Threads workers),
  /// re-filters and re-clusters only classes whose usage set changed.
  /// The changes themselves are not retained — their records are.
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

  const std::vector<std::string> &targetClasses() const {
    return TargetClasses;
  }

private:
  struct ClassState;

  /// Dual-hash content key. Two independent 64-bit FNV-1a variants over
  /// (OldLen, Old bytes, NewLen, New bytes), each seeded by the config
  /// fingerprint, plus both raw lengths: a primary-hash collision (or
  /// the ServiceHash fault site collapsing H1 outright) still
  /// discriminates on H2 + lengths. Full-key aliasing needs a
  /// simultaneous 128-bit + length collision, which we accept and
  /// document.
  struct CacheKey {
    std::uint64_t H1 = 0;
    std::uint64_t H2 = 0;
    std::uint64_t OldLen = 0;
    std::uint64_t NewLen = 0;
    friend bool operator==(const CacheKey &, const CacheKey &) = default;
  };
  struct CacheKeyHash {
    std::size_t operator()(const CacheKey &K) const;
  };

  /// Content key of \p Change. Callers install the change's global-index
  /// FaultScope first: the ServiceHash site is evaluated here (site key =
  /// the computed primary hash) so collision campaigns land on the same
  /// changes at any thread count.
  CacheKey keyFor(const corpus::CodeChange &Change) const;
  void repairClass(std::size_t ClassIndex, std::size_t FirstNewRecord,
                   IngestStats &Stats);
  void recordMetrics(const IngestStats &Stats) const;

  SessionOptions Opts;
  core::DiffCode System;
  std::vector<std::string> TargetClasses;
  /// Folded parse/analysis-limit fingerprint seeding both content
  /// hashes, so a session with different limits never aliases records
  /// persisted by tooling that shares key material.
  std::uint64_t ConfigFingerprint = 0;
  /// False when a fault campaign arms in-process analysis/clustering
  /// sites: memoisation would change which fault points are evaluated,
  /// so every ingest runs cold inside (still byte-identical).
  bool CachingSafe = true;

  /// The live report. Report.Changes is the session's record store;
  /// PerClass is repaired in place; Health recomputed per ingest.
  core::CorpusReport Report;

  /// Memoised origin-neutral records (Origin/GroundTruthKind and every
  /// UsageChange::Origin blanked; re-stamped on hit) in FIFO insertion
  /// order for deterministic eviction.
  std::unordered_map<CacheKey, core::ChangeRecord, CacheKeyHash> Cache;
  std::deque<CacheKey> CacheOrder;

  /// Per target class (parallel to TargetClasses / Report.PerClass).
  std::vector<std::unique_ptr<ClassState>> Classes;

  std::size_t Ingests = 0;
  IngestStats Lifetime;
};

} // namespace service
} // namespace diffcode

#endif // DIFFCODE_SERVICE_ANALYSISSESSION_H

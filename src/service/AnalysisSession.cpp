//===- service/AnalysisSession.cpp -----------------------------------------===//

#include "service/AnalysisSession.h"

#include "cluster/Distance.h"
#include "core/ReportWriter.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <utility>

using namespace diffcode;
using namespace diffcode::service;

/// Per-class incremental clustering state. Kept items are append-only
/// across ingests (fsame/fadd/frem are per-item and fdup keeps *first*
/// occurrences, so appending changes never evicts a survivor), which is
/// what makes a persistent pair table sound: old pairs stay valid
/// forever, an ingest only adds new rows.
struct AnalysisSession::ClassState {
  /// Feature signature (exact Removed/Added id vectors) -> dense
  /// signature id. fdup guarantees Kept signatures are distinct within a
  /// class, so a signature id identifies exactly one kept item for the
  /// session's lifetime. Ids are internal bookkeeping only — they never
  /// reach the report, so their dependence on interner id values is fine
  /// (support/Interner.h determinism contract).
  std::map<std::pair<std::vector<support::PathId>, std::vector<support::PathId>>,
           std::uint32_t>
      SigIds;
  /// (lo signature id << 32 | hi) -> usageDist. Distances depend only on
  /// the two feature sets, so the table survives any amount of
  /// re-filtering.
  std::unordered_map<std::uint64_t, double> PairDist;

  std::uint32_t idFor(const usage::UsageChange &Change) {
    auto It = SigIds.emplace(std::make_pair(Change.Removed, Change.Added),
                             std::uint32_t(SigIds.size()));
    return It.first->second;
  }

  static std::uint64_t pairKey(std::uint32_t A, std::uint32_t B) {
    if (A > B)
      std::swap(A, B);
    return (std::uint64_t(A) << 32) | B;
  }
};

namespace {

/// Strips everything a cache hit must re-stamp: provenance and the
/// ground-truth label are properties of the *occurrence*, not the
/// content.
void neutralizeRecord(core::ChangeRecord &Record) {
  Record.Origin.clear();
  Record.GroundTruthKind.clear();
  for (auto &[Class, Changes] : Record.PerClass)
    for (usage::UsageChange &C : Changes)
      C.Origin.clear();
}

void stampRecord(core::ChangeRecord &Record, const corpus::CodeChange &Change) {
  Record.Origin = Change.origin();
  Record.GroundTruthKind = Change.Kind;
  for (auto &[Class, Changes] : Record.PerClass)
    for (usage::UsageChange &C : Changes)
      C.Origin = Record.Origin;
}

/// Folds the knobs that change what analysis produces for given source
/// bytes. Seeding the content hashes with this keeps records from one
/// limit configuration from ever aliasing another's.
std::uint64_t configFingerprint(const core::PipelineConfig &Config) {
  std::uint64_t F = 0x6469666663646531ull; // "diffcde1"
  auto Fold = [&F](std::uint64_t V) { F = support::faultMix(F ^ V); };
  Fold(Config.Limits.Parse.MaxTokens);
  Fold(Config.Limits.Parse.MaxNestingDepth);
  Fold(static_cast<std::uint64_t>(Config.Limits.Analysis.Abstraction));
  Fold(Config.Limits.Analysis.MaxStatesPerEntry);
  Fold(Config.Limits.Analysis.MaxInlineDepth);
  Fold(Config.Limits.Analysis.Fuel);
  Fold(Config.Limits.Analysis.MaxObjects);
  Fold(Config.Limits.DagDepth);
  return F;
}

/// True when an armed campaign could fire inside per-change analysis or
/// clustering. Serving such work from a cache would skip fault points a
/// cold run evaluates, so the session must run cold inside to stay
/// byte-identical. ServiceHash itself is exempt by design (it fires *at*
/// the cache, to attack key selectivity), and the Proc* sites only exist
/// inside exec workers the session never spawns.
bool cachingSafeUnder(const support::FaultPlan &Plan) {
  const std::uint32_t UnsafeSites =
      support::faultSiteBit(support::FaultSite::Parser) |
      support::faultSiteBit(support::FaultSite::Interpreter) |
      support::faultSiteBit(support::FaultSite::Hungarian) |
      support::faultSiteBit(support::FaultSite::Clustering);
  return !(Plan.enabled() && (Plan.SiteMask & UnsafeSites) != 0);
}

} // namespace

std::size_t
AnalysisSession::CacheKeyHash::operator()(const CacheKey &K) const {
  std::uint64_t H = support::faultMix(K.H1 ^ support::faultMix(K.H2));
  H = support::faultMix(H ^ K.OldLen ^ (K.NewLen << 20));
  return static_cast<std::size_t>(H);
}

AnalysisSession::AnalysisSession(const apimodel::CryptoApiModel &Api,
                                 SessionOptions Options)
    : Opts(std::move(Options)), System(Api, Opts.Config),
      TargetClasses(Opts.TargetClasses.empty() ? Api.targetClasses()
                                               : Opts.TargetClasses),
      ConfigFingerprint(configFingerprint(Opts.Config)),
      CachingSafe(cachingSafeUnder(Opts.Config.Faults)) {
  Report.Labels = System.labels();
  // Start from the empty-corpus report a cold run over zero changes
  // produces: one ClassReport per target class (empty filter result,
  // empty tree) plus the all-zero health block.
  for (const std::string &Class : TargetClasses) {
    Report.PerClass.push_back(System.filterClass({}, Class));
    Classes.push_back(std::make_unique<ClassState>());
  }
  core::computeCorpusHealth(Report);
}

AnalysisSession::~AnalysisSession() = default;

AnalysisSession::CacheKey
AnalysisSession::keyFor(const corpus::CodeChange &Change) const {
  CacheKey K;
  K.OldLen = Change.OldCode.size();
  K.NewLen = Change.NewCode.size();
  // Two byte-wise hashes from different families (FNV-1a and a
  // golden-ratio multiply) over the same framed input. FNV variants that
  // differ only in seed collide together, so the second hash must mix
  // differently, not just start differently.
  std::uint64_t H1 = 0xcbf29ce484222325ull ^ support::faultMix(ConfigFingerprint);
  std::uint64_t H2 =
      0x9e3779b97f4a7c15ull ^ support::faultMix(ConfigFingerprint + 1);
  auto Feed = [&H1, &H2](std::uint64_t Word) {
    for (unsigned I = 0; I < 8; ++I) {
      std::uint8_t Byte = (Word >> (I * 8)) & 0xff;
      H1 = (H1 ^ Byte) * 0x100000001b3ull;
      H2 = (H2 ^ Byte) * 0x9e3779b97f4a7c15ull + 0x7f4a7c15ull;
    }
  };
  auto FeedBytes = [&H1, &H2](const std::string &S) {
    for (unsigned char Byte : S) {
      H1 = (H1 ^ Byte) * 0x100000001b3ull;
      H2 = (H2 ^ Byte) * 0x9e3779b97f4a7c15ull + 0x7f4a7c15ull;
    }
  };
  Feed(K.OldLen);
  FeedBytes(Change.OldCode);
  Feed(K.NewLen);
  FeedBytes(Change.NewCode);
  // The collision campaign: under an armed ServiceHash site the primary
  // hash collapses to a constant and every entry lands in one H1 bucket —
  // the full key must still discriminate via H2 + lengths.
  if (support::faultPoint(support::FaultSite::ServiceHash, H1))
    H1 = 0;
  K.H1 = H1;
  K.H2 = H2;
  return K;
}

IngestStats
AnalysisSession::ingest(const std::vector<corpus::CodeChange> &Changes) {
  obs::Span IngestSpan(Opts.Metrics ? &Opts.Metrics->Trace : nullptr,
                       "session.ingest");
  IngestStats Stats;
  Stats.Ingested = Changes.size();
  const std::size_t FirstNewRecord = Report.Changes.size();
  const support::FaultPlan &Faults = Opts.Config.Faults;

  // Phase 1 — key every change serially in global-index order and decide
  // how its record materializes. Serial keying keeps hit/miss (and
  // therefore FIFO insertion order) a pure function of the ingest
  // sequence, independent of thread count.
  enum class Kind { Miss, Hit, DupOfMiss };
  struct Pending {
    CacheKey Key;
    Kind How = Kind::Miss;
    std::size_t FirstIndex = 0; ///< Batch index of the miss a dup copies.
  };
  std::vector<Pending> Batch(Changes.size());
  std::unordered_map<CacheKey, std::size_t, CacheKeyHash> FirstInBatch;
  for (std::size_t I = 0; I < Changes.size(); ++I) {
    support::FaultScope Scope(&Faults, FirstNewRecord + I);
    Pending &P = Batch[I];
    P.Key = keyFor(Changes[I]);
    if (!CachingSafe)
      continue; // analyze everything cold; never touch the memo table
    if (Cache.count(P.Key)) {
      P.How = Kind::Hit;
    } else if (auto It = FirstInBatch.find(P.Key); It != FirstInBatch.end()) {
      // Same content twice in one batch: the first occurrence is being
      // analyzed right now, so copy its record instead of re-analyzing.
      P.How = Kind::DupOfMiss;
      P.FirstIndex = It->second;
    } else {
      FirstInBatch.emplace(P.Key, I);
    }
  }

  // Phase 2 — analyze the misses in parallel, each under the fault scope
  // of its *global* corpus index: a cold run over the whole accumulated
  // change list scopes change G with key G, so the session must too for
  // armed campaigns to land identically.
  Report.Changes.resize(FirstNewRecord + Changes.size());
  std::vector<std::size_t> Misses;
  for (std::size_t I = 0; I < Changes.size(); ++I)
    if (Batch[I].How == Kind::Miss)
      Misses.push_back(I);
  if (!Misses.empty()) {
    unsigned Threads =
        std::min<unsigned>(support::resolveThreads(Opts.Config.Threads),
                           std::max<std::size_t>(Misses.size(), 1));
    support::Interner &Table = *System.labels();
    support::ThreadPool Pool(Threads);
    Pool.parallelForChunked(
        Misses.size(), 1, [&](std::size_t Begin, std::size_t Stop) {
          for (std::size_t M = Begin; M < Stop; ++M) {
            std::size_t I = Misses[M];
            support::FaultScope Scope(&Faults, FirstNewRecord + I);
            Report.Changes[FirstNewRecord + I] = System.processChange(
                Changes[I], TargetClasses, Opts.ClassifyWith, Table);
          }
        });
  }

  // Phase 3 — serially fill hits and populate the memo table in batch
  // order (deterministic eviction order falls out of insertion order).
  for (std::size_t I = 0; I < Changes.size(); ++I) {
    core::ChangeRecord &Slot = Report.Changes[FirstNewRecord + I];
    switch (Batch[I].How) {
    case Kind::Miss:
      ++Stats.CacheMisses;
      if (CachingSafe) {
        core::ChangeRecord Neutral = Slot;
        neutralizeRecord(Neutral);
        Cache.emplace(Batch[I].Key, std::move(Neutral));
        CacheOrder.push_back(Batch[I].Key);
      }
      break;
    case Kind::Hit:
      ++Stats.CacheHits;
      Slot = Cache.find(Batch[I].Key)->second;
      stampRecord(Slot, Changes[I]);
      break;
    case Kind::DupOfMiss:
      ++Stats.CacheHits;
      Slot = Report.Changes[FirstNewRecord + Batch[I].FirstIndex];
      stampRecord(Slot, Changes[I]);
      break;
    }
  }
  if (Opts.MaxCachedChanges > 0)
    while (Cache.size() > Opts.MaxCachedChanges) {
      Cache.erase(CacheOrder.front());
      CacheOrder.pop_front();
      ++Stats.Evictions;
    }

  // Phase 4 — repair exactly the classes the new records contribute to;
  // every other ClassReport is already byte-for-byte what a cold run
  // would rebuild (its inputs did not change).
  for (std::size_t C = 0; C < TargetClasses.size(); ++C) {
    bool Touched = false;
    for (std::size_t R = FirstNewRecord; R < Report.Changes.size() && !Touched;
         ++R)
      Touched = Report.Changes[R].PerClass.count(TargetClasses[C]) > 0;
    if (Touched) {
      repairClass(C, FirstNewRecord, Stats);
      ++Stats.ClassesRepaired;
    } else {
      ++Stats.ClassesReused;
    }
  }

  core::computeCorpusHealth(Report);

  ++Ingests;
  Lifetime.Ingested += Stats.Ingested;
  Lifetime.CacheHits += Stats.CacheHits;
  Lifetime.CacheMisses += Stats.CacheMisses;
  Lifetime.Evictions += Stats.Evictions;
  Lifetime.ClassesRepaired += Stats.ClassesRepaired;
  Lifetime.ClassesReused += Stats.ClassesReused;
  Lifetime.PairsComputed += Stats.PairsComputed;
  Lifetime.PairsReused += Stats.PairsReused;
  recordMetrics(Stats);
  return Stats;
}

void AnalysisSession::repairClass(std::size_t ClassIndex,
                                  std::size_t FirstNewRecord,
                                  IngestStats &Stats) {
  core::ClassReport &Class = Report.PerClass[ClassIndex];

  // Gather: AllChanges is append-only in record order, so extending it
  // with the new records' contributions reproduces what filterClass
  // would gather from scratch.
  for (std::size_t R = FirstNewRecord; R < Report.Changes.size(); ++R) {
    auto It = Report.Changes[R].PerClass.find(Class.TargetClass);
    if (It == Report.Changes[R].PerClass.end())
      continue;
    Class.AllChanges.insert(Class.AllChanges.end(), It->second.begin(),
                            It->second.end());
  }
  // Filter: a full linear re-run. Incrementalizing fdup's seen-set is
  // possible but the filters are a rounding error next to clustering.
  Class.Filtered = core::applyFilters(Class.AllChanges);

  if (!Opts.BuildDendrograms)
    return;

  // Cold fallback: armed analysis campaigns must evaluate every fault
  // point a cold run would.
  if (!CachingSafe) {
    System.clusterClass(Class);
    return;
  }

  // Incremental re-cluster: rebuild the dense matrix from the persisted
  // pair table, computing only pairs never seen before (for an append
  // ingest that is one thin border strip of the matrix), then hand it to
  // the batch engine's clustering step. usageDist is a pure function of
  // the two feature sets and the cold matrix evaluates it per pair too,
  // so every looked-up entry matches what the cold matrix would hold —
  // and identical matrices agglomerate into identical dendrograms.
  ClassState &State = *Classes[ClassIndex];
  const std::vector<usage::UsageChange> &Kept = Class.Filtered.Kept;
  System.clusterClass(Class, [&] {
    const std::size_t N = Kept.size();
    std::vector<std::uint32_t> Sig(N);
    for (std::size_t I = 0; I < N; ++I)
      Sig[I] = State.idFor(Kept[I]);
    std::vector<double> Matrix(N * N, 0.0);
    for (std::size_t I = 0; I < N; ++I)
      for (std::size_t J = I + 1; J < N; ++J) {
        std::uint64_t Key = ClassState::pairKey(Sig[I], Sig[J]);
        auto It = State.PairDist.find(Key);
        if (It == State.PairDist.end()) {
          It = State.PairDist
                   .emplace(Key, cluster::usageDist(Kept[I], Kept[J]))
                   .first;
          ++Stats.PairsComputed;
        } else {
          ++Stats.PairsReused;
        }
        Matrix[I * N + J] = Matrix[J * N + I] = It->second;
      }
    return Matrix;
  });
}

std::string AnalysisSession::reportJson() const {
  return core::corpusReportToJson(Report);
}

SessionStats AnalysisSession::stats() const {
  SessionStats Out;
  Out.TotalChanges = Report.Changes.size();
  Out.Ingests = Ingests;
  Out.CachedRecords = Cache.size();
  Out.Lifetime = Lifetime;
  return Out;
}

void AnalysisSession::recordMetrics(const IngestStats &Stats) const {
  if (!Opts.Metrics)
    return;
  obs::Registry &R = Opts.Metrics->Metrics;
  R.counter("service.ingests").add(1);
  R.counter("service.changes").add(Stats.Ingested);
  R.counter("service.cache.hits").add(Stats.CacheHits);
  R.counter("service.cache.misses").add(Stats.CacheMisses);
  R.counter("service.cache.evictions").add(Stats.Evictions);
  R.counter("service.classes.repaired").add(Stats.ClassesRepaired);
  R.counter("service.classes.reused").add(Stats.ClassesReused);
  R.counter("service.pairs.computed").add(Stats.PairsComputed);
  R.counter("service.pairs.reused").add(Stats.PairsReused);
  R.gauge("service.cache.size").set(std::int64_t(Cache.size()));
}

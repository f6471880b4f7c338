//===- support/FaultInjection.h - Deterministic fault injection ------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded fault injection for pipeline resilience testing. The corpus
/// pipeline must survive the worst file in 11k+ mined commits, so the
/// fault-containment layer (core/DiffCode) is exercised by deliberately
/// throwing from deep inside the analysis stack and asserting that every
/// run still yields a complete, deterministic CorpusReport.
///
/// Determinism contract: whether a fault fires at a given point is a pure
/// function of (plan seed, scope key, site, site key) — never of wall
/// clock, thread identity, or call order. The scope key is installed per
/// unit of contained work (one code change, one per-class clustering run)
/// and the site key is stable data supplied by the injection point (token
/// index, remaining fuel, matrix shape). Identical inputs therefore fault
/// identically on every thread count, which is what lets the differential
/// harness compare fault-injected runs byte-for-byte.
///
/// Injection points are compiled into production code but reduce to one
/// thread_local pointer test when no plan is installed.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_SUPPORT_FAULTINJECTION_H
#define DIFFCODE_SUPPORT_FAULTINJECTION_H

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace diffcode {
namespace support {

/// Places in the pipeline that can be told to fail. Sites before
/// ProcKill are in-process (an armed point throws FaultInjected and the
/// containment boundary turns it into a structured ChangeStatus); the
/// Proc* sites are process-level and only exist inside exec/ worker
/// subprocesses, where firing means the *process itself* misbehaves —
/// dies, hangs, starts slowly, or corrupts its result stream — and the
/// supervisor's watchdog/retry machinery is what gets exercised.
///
/// A site's ordinal is part of every fault decision (faultPoint mixes it
/// into the draw), so adding or removing a site moves the campaigns of
/// every site after it. The pipeline's own sites come first; the
/// scanner and process-level sites follow.
enum class FaultSite : unsigned {
  Parser,          ///< javaast::Parser expression recursion.
  Interpreter,     ///< analysis::Engine statement execution.
  Hungarian,       ///< support::solveAssignment entry.
  Clustering,      ///< cluster agglomeration merge step.
  ScanProject,     ///< rule scanner per-unit digest inside one project
                   ///< scan task (scan/Scanner); firing exercises the
                   ///< scanner's per-project containment boundary.
  ProcKill,        ///< exec worker raises SIGKILL mid-unit (crash).
  ProcHang,        ///< exec worker sleeps past the unit deadline.
  ProcSlowStart,   ///< exec worker delays its first read.
  ProcFrameCorrupt,///< exec worker corrupts/truncates a result frame.
  ProcOomExit,     ///< exec worker takes its out-of-memory exit path.
};

/// Number of FaultSite enumerators (for mask building / iteration).
inline constexpr unsigned NumFaultSites = 10;

/// First process-level site (sites >= this only fire inside exec
/// workers; in-process pipeline runs never evaluate them).
inline constexpr unsigned FirstProcFaultSite =
    static_cast<unsigned>(FaultSite::ProcKill);

/// Bit for \p Site in FaultPlan::SiteMask.
constexpr std::uint32_t faultSiteBit(FaultSite Site) {
  return 1u << static_cast<unsigned>(Site);
}

/// Human-readable site name ("parser", "interpreter", ...).
const char *faultSiteName(FaultSite Site);

/// Per-site tally of a campaign's activity: how many armed injection
/// points were evaluated and how many fired. Atomic so every pipeline
/// thread can report into one shared block; plain data (no obs/
/// dependency — the support layer sits below obs), copied into the
/// metrics registry by core after a run.
struct FaultStats {
  std::atomic<std::uint64_t> Evaluated[NumFaultSites] = {};
  std::atomic<std::uint64_t> Fired[NumFaultSites] = {};

  std::uint64_t evaluated(FaultSite Site) const {
    return Evaluated[static_cast<unsigned>(Site)].load(
        std::memory_order_relaxed);
  }
  std::uint64_t fired(FaultSite Site) const {
    return Fired[static_cast<unsigned>(Site)].load(std::memory_order_relaxed);
  }
  std::uint64_t totalFired() const {
    std::uint64_t N = 0;
    for (unsigned I = 0; I < NumFaultSites; ++I)
      N += Fired[I].load(std::memory_order_relaxed);
    return N;
  }
};

/// A fault-injection campaign: which sites may fail, how often, under
/// which seed. Rate 0 (the default) disables every injection point; a
/// default-constructed plan is exactly a production run.
struct FaultPlan {
  std::uint64_t Seed = 0;
  /// Probability in [0, 1] that an armed injection point fires.
  double Rate = 0.0;
  /// Which sites are armed; defaults to all.
  std::uint32_t SiteMask = (1u << NumFaultSites) - 1;
  /// Optional campaign tally; when set, faultPoint counts every armed
  /// evaluation and fire into it. Does not affect fault decisions, so a
  /// counted campaign stays byte-identical to an uncounted one.
  FaultStats *Stats = nullptr;

  bool enabled() const { return Rate > 0.0; }
  bool armed(FaultSite Site) const {
    return enabled() && (SiteMask & faultSiteBit(Site)) != 0;
  }
};

/// The exception an injection point throws. Deliberately derived from
/// std::runtime_error: containment code must treat it like any other
/// analysis failure, not special-case it.
struct FaultInjected : std::runtime_error {
  FaultSite Site;
  explicit FaultInjected(FaultSite Site)
      : std::runtime_error(std::string("injected fault at ") +
                           faultSiteName(Site)),
        Site(Site) {}
};

/// The thread's active campaign: plan + the scope key of the unit of work
/// being processed. Copyable so parallelFor can run the threads it starts
/// under the caller's context (parallel sections inside a scoped unit then
/// fault identically to the serial run).
struct FaultContext {
  const FaultPlan *Plan = nullptr;
  std::uint64_t ScopeKey = 0;

  /// The calling thread's current context (empty when none installed).
  static FaultContext current();
};

/// RAII: installs a fault context on this thread for one unit of
/// contained work. Pass Plan = nullptr (or a disabled plan) for a
/// production run; the guard then only saves/restores the slot.
class FaultScope {
public:
  FaultScope(const FaultPlan *Plan, std::uint64_t ScopeKey);
  explicit FaultScope(const FaultContext &Ctx)
      : FaultScope(Ctx.Plan, Ctx.ScopeKey) {}
  ~FaultScope();

  FaultScope(const FaultScope &) = delete;
  FaultScope &operator=(const FaultScope &) = delete;

private:
  FaultContext Saved;
};

/// True when the current thread context says \p Site should fail for the
/// stable \p Key. Pure in (seed, scope, site, key); false when no plan is
/// installed.
bool faultPoint(FaultSite Site, std::uint64_t Key);

/// True when the current thread context arms \p Site, i.e. when a
/// faultPoint(Site, ...) here would be evaluated. A fast path that skips
/// an injection point takes the full path while this holds, so every
/// campaign evaluates the same points with or without the fast path.
bool faultSiteArmed(FaultSite Site);

/// Convenience: throws FaultInjected when faultPoint fires.
inline void throwIfFault(FaultSite Site, std::uint64_t Key) {
  if (faultPoint(Site, Key))
    throw FaultInjected(Site);
}

/// Stable 64-bit mix (splitmix64 finalizer); exposed for callers that
/// need to fold structured data into a site key.
std::uint64_t faultMix(std::uint64_t X);

} // namespace support
} // namespace diffcode

#endif // DIFFCODE_SUPPORT_FAULTINJECTION_H

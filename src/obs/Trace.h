//===- obs/Trace.h - Span-based tracing with Chrome trace_event output -----===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tracing half of the observability layer: RAII \ref Span objects
/// record (name, start, duration) events into a \ref Tracer, which can
/// render them either as Chrome `trace_event` JSON (load the file in
/// chrome://tracing or Perfetto) or aggregate them into a per-stage
/// timing table.
///
/// Span names must be string literals (or otherwise outlive the tracer):
/// spans store the `const char *`, never copy, so entering a span is two
/// clock reads plus one short mutex-protected vector push on exit.
/// Foreign events ingested from other processes (\ref recordForeign)
/// arrive with wire-decoded names instead; those are interned into a
/// tracer-owned pool so the `const char *` contract still holds.
///
/// Cross-process stitching: every event carries a `Pid` lane (the
/// recording process), emitted as `pid` in the trace_event JSON so
/// Chrome/Perfetto render one lane per process. A forked worker builds
/// its tracers on the coordinator tracer's epoch (both processes share
/// CLOCK_MONOTONIC), so the spans it ships back over the exec wire are
/// already on the coordinator's timeline; the coordinator ingests them
/// as they are, with the worker's OS pid.
///
/// Determinism contract: raw events carry wall-clock timestamps and the
/// registration order of threads, both run-dependent, so the raw trace is
/// PerRun by construction. \ref Tracer::aggregate() sorts by name and
/// sums, so the *set of stage names and per-stage span counts* is
/// deterministic for a fixed pipeline input; the differential harness
/// compares exactly that projection.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_OBS_TRACE_H
#define DIFFCODE_OBS_TRACE_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace diffcode {
namespace obs {

/// Collects completed span events from any thread.
class Tracer {
public:
  /// One completed span.
  struct Event {
    const char *Name = nullptr;
    std::uint64_t StartNs = 0; ///< Nanoseconds since the tracer's epoch.
    std::uint64_t DurNs = 0;
    std::uint32_t Tid = 0; ///< Small per-tracer thread id (per-Pid lane).
    std::uint32_t Pid = 0; ///< OS pid of the recording process.
  };

  /// One row of the aggregated per-stage table.
  struct StageTotal {
    std::string Name;
    std::uint64_t Spans = 0;
    std::uint64_t TotalNs = 0;
  };

  /// A tracer whose epoch is its construction time.
  Tracer();
  /// A tracer on another tracer's timeline: \p Epoch is that tracer's
  /// epoch(), so both stamp events against the same instant.
  explicit Tracer(std::chrono::steady_clock::time_point Epoch);
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  /// Nanoseconds since the trace epoch.
  std::uint64_t now() const;

  /// The trace epoch. Set once at construction, so reading it takes no
  /// lock (a forked worker reads its coordinator's).
  std::chrono::steady_clock::time_point epoch() const { return Epoch; }

  /// Records one completed span; called by Span's destructor.
  void record(const char *Name, std::uint64_t StartNs, std::uint64_t DurNs);

  /// Ingests one completed span from another process. \p StartNs must
  /// already be on *this* tracer's timeline (the other process's tracer
  /// was built on this one's epoch); \p Tid is the foreign process's own
  /// lane id and \p Pid its OS pid. The name is copied into a
  /// tracer-owned pool.
  void recordForeign(std::string_view Name, std::uint64_t StartNs,
                     std::uint64_t DurNs, std::uint32_t Tid,
                     std::uint32_t Pid);

  std::size_t eventCount() const;

  /// Copies every recorded event — what a worker ships for one unit.
  std::vector<Event> events() const;

  /// Name-sorted totals: span count and summed duration per stage name.
  std::vector<StageTotal> aggregate() const;

  /// The collected events as a Chrome `trace_event` JSON document
  /// (complete "X" phase events; ts/dur in microseconds). Events are
  /// ordered by (ts, pid, tid, name) so the document is stable for a
  /// fixed event set.
  std::string traceJson() const;

private:
  std::uint32_t tidForThisThread();

  const std::chrono::steady_clock::time_point Epoch;
  std::uint32_t SelfPid; ///< Stamped on locally recorded events.
  mutable std::mutex Mutex;
  std::vector<Event> Events;
  std::vector<std::thread::id> ThreadIds; ///< Index = small tid.
  /// Owned storage for foreign span names (set nodes never move, so the
  /// c_str stays valid for the tracer's lifetime; duplicates dedupe).
  std::set<std::string, std::less<>> ForeignNames;
};

/// RAII span: times the enclosing scope into \p T. A null tracer makes
/// the span a no-op — callers can unconditionally open spans and pay
/// nothing when observability is off.
class Span {
public:
  Span(Tracer *T, const char *Name)
      : T(T), Name(Name), StartNs(T ? T->now() : 0) {}
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
  ~Span() {
    if (T)
      T->record(Name, StartNs, T->now() - StartNs);
  }

private:
  Tracer *T;
  const char *Name;
  std::uint64_t StartNs;
};

} // namespace obs
} // namespace diffcode

#endif // DIFFCODE_OBS_TRACE_H

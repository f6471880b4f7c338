//===- exec/Protocol.h - Coordinator/worker message codecs -----------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The message layer on top of exec/Wire.h framing: what the coordinator
/// and its worker subprocesses actually say to each other.
///
/// Coordinator -> worker:
///   Work      one unit: (unit id, attempt, global change indices)
///   Shutdown  drain and _exit(0)
///
/// Worker -> coordinator:
///   Hello     startup handshake (protocol version, trace epoch)
///   LabelDef  one newly interned NodeLabel (worker-local id order)
///   PathDef   one newly interned path (worker-local label ids)
///   Result    one ChangeRecord (worker-local path ids)
///   Telemetry completed spans + cumulative metrics snapshot (observed
///             workers only; coalesced with the per-unit writes)
///   UnitDone  unit complete (unit id)
///
/// The interned data model does not ship id values across processes —
/// ids are assignment-order dependent and never comparable across
/// interners — with one fork()-shaped exception: a forked worker
/// inherits the parent interner via copy-on-write, so every id below
/// the table's fork-time high-water mark ("the base") means exactly the
/// same thing in both processes. Hello carries the worker's base
/// (label count, path count); the worker interns on top of its
/// inherited copy and streams *definitions* only for entries above the
/// base (dense, in id order, labels before the paths that reference
/// them, defs before the results that reference them). The coordinator
/// keeps a per-worker IdRemap — identity below the base, worker-local
/// id -> parent-interner id above it — rebuilt on every respawn (a
/// respawned worker forks from the current, larger table, so its base
/// moves up and it streams even less). A base of zero degrades to full
/// def streaming, which is what a future exec()-spawned worker with no
/// shared ancestry would use. Results decoded through the remap are
/// structurally identical to in-process records, which is what keeps
/// supervised reports byte-identical.
///
/// Every decoder is defensive: unknown ids, out-of-order defs, trailing
/// payload bytes, truncation, or an element count the payload cannot
/// back all return false and the supervisor treats the worker as
/// poisoned (kill, restart, retry the unit). No decoder reserves storage
/// from a count read off the wire.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_EXEC_PROTOCOL_H
#define DIFFCODE_EXEC_PROTOCOL_H

#include "core/DiffCode.h"
#include "exec/Wire.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Interner.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace diffcode {
namespace exec {

/// Protocol frame types (Wire frame header's `type` field).
enum class FrameType : std::uint32_t {
  Hello = 1,
  Work = 2,
  Shutdown = 3,
  LabelDef = 4,
  PathDef = 5,
  Result = 6,
  UnitDone = 7,
  Telemetry = 8,
};

/// Bumped whenever any payload layout changes; Hello carries it and the
/// coordinator refuses a mismatched worker (impossible with fork(), but
/// cheap insurance against a future exec()-based spawn path).
/// v2: Hello gained the worker's inherited interner base counts.
/// v3: Hello gained the worker's trace epoch; Telemetry frame added.
/// v4: obs::MetricKind lost Gauge (Histogram is now kind 1) and
///     obs::Unit lost Percent, so Telemetry's kind and unit bytes
///     renumbered.
inline constexpr std::uint32_t ProtocolVersion = 4;

/// Distinguished exit code a worker takes when it cannot allocate
/// (set_new_handler under RLIMIT_AS, or the ProcOomExit chaos site).
/// The supervisor maps it to ChangeStatus::WorkerOom.
inline constexpr int OomExitCode = 86;

/// One dispatched batch of changes, identified by global indices into
/// PipelineRequest::Changes. Attempt counts singleton retries (bisected
/// halves restart at 0 — they are new units with a fresh identity).
struct WorkUnit {
  std::uint64_t Id = 0;
  std::uint32_t Attempt = 0;
  std::vector<std::uint64_t> Indices;
};

/// Hello carries the protocol version plus the worker's interner base:
/// the label/path counts of the table it inherited at fork time. Ids
/// below the base need no defs — they are the parent's own ids.
/// TraceEpochNs is the worker tracer's epoch as absolute CLOCK_MONOTONIC
/// nanoseconds (obs::Tracer::epochSteadyNs), 0 when the worker runs
/// unobserved; the coordinator subtracts its own epoch to get the
/// per-incarnation offset that aligns Telemetry span timestamps into
/// the coordinator's timeline.
std::string encodeHello(std::uint32_t BaseLabels, std::uint32_t BasePaths,
                        std::uint64_t TraceEpochNs);
bool decodeHello(std::string_view Payload, std::uint32_t &BaseLabels,
                 std::uint32_t &BasePaths, std::uint64_t &TraceEpochNs);

std::string encodeWork(const WorkUnit &Unit);
bool decodeWork(std::string_view Payload, WorkUnit &Out);

std::string encodeUnitDone(std::uint64_t UnitId);
bool decodeUnitDone(std::string_view Payload, std::uint64_t &UnitId);

/// One completed worker span as shipped over the wire. StartNs is in
/// the *worker* tracer's timeline; the coordinator applies the Hello
/// epoch offset before ingesting. Tid is the worker's own small lane
/// id (lanes are per-pid in trace_event, so no remapping is needed).
struct TelemetrySpan {
  std::string Name;
  std::uint64_t StartNs = 0;
  std::uint64_t DurNs = 0;
  std::uint32_t Tid = 0;
};

/// Decoded Telemetry frame: the spans completed since the worker's
/// previous telemetry flush (delta) plus the worker registry's full
/// snapshot at send time (cumulative — the coordinator keeps only the
/// latest per incarnation and merges at the end of the run).
struct TelemetryFrame {
  std::uint32_t Incarnation = 0;
  std::vector<TelemetrySpan> Spans;
  obs::Snapshot Metrics;

  /// Stale-incarnation guard: frames are stamped with the incarnation
  /// the worker was spawned as; anything else is dropped, never merged.
  bool staleFor(std::uint32_t CurrentIncarnation) const {
    return Incarnation != CurrentIncarnation;
  }
};

/// Appends one telemetry flush as a Telemetry frame to \p Out, reusing
/// \p Scratch — the worker's coalesced per-unit write path (rides the
/// same writev as the unit's Results and UnitDone, so the clean path
/// costs no extra syscall). \p Spans come straight from the worker
/// tracer (obs::Tracer::eventsFrom); the Pid field is not carried — the
/// coordinator stamps the pid it forked.
void appendTelemetry(std::string &Out, WireWriter &Scratch,
                     std::uint32_t Incarnation,
                     const std::vector<obs::Tracer::Event> &Spans,
                     const obs::Snapshot &Metrics);

/// Decodes one Telemetry payload. Defensive like every other decoder:
/// truncation, trailing bytes, out-of-range kind/unit/stability bytes,
/// non-ascending metric names, or out-of-range/non-ascending histogram
/// bucket indices all return false (the supervisor poisons the worker).
bool decodeTelemetry(std::string_view Payload, TelemetryFrame &Out);

/// Worker side: incremental interner-definition streaming. The worker's
/// interner is append-only and single-threaded, so everything past the
/// last flushed high-water mark is new; one flush() appends a LabelDef
/// frame per new label then a PathDef frame per new path (in that order
/// — paths only reference already-interned labels). Construction
/// records the current counts as the base: everything already in the
/// table (the fork-inherited state) is never streamed. Construct
/// against an empty interner to stream everything.
class DefSender {
public:
  explicit DefSender(const support::Interner &Table)
      : Table(Table), LabelsSent(Table.labelCount()),
        PathsSent(Table.pathCount()), BaseLabels(LabelsSent),
        BasePaths(PathsSent) {}

  /// The construction-time counts — what Hello advertises.
  std::uint32_t baseLabels() const {
    return static_cast<std::uint32_t>(BaseLabels);
  }
  std::uint32_t basePaths() const {
    return static_cast<std::uint32_t>(BasePaths);
  }

  /// Appends encoded def frames for everything interned since the last
  /// flush to \p Out.
  void flush(std::string &Out);

private:
  const support::Interner &Table;
  std::size_t LabelsSent = 0;
  std::size_t PathsSent = 0;
  std::size_t BaseLabels = 0;
  std::size_t BasePaths = 0;
};

/// Coordinator side: one worker incarnation's id translation table.
/// Worker ids below the Hello-advertised base are the parent's own ids
/// (fork-inherited, identity mapping); defs above the base arrive dense
/// and in order, so the rest is a plain vector: Labels[workerLabelId -
/// BaseLabels] is the parent-interner id. Default-constructed (base 0)
/// it is the full-streaming remap the pre-fork-aware protocol used.
struct IdRemap {
  std::uint32_t BaseLabels = 0;
  std::uint32_t BasePaths = 0;
  std::vector<support::LabelId> Labels;
  std::vector<support::PathId> Paths;

  /// Decodes one LabelDef / PathDef payload and extends the table,
  /// interning into \p Table. False on any protocol violation
  /// (non-dense id, unknown label reference, malformed payload).
  bool applyLabelDef(std::string_view Payload, support::Interner &Table);
  bool applyPathDef(std::string_view Payload, support::Interner &Table);

  /// Resolves a worker-local label/path id to a parent id; false when
  /// the id is neither inherited nor defined.
  bool mapLabel(std::uint32_t Local, support::LabelId &Out) const {
    if (Local < BaseLabels) {
      Out = Local;
      return true;
    }
    if (Local - BaseLabels >= Labels.size())
      return false;
    Out = Labels[Local - BaseLabels];
    return true;
  }
  bool mapPath(std::uint32_t Local, support::PathId &Out) const {
    if (Local < BasePaths) {
      Out = Local;
      return true;
    }
    if (Local - BasePaths >= Paths.size())
      return false;
    Out = Paths[Local - BasePaths];
    return true;
  }
};

/// Appends one ChangeRecord as a Result frame to \p Out, reusing
/// \p Scratch for the payload (the worker's per-change encode path).
/// Path ids are worker-local: the worker's DefSender has already
/// streamed the defs they resolve through. WallNanos is deliberately not
/// carried: it is PerRun — never part of the byte-compared report
/// surface. Observed workers ship their wall times through the
/// Telemetry frame instead, keeping Result payloads identical whether or
/// not observability is on.
void appendResult(std::string &Out, WireWriter &Scratch,
                  std::uint64_t ChangeIndex, const core::ChangeRecord &Record);

/// Decodes one Result payload, remapping worker path ids through
/// \p Remap into \p Table and stamping UsageChange::Table. False on any
/// malformed or unresolvable payload.
bool decodeResult(std::string_view Payload, const IdRemap &Remap,
                  support::Interner &Table, std::uint64_t &ChangeIndex,
                  core::ChangeRecord &Out);

} // namespace exec
} // namespace diffcode

#endif // DIFFCODE_EXEC_PROTOCOL_H

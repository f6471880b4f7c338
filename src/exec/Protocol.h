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
///   Result    one ChangeRecord, its usage-change paths by value
///   Telemetry one unit's spans and metrics snapshot (observed workers
///             only; coalesced with the per-unit writes)
///   UnitDone  unit complete (unit id)
///
/// There is no handshake. A worker is a fork() of its coordinator, so
/// the two cannot disagree on a payload layout, and what a worker needs
/// from the run (the request, the fault plan, the tracer's epoch) it
/// already holds in its copy of the coordinator's memory.
///
/// Every frame is self-contained: no interner id crosses the wire. Id
/// values depend on intern order and mean nothing outside their table,
/// so a Result carries each removed and added path as its labels (kind,
/// argument index, string flag, text), and the coordinator interns them
/// into its own table. The records it decodes are structurally identical
/// to in-process ones, and no consumer depends on id values (the
/// support/Interner.h determinism contract), which is what keeps
/// supervised reports byte-identical. A respawned worker therefore needs
/// nothing from its predecessor's stream.
///
/// Every decoder is defensive: out-of-range enum bytes, trailing payload
/// bytes, truncation, or an element count the payload cannot back all
/// return false and the supervisor treats the worker as poisoned (kill,
/// restart, retry the unit). No decoder reserves storage from a count
/// read off the wire.
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
  Work = 2,
  Shutdown = 3,
  Result = 6,
  UnitDone = 7,
  Telemetry = 8,
};

/// Distinguished exit code of a worker out of memory; the ProcOomExit
/// chaos site takes it. The supervisor maps it to
/// ChangeStatus::WorkerOom.
inline constexpr int OomExitCode = 86;

/// One dispatched batch of changes, identified by global indices into
/// PipelineRequest::Changes. Attempt counts singleton retries (bisected
/// halves restart at 0 — they are new units with a fresh identity).
struct WorkUnit {
  std::uint64_t Id = 0;
  std::uint32_t Attempt = 0;
  std::vector<std::uint64_t> Indices;
};

std::string encodeWork(const WorkUnit &Unit);
bool decodeWork(std::string_view Payload, WorkUnit &Out);

std::string encodeUnitDone(std::uint64_t UnitId);
bool decodeUnitDone(std::string_view Payload, std::uint64_t &UnitId);

/// One completed worker span as shipped over the wire. StartNs is on
/// the coordinator tracer's timeline already: the worker's tracer runs
/// on that tracer's epoch. Tid is the worker's own small lane id (lanes
/// are per-pid in trace_event, so no remapping is needed).
struct TelemetrySpan {
  std::string Name;
  std::uint64_t StartNs = 0;
  std::uint64_t DurNs = 0;
  std::uint32_t Tid = 0;
};

/// Decoded Telemetry frame: the spans and the metrics snapshot of one
/// unit, which the worker recorded into a fresh tracer and registry.
/// The coordinator stitches the spans and adopts the snapshot as the
/// frame arrives.
struct TelemetryFrame {
  std::vector<TelemetrySpan> Spans;
  obs::Snapshot Metrics;
};

/// Appends one unit's telemetry as a Telemetry frame to \p Out, reusing
/// \p Scratch — the worker's coalesced per-unit write path (rides the
/// same writev as the unit's Results and UnitDone, so the clean path
/// costs no extra syscall). \p Spans come straight from the unit's
/// tracer (obs::Tracer::events); the Pid field is not carried — the
/// coordinator stamps the pid it forked.
void appendTelemetry(std::string &Out, WireWriter &Scratch,
                     const std::vector<obs::Tracer::Event> &Spans,
                     const obs::Snapshot &Metrics);

/// Decodes one Telemetry payload. Defensive like every other decoder:
/// truncation, trailing bytes, out-of-range kind/unit/stability bytes,
/// non-ascending metric names, or out-of-range/non-ascending histogram
/// bucket indices all return false (the supervisor poisons the worker).
bool decodeTelemetry(std::string_view Payload, TelemetryFrame &Out);

/// Appends one ChangeRecord as a Result frame to \p Out, reusing
/// \p Scratch for the payload (the worker's per-change encode path).
/// Each usage change's removed and added paths go by value, read
/// through the change's own Table: per path its label count, per label
/// the kind, argument index, string flag and text. WallNanos is
/// deliberately not carried: it is PerRun — never part of the
/// byte-compared report surface. Observed workers ship their wall times
/// through the Telemetry frame instead, keeping Result payloads
/// identical whether or not observability is on.
void appendResult(std::string &Out, WireWriter &Scratch,
                  std::uint64_t ChangeIndex, const core::ChangeRecord &Record);

/// Decodes one Result payload, interning every path into \p Table and
/// stamping UsageChange::Table. False on any malformed payload.
bool decodeResult(std::string_view Payload, support::Interner &Table,
                  std::uint64_t &ChangeIndex, core::ChangeRecord &Out);

} // namespace exec
} // namespace diffcode

#endif // DIFFCODE_EXEC_PROTOCOL_H

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
///   Result    one ChangeRecord, its usage-change paths by value
///   Telemetry completed spans + cumulative metrics snapshot (observed
///             workers only; coalesced with the per-unit writes)
///   UnitDone  unit complete (unit id)
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
  Hello = 1,
  Work = 2,
  Shutdown = 3,
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
/// v5: Result carries paths by value; the label and path definition
///     frames, Hello's interner base counts and Telemetry's incarnation
///     stamp are gone.
inline constexpr std::uint32_t ProtocolVersion = 5;

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

/// Hello carries the protocol version and the worker tracer's epoch as
/// absolute CLOCK_MONOTONIC nanoseconds (obs::Tracer::epochSteadyNs), 0
/// when the worker runs unobserved; the coordinator subtracts its own
/// epoch to get the per-incarnation offset that aligns Telemetry span
/// timestamps into the coordinator's timeline.
std::string encodeHello(std::uint64_t TraceEpochNs);
bool decodeHello(std::string_view Payload, std::uint64_t &TraceEpochNs);

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
  std::vector<TelemetrySpan> Spans;
  obs::Snapshot Metrics;
};

/// Appends one telemetry flush as a Telemetry frame to \p Out, reusing
/// \p Scratch — the worker's coalesced per-unit write path (rides the
/// same writev as the unit's Results and UnitDone, so the clean path
/// costs no extra syscall). \p Spans come straight from the worker
/// tracer (obs::Tracer::eventsFrom); the Pid field is not carried — the
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

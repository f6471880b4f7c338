//===- exec/Supervisor.h - Supervised multi-process execution --------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The supervised execution engine (DESIGN.md "Supervised execution"):
/// the per-change analysis stage run across a pool of forked worker
/// subprocesses, so one pathological change — a crash, a runaway loop, a
/// memory blow-up — costs one worker incarnation instead of the corpus
/// run. The coordinator:
///
///   * dispatches batches of change indices (work units) over pipes,
///   * streams results back incrementally (partial results of a failed
///     unit are kept — only the un-received suffix is retried),
///   * enforces a per-unit wall-clock deadline with a SIGKILL watchdog,
///   * classifies worker death (signal / exit code / protocol error /
///     deadline) onto the WorkerCrash / WorkerTimeout / WorkerOom
///     statuses,
///   * isolates poison inputs by half-batch bisection, then retries the
///     surviving singleton with exponential backoff before stamping a
///     terminal record,
///   * respawns a fresh worker (new pipes, decoder) after every death.
///
/// Byte-identity contract: with no faults firing, a supervised report is
/// byte-identical to the in-process engine's, because (a) workers run
/// each unit through a core::VersionStore, whose every record equals
/// processChange's, under the exact same per-change fault scope, (b)
/// the wire codec carries every record field that reaches the report,
/// paths by value, and (c) the downstream pipeline is literally the
/// same code (DiffCode::run). The coordinator re-interns each path, so
/// its id values may differ from the worker's, but no consumer depends
/// on id values — only equality (support/Interner.h determinism
/// contract).
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_EXEC_SUPERVISOR_H
#define DIFFCODE_EXEC_SUPERVISOR_H

#include "core/DiffCode.h"

#include <array>
#include <cstdint>
#include <vector>

namespace diffcode {
namespace exec {

/// What supervision did during one superviseChanges run, for tests and
/// the chaos bench. Also mirrored into the obs registry (exec.* metrics)
/// when the request is observed.
struct SupervisionStats {
  /// Units dispatched to workers, including retries and bisected halves.
  std::uint64_t UnitsDispatched = 0;
  /// Singleton re-dispatches after a failure (backoff applied).
  std::uint64_t Retries = 0;
  /// Unit splits performed to isolate a poison input.
  std::uint64_t Bisections = 0;
  /// Worker respawns after a death (any cause).
  std::uint64_t WorkerRestarts = 0;
  /// Units whose worker was SIGKILLed by the deadline watchdog.
  std::uint64_t DeadlineKills = 0;
  /// Protocol frames and payload bytes received from workers.
  std::uint64_t FramesReceived = 0;
  std::uint64_t BytesReceived = 0;
  /// Changes resolved by the in-process fallback (fork exhaustion).
  std::uint64_t InlineFallbacks = 0;
  /// Telemetry frames merged from observed workers.
  std::uint64_t TelemetryFrames = 0;
  /// Terminal supervisor-stamped statuses, indexed by ChangeStatus.
  std::array<std::uint64_t, core::NumChangeStatuses> TerminalStatus{};

  std::uint64_t terminal(core::ChangeStatus Status) const {
    return TerminalStatus[static_cast<std::size_t>(Status)];
  }
};

/// Runs the per-change analysis stage under supervised worker
/// subprocesses: one record per Request.Changes entry, input order,
/// every failure contained. Honors Request.Exec (workers, batch size,
/// deadline, retry budget) and the system's fault plan
/// (both the in-process sites — they fire inside workers exactly as they
/// would in-process — and the Proc* chaos sites). This is the analysis
/// stage core::DiffCode::run uses when Request.Exec.Mode is Supervised;
/// exposed separately for the differential and chaos tests (run() is the
/// one pipeline entry point).
std::vector<core::ChangeRecord>
superviseChanges(const core::DiffCode &System,
                 const core::PipelineRequest &Request,
                 SupervisionStats *Stats = nullptr);

} // namespace exec
} // namespace diffcode

#endif // DIFFCODE_EXEC_SUPERVISOR_H

//===- exec/Supervisor.cpp -------------------------------------------------===//
//
// The coordinator event loop and the worker subprocess main. See
// Supervisor.h and DESIGN.md "Supervised execution" for the contracts;
// the short version:
//
//   * at most two units in flight per worker — the one it is running
//     plus one queued in its request pipe, so finishing a unit never
//     blocks on a coordinator round-trip — and the only backpressure
//     point is the worker's own blocking result writes, which the
//     coordinator drains continuously;
//   * results stream in unit order, so the un-received remainder of a
//     failed unit is always a deterministic suffix;
//   * every frame is self-contained (a Result carries its paths by
//     value, a Telemetry frame one unit's spans and metrics), so a
//     respawned worker needs no coordinator state beyond a fresh
//     FrameDecoder;
//   * every process-level fault decision inside a worker is a pure
//     function of (plan seed, change index, site, attempt number), so a
//     chaos campaign produces the same terminal statuses at any worker
//     count — the property the chaos suite locks down.
//
//===----------------------------------------------------------------------===//

#include "exec/Supervisor.h"

#include "exec/Protocol.h"
#include "exec/Wire.h"
#include "obs/Observer.h"
#include "support/FaultInjection.h"
#include "support/Parallel.h"
#include "support/Process.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <ctime>
#include <deque>
#include <memory>
#include <string>

#include <poll.h>
#include <unistd.h>

using namespace diffcode;
using namespace diffcode::exec;

namespace {

using Clock = std::chrono::steady_clock;

void sleepMs(std::uint64_t Ms) {
  struct timespec Ts;
  Ts.tv_sec = static_cast<time_t>(Ms / 1000);
  Ts.tv_nsec = static_cast<long>(Ms % 1000) * 1000000L;
  while (nanosleep(&Ts, &Ts) == -1 && errno == EINTR) {
  }
}

//===----------------------------------------------------------------------===//
// Worker subprocess
//===----------------------------------------------------------------------===//

/// The forked child's whole life: Work frames in, result streams out,
/// until Shutdown or request-pipe EOF. Never returns to the fork point —
/// spawnProcess _exits with the return value. Exit codes: 0 clean, 2
/// protocol error on the request stream, OomExitCode at the ProcOomExit
/// site.
int workerMain(const core::DiffCode &System,
               const core::PipelineRequest &Request, unsigned SlotIndex,
               unsigned Incarnation, int ReqFd, int RespFd) {
  ::signal(SIGPIPE, SIG_IGN);
  const support::FaultPlan &Plan = System.config().Faults;

  {
    // Slow-start chaos: delay the first read. Latency only — no result
    // depends on when a worker comes up, so byte-identity holds
    // wherever this fires.
    support::FaultScope Scope(&Plan, support::faultMix(0x536c6f77) + SlotIndex);
    if (support::faultPoint(support::FaultSite::ProcSlowStart, Incarnation))
      sleepMs(50);
  }

  // The worker interns into the table it inherited through fork(), so
  // its lookups hit every entry the parent already held. Its ids never
  // leave the process: Result frames carry paths by value.
  support::Interner &LocalTable = *System.labels();

  // An observed run is one whose fork-inherited request carries an
  // observer; no flag crosses the wire. The worker then records each
  // unit into a fresh registry and tracer and ships both in the unit's
  // Telemetry frame. Its tracers run on the coordinator tracer's epoch,
  // so the spans it ships are on the coordinator's timeline as they are.
  const obs::Observer *RunObs = Request.Metrics;

  FrameDecoder Decoder;
  char Buf[1 << 16];
  WorkUnit Unit;
  // Result frames are coalesced into one write per unit (flushing early
  // only past FlushBytes, staying under the pipe's buffer): per-change
  // writes would wake the coordinator once per change, and on a busy or
  // small machine that context-switch ping-pong dominates the protocol
  // cost. The byte stream is identical either way — the FrameDecoder is
  // chunk-boundary-agnostic — the coordinator just sees it in fewer,
  // larger reads.
  constexpr std::size_t FlushBytes = 1 << 15;
  std::string Out;
  WireWriter Scratch;
  for (;;) {
    std::optional<Frame> F;
    while (!(F = Decoder.next())) {
      if (Decoder.bad())
        return 2;
      ssize_t N = support::readSome(ReqFd, Buf, sizeof(Buf));
      if (N <= 0)
        return 0; // coordinator went away: nothing left to do
      Decoder.feed(Buf, static_cast<std::size_t>(N));
    }
    if (F->Type == static_cast<std::uint32_t>(FrameType::Shutdown))
      return 0;
    if (F->Type != static_cast<std::uint32_t>(FrameType::Work) ||
        !decodeWork(F->Payload, Unit))
      return 2;

    Out.clear();
    // The unit's own version store: units hold whole file histories, so
    // it serves what the in-process stage's stores serve, and nothing
    // outlives the unit.
    core::VersionStore Store(System, Request);
    std::unique_ptr<obs::Registry> UnitMetrics;
    std::unique_ptr<obs::Tracer> UnitTrace;
    if (RunObs) {
      UnitMetrics = std::make_unique<obs::Registry>();
      UnitTrace = std::make_unique<obs::Tracer>(RunObs->Trace.epoch());
    }
    for (std::uint64_t Index : Unit.Indices) {
      if (Index >= Request.Changes.size())
        return 2;
      // Same scope identity as the in-process stage (key = global change
      // index): one fault plan hits the same changes either way. The
      // process-level sites key on the attempt number, so a retried
      // change re-decides deterministically — and can deterministically
      // stop failing, which is what the retry budget exists for.
      support::FaultScope Scope(&Plan, Index);
      if (support::faultPoint(support::FaultSite::ProcKill, Unit.Attempt))
        ::raise(SIGKILL);
      if (support::faultPoint(support::FaultSite::ProcOomExit, Unit.Attempt))
        _exit(OomExitCode);
      if (support::faultPoint(support::FaultSite::ProcHang, Unit.Attempt))
        for (;;)
          sleepMs(1000); // the watchdog's problem now

      core::ChangeRecord Record;
      {
        // Same span name as the in-process stage, so the stitched trace
        // aggregates worker and coordinator work under one stage row.
        obs::Span ChangeSpan(UnitTrace.get(), "processChange");
        Record = Store.process(*Request.Changes[Index], LocalTable,
                               UnitMetrics.get());
      }

      std::size_t FrameStart = Out.size();
      appendResult(Out, Scratch, Index, Record);
      if (support::faultPoint(support::FaultSite::ProcFrameCorrupt,
                              Unit.Attempt)) {
        // Two deterministic flavors: truncate mid-frame (stream ends
        // with pending bytes) or flip a payload byte (checksum
        // mismatch). Either way the result for this change never
        // decodes, then die so the poisoned stream ends here.
        if (support::faultMix(Index) & 1)
          Out.resize(FrameStart + (Out.size() - FrameStart) / 2);
        else
          Out[FrameStart + WireHeaderBytes] = static_cast<char>(
              Out[FrameStart + WireHeaderBytes] ^ 0x40);
        support::writeFull(RespFd, Out.data(), Out.size());
        return 2;
      }
      if (Out.size() >= FlushBytes) {
        if (support::writeFull(RespFd, Out.data(), Out.size()) < 0)
          return 0;
        Out.clear();
      }
    }
    if (UnitMetrics) {
      // Telemetry coalesces with the unit's last write. Unobserved
      // workers skip this entirely, so the clean path's byte stream is
      // unchanged.
      Store.recordCounts(*UnitMetrics);
      appendTelemetry(Out, Scratch, UnitTrace->events(),
                      UnitMetrics->snapshot());
    }
    Out += encodeUnitDone(Unit.Id);
    if (support::writeFull(RespFd, Out.data(), Out.size()) < 0)
      return 0;
  }
}

//===----------------------------------------------------------------------===//
// Coordinator
//===----------------------------------------------------------------------===//

/// A queued (not yet dispatched) work unit. ReadyAt gates dispatch for
/// backoff; Attempt counts singleton retries (bisected halves are new
/// units at attempt 0).
struct PendingUnit {
  std::uint64_t Id = 0;
  std::uint32_t Attempt = 0;
  std::vector<std::uint64_t> Indices;
  Clock::time_point ReadyAt;
};

/// Units a worker may hold at once: the one it is running plus one
/// queued in its request pipe. The spare means a worker that finishes a
/// unit starts the next immediately instead of blocking on a
/// write-UnitDone / read-Work round-trip through the coordinator — on a
/// loaded or single-core host that round-trip is two context switches
/// per unit and dominates clean-path supervision cost. Depth stops at
/// two because the spare already hides the full round-trip; deeper
/// queues only grow the re-dispatch batch a dead worker strands.
constexpr std::size_t MaxInFlight = 2;

/// Longest backoff before a singleton retry: the delay doubles from
/// ExecutionPolicy::BackoffBaseMs per attempt up to this.
constexpr std::uint64_t BackoffCapMs = 1000;

/// One worker slot: a pid, its two pipe ends, and the per-incarnation
/// decode state. Everything protocol-scoped (decoder, unit progress) is
/// reset on respawn — a fresh worker shares nothing with its
/// predecessor's byte stream.
struct WorkerSlot {
  unsigned Index = 0;
  unsigned Incarnation = 0;
  pid_t Pid = -1;
  int ReqFd = -1;  ///< Coordinator writes Work/Shutdown here (blocking).
  int RespFd = -1; ///< Coordinator reads results here (non-blocking).
  FrameDecoder Decoder;
  bool TimedOut = false;
  std::string PoisonReason; ///< Non-empty: result stream was corrupt.
  /// Dispatched, un-finished units in the order the worker runs them.
  /// The front is the unit the worker is (or was) actually executing;
  /// anything behind it is still sitting unread in the request pipe.
  std::deque<PendingUnit> InFlight;
  std::size_t Received = 0; ///< Results committed for the front unit.
  Clock::time_point DispatchedAt; ///< When the front unit started.
  Clock::time_point Deadline;
  bool HasDeadline = false;

  bool alive() const { return Pid != -1; }
  bool busy() const { return !InFlight.empty(); }
};

struct Coordinator {
  const core::DiffCode &System;
  const core::PipelineRequest &Request;
  const core::ExecutionPolicy &Policy;
  support::Interner &Table;
  SupervisionStats &Stats;

  std::vector<core::ChangeRecord> Records;
  std::size_t Outstanding = 0; ///< Changes without a committed record yet.
  std::deque<PendingUnit> Queue;
  std::uint64_t NextUnitId = 0;
  std::deque<WorkerSlot> Slots; // deque: FrameDecoder needn't be movable
  obs::Histogram *UnitLatency = nullptr;
  /// The run's observer (Request.Metrics); null when unobserved. Each
  /// unit's telemetry merges here as it arrives.
  obs::Observer *Obs = nullptr;

  Coordinator(const core::DiffCode &System,
              const core::PipelineRequest &Request, support::Interner &Table,
              SupervisionStats &Stats)
      : System(System), Request(Request), Policy(Request.Exec), Table(Table),
        Stats(Stats) {}

  void run();

  void buildQueue();
  bool spawnSlot(WorkerSlot &S);
  void closeSlotFds(WorkerSlot &S);
  void dispatchReady(Clock::time_point Now);
  int pollTimeoutMs(Clock::time_point Now) const;
  bool processFrames(WorkerSlot &S);
  enum class Drain { Open, Eof, Poisoned };
  Drain drainSlot(WorkerSlot &S);
  void reapAndHandle(WorkerSlot &S, Clock::time_point Now);
  void handleDeath(WorkerSlot &S, support::ExitStatus ES,
                   Clock::time_point Now);
  void enforceDeadlines(Clock::time_point Now);
  void runUnitInline(const PendingUnit &Unit);
  void shutdownWorkers();

  bool anyAlive() const {
    for (const WorkerSlot &S : Slots)
      if (S.alive())
        return true;
    return false;
  }
};

void Coordinator::buildQueue() {
  // Whole file histories, packed in order up to Batch changes per unit,
  // so a worker's store serves every version the in-process stage's
  // stores do; only a history longer than Batch is split.
  const std::size_t Batch = std::max<std::size_t>(Policy.BatchSize, 1);
  Clock::time_point Now = Clock::now();
  PendingUnit U;
  auto Flush = [&] {
    if (U.Indices.empty())
      return;
    U.Id = NextUnitId++;
    U.ReadyAt = Now;
    Queue.push_back(std::move(U));
    U = PendingUnit();
  };
  for (const std::vector<std::uint64_t> &History :
       core::fileHistories(Request.Changes)) {
    if (U.Indices.size() + History.size() > Batch)
      Flush();
    for (std::uint64_t I : History) {
      U.Indices.push_back(I);
      if (U.Indices.size() == Batch)
        Flush();
    }
  }
  Flush();
}

bool Coordinator::spawnSlot(WorkerSlot &S) {
  support::Pipe Req;  // coordinator -> worker
  support::Pipe Resp; // worker -> coordinator
  // The child must hold exactly its own two pipe ends: a sibling keeping
  // a copy of another worker's response write end would defer that
  // worker's EOF until the sibling exits, blinding crash detection.
  std::vector<int> CloseInChild;
  for (const WorkerSlot &Other : Slots) {
    if (Other.ReqFd != -1)
      CloseInChild.push_back(Other.ReqFd);
    if (Other.RespFd != -1)
      CloseInChild.push_back(Other.RespFd);
  }
  int ChildReq = Req.readFd();
  int ChildResp = Resp.writeFd();
  int ParentReq = Req.writeFd();
  int ParentResp = Resp.readFd();
  unsigned SlotIndex = S.Index;
  unsigned Incarnation = S.Incarnation;
  const core::DiffCode &Sys = System;
  const core::PipelineRequest &Req2 = Request;
  pid_t Pid = support::spawnProcess([&CloseInChild, ParentReq, ParentResp,
                                     ChildReq, ChildResp, SlotIndex,
                                     Incarnation, &Sys, &Req2]() {
    for (int Fd : CloseInChild)
      ::close(Fd);
    ::close(ParentReq);
    ::close(ParentResp);
    return workerMain(Sys, Req2, SlotIndex, Incarnation, ChildReq, ChildResp);
  });
  if (Pid < 0)
    return false; // fork exhaustion: caller falls back in-process
  Req.closeRead();
  Resp.closeWrite();
  S.Pid = Pid;
  S.ReqFd = Req.releaseWrite();
  S.RespFd = Resp.releaseRead();
  support::setNonBlocking(S.RespFd);
  S.Decoder = FrameDecoder();
  S.InFlight.clear();
  S.TimedOut = false;
  S.PoisonReason.clear();
  S.Received = 0;
  return true;
}

void Coordinator::closeSlotFds(WorkerSlot &S) {
  if (S.ReqFd != -1)
    ::close(S.ReqFd);
  if (S.RespFd != -1)
    ::close(S.RespFd);
  S.ReqFd = -1;
  S.RespFd = -1;
  S.Pid = -1;
}

void Coordinator::dispatchReady(Clock::time_point Now) {
  for (WorkerSlot &S : Slots) {
    while (S.alive() && S.InFlight.size() < MaxInFlight) {
      auto It = std::find_if(Queue.begin(), Queue.end(),
                             [&](const PendingUnit &U) {
                               return U.ReadyAt <= Now;
                             });
      if (It == Queue.end())
        return; // nothing ready; backoff gates handled by the poll timeout
      WorkUnit W;
      W.Id = It->Id;
      W.Attempt = It->Attempt;
      W.Indices = It->Indices;
      std::string Frame = encodeWork(W);
      if (support::writeFull(S.ReqFd, Frame.data(), Frame.size()) < 0) {
        // The unit stays queued and untouched (no attempt is charged).
        // A worker that died before taking any work is just replaced;
        // one that died mid-unit is left for the EOF path, which also
        // routes its stranded units through the retry machinery.
        if (!S.busy()) {
          support::ExitStatus ES = support::waitProcess(S.Pid);
          (void)ES;
          closeSlotFds(S);
          ++S.Incarnation;
          ++Stats.WorkerRestarts;
          spawnSlot(S);
        }
        break;
      }
      bool Front = S.InFlight.empty();
      S.InFlight.push_back(std::move(*It));
      Queue.erase(It);
      if (Front) {
        // The spare unit's clock starts when it reaches the front — the
        // worker has not looked at it yet, it is bytes in a pipe.
        S.Received = 0;
        S.TimedOut = false;
        S.PoisonReason.clear();
        S.DispatchedAt = Now;
        S.HasDeadline = Policy.UnitDeadlineMs > 0;
        if (S.HasDeadline)
          S.Deadline = Now + std::chrono::milliseconds(Policy.UnitDeadlineMs);
      }
      ++Stats.UnitsDispatched;
    }
  }
}

int Coordinator::pollTimeoutMs(Clock::time_point Now) const {
  // Backstop covers death-without-EOF windows and keeps the watchdog
  // responsive even if poll never fires.
  std::int64_t Timeout = 200;
  bool HaveIdle = false;
  for (const WorkerSlot &S : Slots) {
    if (!S.alive())
      continue;
    if (S.InFlight.size() < MaxInFlight)
      HaveIdle = true;
    if (!S.busy())
      continue;
    if (S.HasDeadline && !S.TimedOut) {
      auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                    S.Deadline - Now)
                    .count();
      Timeout = std::min<std::int64_t>(Timeout, Ms);
    }
  }
  if (HaveIdle)
    for (const PendingUnit &U : Queue) {
      auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                    U.ReadyAt - Now)
                    .count();
      Timeout = std::min<std::int64_t>(Timeout, Ms);
    }
  return static_cast<int>(std::clamp<std::int64_t>(Timeout, 0, 200));
}

/// Decodes and applies every complete frame buffered in \p S. False when
/// the stream is poisoned (decoder error or a protocol violation);
/// S.PoisonReason then says why.
bool Coordinator::processFrames(WorkerSlot &S) {
  // nextView: the payload aliases the decoder buffer (no per-frame copy);
  // every decode below extracts what it keeps before the next iteration.
  while (std::optional<FrameView> F = S.Decoder.nextView()) {
    ++Stats.FramesReceived;
    switch (static_cast<FrameType>(F->Type)) {
    case FrameType::Result: {
      std::uint64_t Index = 0;
      core::ChangeRecord Record;
      if (!S.busy() ||
          !decodeResult(F->Payload, Table, Index, Record) ||
          S.Received >= S.InFlight.front().Indices.size() ||
          Index != S.InFlight.front().Indices[S.Received]) {
        S.PoisonReason = "bad result frame";
        return false;
      }
      Records[Index] = std::move(Record);
      ++S.Received;
      --Outstanding;
      break;
    }
    case FrameType::UnitDone: {
      std::uint64_t UnitId = 0;
      if (!S.busy() || !decodeUnitDone(F->Payload, UnitId) ||
          UnitId != S.InFlight.front().Id ||
          S.Received != S.InFlight.front().Indices.size()) {
        S.PoisonReason = "bad unit-done frame";
        return false;
      }
      Clock::time_point Now = Clock::now();
      if (UnitLatency)
        UnitLatency->record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Now - S.DispatchedAt)
                .count()));
      S.InFlight.pop_front();
      S.Received = 0;
      if (S.busy()) {
        // The pipelined spare is the running unit now; its deadline
        // clock starts here, not at dispatch time.
        S.DispatchedAt = Now;
        if (S.HasDeadline)
          S.Deadline = Now + std::chrono::milliseconds(Policy.UnitDeadlineMs);
      }
      break;
    }
    case FrameType::Telemetry: {
      TelemetryFrame T;
      if (!decodeTelemetry(F->Payload, T)) {
        S.PoisonReason = "bad telemetry frame";
        return false;
      }
      ++Stats.TelemetryFrames;
      if (!Obs)
        break; // unobserved run: nothing to merge into
      for (const TelemetrySpan &Sp : T.Spans)
        Obs->Trace.recordForeign(Sp.Name, Sp.StartNs, Sp.DurNs, Sp.Tid,
                                 static_cast<std::uint32_t>(S.Pid));
      // All PerRun under exec.worker.*: retries and partial-unit loss
      // make cross-process sums scheduling-dependent under faults.
      Obs->adoptWorkerSnapshot(T.Metrics);
      break;
    }
    default:
      S.PoisonReason = "unknown frame type";
      return false;
    }
  }
  if (S.Decoder.bad()) {
    S.PoisonReason = "result stream corrupt: " + S.Decoder.error();
    return false;
  }
  return true;
}

Coordinator::Drain Coordinator::drainSlot(WorkerSlot &S) {
  char Buf[1 << 16];
  for (;;) {
    ssize_t N = support::readSome(S.RespFd, Buf, sizeof(Buf));
    if (N > 0) {
      Stats.BytesReceived += static_cast<std::uint64_t>(N);
      S.Decoder.feed(Buf, static_cast<std::size_t>(N));
      if (!processFrames(S))
        return Drain::Poisoned;
      continue;
    }
    if (N == 0)
      return Drain::Eof;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return Drain::Open;
    return Drain::Eof; // unexpected read error: treat the worker as gone
  }
}

/// The worker behind \p S ended (EOF seen or waitpid confirmed): reap,
/// classify, respawn, and route the interrupted unit through the
/// bisection / retry / terminal state machine.
void Coordinator::handleDeath(WorkerSlot &S, support::ExitStatus ES,
                              Clock::time_point Now) {
  closeSlotFds(S);
  bool WasBusy = S.busy();
  std::deque<PendingUnit> InFlight = std::move(S.InFlight);
  S.InFlight.clear();
  std::size_t Received = S.Received;
  std::size_t Pending = S.Decoder.pendingBytes();

  // Classify. Deadline kills win (the corrupt-stream path never applies:
  // a poisoned worker is killed in the same iteration its stream went
  // bad), then the distinguished OOM exit, then everything else is a
  // crash — including protocol errors, which are indistinguishable from
  // a worker whose memory was scribbled over.
  core::ChangeStatus Status = core::ChangeStatus::WorkerCrash;
  std::string Detail;
  if (S.TimedOut) {
    Status = core::ChangeStatus::WorkerTimeout;
    Detail = "unit deadline of " + std::to_string(Policy.UnitDeadlineMs) +
             " ms exceeded";
  } else if (!S.PoisonReason.empty()) {
    Detail = S.PoisonReason;
  } else if (ES.K == support::ExitStatus::Kind::Exited &&
             ES.Code == OomExitCode) {
    Status = core::ChangeStatus::WorkerOom;
    Detail = "worker exceeded its memory limit";
  } else if (ES.K == support::ExitStatus::Kind::Signaled) {
    Detail = "worker killed by signal " + std::to_string(ES.Code);
  } else if (Pending > 0) {
    // A clean-ish exit with bytes stranded mid-frame: the result stream
    // was cut, which is its own diagnostic (the truncation chaos flavor).
    Detail = "truncated result stream (exit code " + std::to_string(ES.Code) +
             ")";
  } else {
    Detail = "worker exited with code " + std::to_string(ES.Code);
  }

  ++S.Incarnation;
  ++Stats.WorkerRestarts;
  spawnSlot(S); // failure leaves the slot dead; the inline fallback covers

  if (!WasBusy)
    return;
  // Only the front unit was actually being executed. Any pipelined
  // spare behind it died unread in the request pipe: requeue it
  // verbatim — no attempt charged, it is not a suspect.
  PendingUnit Unit = std::move(InFlight.front());
  for (std::size_t I = InFlight.size(); I > 1; --I) {
    InFlight[I - 1].ReadyAt = Now;
    Queue.push_front(std::move(InFlight[I - 1]));
  }
  // Results received before the death are committed; only the suffix is
  // at stake. (In-order streaming makes the suffix deterministic.)
  std::vector<std::uint64_t> Remaining(Unit.Indices.begin() +
                                           static_cast<std::ptrdiff_t>(Received),
                                       Unit.Indices.end());
  if (Remaining.empty())
    return; // died between the last result and UnitDone: nothing lost

  if (Remaining.size() > 1) {
    // Bisect: halves are fresh units (attempt 0) — the goal is isolating
    // the poison input, not charging innocent neighbors for it.
    std::size_t Mid = Remaining.size() / 2;
    PendingUnit Lo, Hi;
    Lo.Id = NextUnitId++;
    Lo.Indices.assign(Remaining.begin(),
                      Remaining.begin() + static_cast<std::ptrdiff_t>(Mid));
    Lo.ReadyAt = Now;
    Hi.Id = NextUnitId++;
    Hi.Indices.assign(Remaining.begin() + static_cast<std::ptrdiff_t>(Mid),
                      Remaining.end());
    Hi.ReadyAt = Now;
    Queue.push_front(std::move(Hi));
    Queue.push_front(std::move(Lo));
    ++Stats.Bisections;
    return;
  }

  std::uint64_t Index = Remaining.front();
  std::uint32_t Attempt = Unit.Attempt + 1;
  if (Attempt > Policy.MaxRetries) {
    core::ChangeRecord &Record = Records[Index];
    Record.Origin = Request.Changes[Index]->origin();
    Record.GroundTruthKind = Request.Changes[Index]->Kind;
    Record.Status = Status;
    Record.StatusDetail =
        Detail + " (" + std::to_string(Attempt) + " attempts)";
    --Outstanding;
    ++Stats.TerminalStatus[static_cast<std::size_t>(Status)];
    return;
  }
  PendingUnit Retry;
  Retry.Id = NextUnitId++;
  Retry.Attempt = Attempt;
  Retry.Indices = std::move(Remaining);
  std::uint64_t Backoff = Attempt - 1 < 20
                              ? Policy.BackoffBaseMs << (Attempt - 1)
                              : BackoffCapMs;
  Backoff = std::min(Backoff, BackoffCapMs);
  Retry.ReadyAt = Now + std::chrono::milliseconds(Backoff);
  Queue.push_back(std::move(Retry));
  ++Stats.Retries;
}

void Coordinator::reapAndHandle(WorkerSlot &S, Clock::time_point Now) {
  support::ExitStatus ES = support::waitProcess(S.Pid);
  handleDeath(S, ES, Now);
}

void Coordinator::enforceDeadlines(Clock::time_point Now) {
  for (WorkerSlot &S : Slots) {
    if (!S.alive() || !S.busy() || !S.HasDeadline || S.TimedOut ||
        Now < S.Deadline)
      continue;
    S.TimedOut = true;
    ++Stats.DeadlineKills;
    support::killProcess(S.Pid, SIGKILL);
    // Death is observed through the usual EOF path next iteration.
  }
}

/// Fork exhaustion fallback: run a unit in the coordinator, through a
/// unit store as a worker would, under the exact fault-scope discipline
/// analyzeChanges uses. (The Proc* sites only exist inside worker code
/// paths, so none fire here — the store's in-process containment still
/// does.)
void Coordinator::runUnitInline(const PendingUnit &Unit) {
  core::VersionStore Store(System, Request);
  obs::Registry *Reg = Obs ? &Obs->Metrics : nullptr;
  for (std::uint64_t Index : Unit.Indices) {
    support::FaultScope Scope(&System.config().Faults, Index);
    obs::Span ChangeSpan(Obs ? &Obs->Trace : nullptr, "processChange");
    Records[Index] = Store.process(*Request.Changes[Index], Table, Reg);
    --Outstanding;
    ++Stats.InlineFallbacks;
  }
  if (Reg)
    Store.recordCounts(*Reg);
}

void Coordinator::shutdownWorkers() {
  std::string Bye = encodeFrame(static_cast<std::uint32_t>(FrameType::Shutdown),
                                std::string_view());
  for (WorkerSlot &S : Slots) {
    if (!S.alive())
      continue;
    support::writeFull(S.ReqFd, Bye.data(), Bye.size());
    ::close(S.ReqFd); // request EOF ends the worker even if the frame died
    S.ReqFd = -1;
  }
  for (WorkerSlot &S : Slots) {
    if (!S.alive())
      continue;
    // Drain the response pipe to EOF before reaping: the main loop exits
    // the moment the last Result commits, which can leave the final
    // unit's coalesced tail (Telemetry + UnitDone) unread — or, for a
    // telemetry payload larger than the pipe buffer, leave the worker
    // blocked mid-write, where reaping without reading would deadlock.
    char Buf[1 << 16];
    for (;;) {
      ssize_t N = support::readSome(S.RespFd, Buf, sizeof(Buf));
      if (N > 0) {
        Stats.BytesReceived += static_cast<std::uint64_t>(N);
        S.Decoder.feed(Buf, static_cast<std::size_t>(N));
        if (!processFrames(S))
          break; // poisoned this late costs nothing: every unit is done
        continue;
      }
      if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        struct pollfd P;
        P.fd = S.RespFd;
        P.events = POLLIN;
        P.revents = 0;
        if (::poll(&P, 1, 1000) <= 0) {
          // Wedged worker: don't hang the coordinator on its tail.
          support::killProcess(S.Pid, SIGKILL);
          break;
        }
        continue;
      }
      break; // EOF or hard read error
    }
    support::waitProcess(S.Pid);
    closeSlotFds(S);
  }
}

void Coordinator::run() {
  std::size_t N = Request.Changes.size();
  Records.assign(N, core::ChangeRecord());
  Outstanding = N;
  if (N == 0)
    return;
  buildQueue();

  unsigned Workers =
      std::min<unsigned>(support::resolveThreads(Policy.Workers),
                         static_cast<unsigned>(std::min<std::size_t>(
                             Queue.size(), 1u << 10)));
  Workers = std::max(Workers, 1u);
  for (unsigned I = 0; I < Workers; ++I) {
    Slots.emplace_back();
    Slots.back().Index = I;
    spawnSlot(Slots.back());
  }

  while (Outstanding > 0) {
    if (!anyAlive()) {
      // Fork exhaustion: finish everything queued right here. Records
      // stay byte-identical — it is the same unit store under the same
      // fault scopes.
      while (!Queue.empty()) {
        runUnitInline(Queue.front());
        Queue.pop_front();
      }
      break;
    }
    Clock::time_point Now = Clock::now();
    dispatchReady(Now);
    int Timeout = pollTimeoutMs(Now);

    std::vector<struct pollfd> Fds;
    std::vector<WorkerSlot *> FdSlots;
    for (WorkerSlot &S : Slots) {
      if (!S.alive() || !S.busy())
        continue;
      struct pollfd P;
      P.fd = S.RespFd;
      P.events = POLLIN;
      P.revents = 0;
      Fds.push_back(P);
      FdSlots.push_back(&S);
    }
    int Ready = ::poll(Fds.empty() ? nullptr : Fds.data(),
                       static_cast<nfds_t>(Fds.size()), Timeout);
    if (Ready < 0 && errno != EINTR)
      break; // poll itself failing is unrecoverable; fall through below

    Now = Clock::now();
    for (std::size_t I = 0; I < Fds.size(); ++I) {
      WorkerSlot &S = *FdSlots[I];
      if (!S.alive() || (Fds[I].revents & (POLLIN | POLLHUP | POLLERR)) == 0)
        continue;
      Drain R = drainSlot(S);
      if (R == Drain::Poisoned) {
        support::killProcess(S.Pid, SIGKILL);
        reapAndHandle(S, Now);
      } else if (R == Drain::Eof) {
        reapAndHandle(S, Now);
      }
    }

    enforceDeadlines(Now);

    // Backstop: a death whose EOF is delayed (a just-forked sibling
    // briefly holding the pipe end) is still observed via waitpid.
    for (WorkerSlot &S : Slots) {
      if (!S.alive() || !S.busy())
        continue;
      support::ExitStatus ES;
      if (!support::tryWaitProcess(S.Pid, ES))
        continue;
      Drain R = drainSlot(S); // commit whatever is still buffered
      (void)R;
      handleDeath(S, ES, Now);
    }
  }

  // Anything still unresolved after a poll failure gets a terminal crash
  // record rather than a silent empty one.
  if (Outstanding > 0) {
    for (std::size_t I = 0; I < N && Outstanding > 0; ++I) {
      bool Resolved = Records[I].Status != core::ChangeStatus::Ok ||
                      !Records[I].Origin.empty();
      if (Resolved)
        continue;
      Records[I].Origin = Request.Changes[I]->origin();
      Records[I].GroundTruthKind = Request.Changes[I]->Kind;
      Records[I].Status = core::ChangeStatus::WorkerCrash;
      Records[I].StatusDetail = "supervision aborted";
      ++Stats.TerminalStatus[static_cast<std::size_t>(
          core::ChangeStatus::WorkerCrash)];
      --Outstanding;
    }
  }

  shutdownWorkers();
}

} // namespace

//===----------------------------------------------------------------------===//
// Public entry points
//===----------------------------------------------------------------------===//

std::vector<core::ChangeRecord>
diffcode::exec::superviseChanges(const core::DiffCode &System,
                                 const core::PipelineRequest &Request,
                                 SupervisionStats *Stats) {
  // Pipe writes must report dead peers as EPIPE, not a process-killing
  // SIGPIPE; scoped so library users' signal dispositions are untouched.
  support::ScopedSigpipeIgnore NoSigpipe;
  SupervisionStats Local;
  SupervisionStats &St = Stats ? *Stats : Local;
  Coordinator C(System, Request, *System.labels(), St);
  C.Obs = Request.Metrics;
  if (Request.Metrics)
    C.UnitLatency =
        &Request.Metrics->Metrics.histogram("exec.unit_latency_ns",
                                            obs::Unit::Nanoseconds,
                                            obs::Stability::PerRun);
  C.run();

  if (Request.Metrics) {
    obs::Registry &Reg = Request.Metrics->Metrics;
    // Dispatch/retry/restart counts depend on wall-clock races (a real
    // timeout, a delayed EOF), so everything here is PerRun.
    Reg.counter("exec.units", obs::Unit::None, obs::Stability::PerRun)
        .add(St.UnitsDispatched);
    Reg.counter("exec.retries", obs::Unit::None, obs::Stability::PerRun)
        .add(St.Retries);
    Reg.counter("exec.bisections", obs::Unit::None, obs::Stability::PerRun)
        .add(St.Bisections);
    Reg.counter("exec.worker_restarts", obs::Unit::None,
                obs::Stability::PerRun)
        .add(St.WorkerRestarts);
    Reg.counter("exec.deadline_kills", obs::Unit::None,
                obs::Stability::PerRun)
        .add(St.DeadlineKills);
    Reg.counter("exec.frames_rx", obs::Unit::None, obs::Stability::PerRun)
        .add(St.FramesReceived);
    Reg.counter("exec.bytes_rx", obs::Unit::Bytes, obs::Stability::PerRun)
        .add(St.BytesReceived);
    Reg.counter("exec.telemetry_frames", obs::Unit::None,
                obs::Stability::PerRun)
        .add(St.TelemetryFrames);
  }
  return std::move(C.Records);
}

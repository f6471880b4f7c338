//===- support/Parallel.h - One-shot parallel index loop -------------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The system's one in-process parallel loop. Every parallel section —
/// the pipeline's per-file-history analysis (which a session ingest also
/// runs) and the scanner's per-project tasks — is a single loop over
/// independent indices, so there is no pool to keep: parallelFor starts
/// its threads, runs the loop, and joins them. Threads claim single
/// indices from a shared atomic cursor and each Body writes only its own
/// output slot, so results are identical at any thread count.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_SUPPORT_PARALLEL_H
#define DIFFCODE_SUPPORT_PARALLEL_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace diffcode {
namespace support {

/// Canonical resolution of every "Threads" knob in the system
/// (PipelineConfig::Threads, which the scanner reads too, and
/// ExecutionPolicy::Workers): 0 means one thread per hardware thread
/// (at least 1), any other value is taken literally (1 = serial).
/// parallelFor applies it, so passing a raw knob through is always
/// correct; call it directly only to pre-compute the count.
unsigned resolveThreads(unsigned Requested);

/// Utilization of one parallelFor loop. The loop lives in the support
/// layer and cannot depend on obs/, so this is a plain struct;
/// obs::recordLoopStats folds it into a metrics registry.
struct LoopStats {
  /// Threads that ran the loop, the caller included (0 when N == 0).
  unsigned Threads = 0;
  /// Indices claimed; N unless a Body threw.
  std::uint64_t Claims = 0;
  /// Nanoseconds the started threads spent between the loop's launch and
  /// their first claim, summed (the caller contributes zero).
  std::uint64_t QueueWaitNs = 0;
  /// Nanoseconds each thread spent claiming and running indices; index 0
  /// is the caller.
  std::vector<std::uint64_t> WorkerBusyNs;
};

/// Runs Body(I) for every I in [0, N) on min(resolveThreads(Threads), N)
/// threads, the caller being one of them, and returns once all are
/// joined. Every started thread runs under the caller's fault-injection
/// context (support/FaultInjection.h), so seeded campaigns behave the
/// same at any thread count. The first exception a Body throws is
/// rethrown here; indices not yet claimed when it was thrown are skipped.
/// With \p Stats the loop is timed into it; without, it takes no clock
/// readings.
void parallelFor(unsigned Threads, std::size_t N,
                 const std::function<void(std::size_t)> &Body,
                 LoopStats *Stats = nullptr);

} // namespace support
} // namespace diffcode

#endif // DIFFCODE_SUPPORT_PARALLEL_H

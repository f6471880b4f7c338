//===- support/ThreadPool.h - Reusable worker pool -------------------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small reusable thread pool built around data-parallel index loops.
/// The pipeline (core/DiffCode) and the clustering engine (cluster/*) both
/// split embarrassingly-parallel work over item indices; workers claim
/// chunks from a shared atomic cursor, so results written to per-index
/// slots are deterministic regardless of the thread count.
///
/// The pool owns ThreadCount-1 worker threads; the calling thread
/// participates in every loop, so ThreadPool(1) spawns no threads and
/// parallelFor degenerates to a plain serial loop.
///
/// Error containment: the first exception a Body throws is captured and
/// rethrown on the calling thread after the loop drains; once an error is
/// recorded, unclaimed chunks are skipped so a poisoned batch fails fast
/// instead of grinding through the remaining work. The pool itself stays
/// usable after a throwing batch. Workers also inherit the caller's
/// fault-injection context (support/FaultInjection.h), so seeded fault
/// campaigns behave identically on every thread count.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_SUPPORT_THREADPOOL_H
#define DIFFCODE_SUPPORT_THREADPOOL_H

#include "support/FaultInjection.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace diffcode {
namespace support {

/// Canonical resolution of every "Threads" knob in the system
/// (PipelineConfig::Threads, scan::ScanConfig::Threads,
/// ExecutionPolicy::Workers): 0 means one thread per hardware thread
/// (at least 1), any other value is taken literally (1 = serial).
/// ThreadPool's constructor applies it, so passing a raw knob through is
/// always correct; call it directly only to pre-compute the count.
unsigned resolveThreads(unsigned Requested);

class ThreadPool {
public:
  /// Utilization accounting a stats-collecting pool accumulates across
  /// batches. The pool lives in the support layer and cannot depend on
  /// obs/, so this is a plain struct; core copies it into the metrics
  /// registry after each batch. All values are scheduling-dependent
  /// (PerRun in obs terms) except Batches.
  struct Stats {
    /// parallelFor/parallelForChunked invocations, including ones that
    /// took the serial fast path.
    std::uint64_t Batches = 0;
    /// Chunks executed. Differs between the serial fast path (one chunk
    /// covering [0, N)) and threaded execution (N/ChunkSize claims).
    std::uint64_t Chunks = 0;
    /// Total nanoseconds workers spent between a batch being published
    /// and their first chunk claim of that batch (the caller contributes
    /// zero — it starts claiming immediately).
    std::uint64_t QueueWaitNs = 0;
    /// Per-thread nanoseconds spent inside batches; index 0 is the
    /// calling thread, 1.. are the pool's workers.
    std::vector<std::uint64_t> WorkerBusyNs;
  };

  /// \p ThreadCount total threads including the caller; 0 = one per
  /// hardware thread. With \p CollectStats the pool times every batch
  /// into a Stats block (see statsSnapshot()); off by default so
  /// unobserved loops pay nothing.
  explicit ThreadPool(unsigned ThreadCount = 0, bool CollectStats = false);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Total threads that execute a loop (workers + calling thread).
  unsigned threadCount() const {
    return static_cast<unsigned>(Workers.size()) + 1;
  }

  bool collectingStats() const { return Collect; }

  /// Copy of the accumulated utilization stats (empty unless constructed
  /// with CollectStats). Call between batches, not from a Body.
  Stats statsSnapshot() const;

  /// Runs Body(I) for every I in [0, N); blocks until all indices are
  /// done. The first exception thrown by Body is rethrown here; once one
  /// is captured, remaining unclaimed indices may be skipped. Not
  /// reentrant: Body must not call back into the same pool.
  void parallelFor(std::size_t N,
                   const std::function<void(std::size_t)> &Body);

  /// Chunked variant: Body(Begin, End) over disjoint ranges covering
  /// [0, N). Chunks are claimed dynamically, which balances loops whose
  /// per-index cost varies (e.g. triangular distance matrices).
  void parallelForChunked(
      std::size_t N, std::size_t ChunkSize,
      const std::function<void(std::size_t, std::size_t)> &Body);

private:
  void workerLoop(unsigned Worker);
  void runChunks(const std::function<void(std::size_t, std::size_t)> &Body,
                 unsigned Worker, std::uint64_t QueueWaitNs);

  std::vector<std::thread> Workers;
  mutable std::mutex Mutex;
  std::condition_variable WakeCV; ///< Workers wait here for a new batch.
  std::condition_variable DoneCV; ///< The caller waits here for workers.

  // Current batch; Body/End/Chunk are set before Generation is bumped
  // under the mutex, so workers observing the new generation see them.
  const std::function<void(std::size_t, std::size_t)> *Body = nullptr;
  std::atomic<std::size_t> Cursor{0};
  std::size_t End = 0;
  std::size_t Chunk = 1;
  std::uint64_t Generation = 0;
  unsigned Busy = 0;
  std::exception_ptr FirstError;
  std::atomic<bool> Failed{false}; ///< Set with FirstError; aborts the batch.
  FaultContext BatchFaults;        ///< Caller's context, mirrored in workers.
  bool ShuttingDown = false;

  // Utilization accounting (only touched when Collect).
  bool Collect = false;
  Stats Accounting; ///< Guarded by Mutex.
  std::chrono::steady_clock::time_point BatchPublish; ///< Guarded by Mutex.
};

} // namespace support
} // namespace diffcode

#endif // DIFFCODE_SUPPORT_THREADPOOL_H

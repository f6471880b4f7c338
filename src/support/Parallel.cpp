//===- support/Parallel.cpp ------------------------------------------------===//

#include "support/Parallel.h"

#include "support/FaultInjection.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

using namespace diffcode;
using namespace diffcode::support;

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t nanos(Clock::duration D) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(D).count());
}

} // namespace

unsigned support::resolveThreads(unsigned Requested) {
  if (Requested != 0)
    return Requested;
  return std::max(1u, std::thread::hardware_concurrency());
}

void support::parallelFor(unsigned Threads, std::size_t N,
                          const std::function<void(std::size_t)> &Body,
                          LoopStats *Stats) {
  const unsigned Count =
      static_cast<unsigned>(std::min<std::size_t>(resolveThreads(Threads), N));
  if (Stats) {
    *Stats = LoopStats();
    Stats->Threads = Count;
    Stats->WorkerBusyNs.assign(Count, 0);
  }
  if (Count == 0)
    return;

  std::atomic<std::size_t> Cursor{0};
  std::atomic<bool> Failed{false}; ///< Set with FirstError; stops claims.
  std::mutex Mutex;
  std::exception_ptr FirstError; ///< Guarded by Mutex, as is *Stats.
  const FaultContext Faults = FaultContext::current();
  const Clock::time_point Launch = Stats ? Clock::now() : Clock::time_point();

  auto Run = [&](unsigned Thread) {
    Clock::time_point T0;
    if (Stats)
      T0 = Clock::now();
    std::uint64_t Claimed = 0;
    while (!Failed.load(std::memory_order_relaxed)) {
      std::size_t I = Cursor.fetch_add(1, std::memory_order_relaxed);
      if (I >= N)
        break;
      ++Claimed;
      try {
        Body(I);
      } catch (...) {
        std::lock_guard<std::mutex> Lock(Mutex);
        if (!FirstError)
          FirstError = std::current_exception();
        Failed.store(true, std::memory_order_relaxed);
      }
    }
    if (Stats) {
      std::uint64_t Busy = nanos(Clock::now() - T0);
      std::lock_guard<std::mutex> Lock(Mutex);
      Stats->Claims += Claimed;
      if (Thread != 0)
        Stats->QueueWaitNs += nanos(T0 - Launch);
      Stats->WorkerBusyNs[Thread] = Busy;
    }
  };

  {
    // jthreads join when the vector goes out of scope, also when starting
    // one of them throws.
    std::vector<std::jthread> Workers;
    Workers.reserve(Count - 1);
    for (unsigned Thread = 1; Thread < Count; ++Thread)
      Workers.emplace_back([&, Thread] {
        FaultScope Scope(Faults);
        Run(Thread);
      });
    Run(0);
  }
  if (FirstError)
    std::rethrow_exception(FirstError);
}

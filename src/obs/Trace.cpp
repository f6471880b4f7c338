//===- obs/Trace.cpp - Span-based tracing --------------------------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include "support/JsonWriter.h"

#include <algorithm>
#include <cstring>
#include <map>

#include <unistd.h>

namespace diffcode {
namespace obs {

Tracer::Tracer() : Tracer(std::chrono::steady_clock::now()) {}

Tracer::Tracer(std::chrono::steady_clock::time_point Epoch)
    : Epoch(Epoch), SelfPid(std::uint32_t(::getpid())) {}

std::uint64_t Tracer::now() const {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - Epoch)
                           .count());
}

std::uint32_t Tracer::tidForThisThread() {
  // Caller holds Mutex. Small ids are assigned in first-record order,
  // which is scheduling-dependent — one reason raw traces are PerRun.
  std::thread::id Self = std::this_thread::get_id();
  for (std::size_t I = 0; I < ThreadIds.size(); ++I)
    if (ThreadIds[I] == Self)
      return std::uint32_t(I);
  ThreadIds.push_back(Self);
  return std::uint32_t(ThreadIds.size() - 1);
}

void Tracer::record(const char *Name, std::uint64_t StartNs,
                    std::uint64_t DurNs) {
  std::lock_guard Lock(Mutex);
  Events.push_back(Event{Name, StartNs, DurNs, tidForThisThread(), SelfPid});
}

void Tracer::recordForeign(std::string_view Name, std::uint64_t StartNs,
                           std::uint64_t DurNs, std::uint32_t Tid,
                           std::uint32_t Pid) {
  std::lock_guard Lock(Mutex);
  const std::string &Owned = *ForeignNames.insert(std::string(Name)).first;
  Events.push_back(Event{Owned.c_str(), StartNs, DurNs, Tid, Pid});
}

std::size_t Tracer::eventCount() const {
  std::lock_guard Lock(Mutex);
  return Events.size();
}

std::vector<Tracer::Event> Tracer::events() const {
  std::lock_guard Lock(Mutex);
  return Events;
}

std::vector<Tracer::StageTotal> Tracer::aggregate() const {
  std::map<std::string_view, StageTotal> Totals;
  {
    std::lock_guard Lock(Mutex);
    for (const Event &E : Events) {
      StageTotal &T = Totals[E.Name];
      T.Spans += 1;
      T.TotalNs += E.DurNs;
    }
  }
  std::vector<StageTotal> Out;
  Out.reserve(Totals.size());
  for (auto &[Name, T] : Totals) {
    T.Name = std::string(Name);
    Out.push_back(std::move(T));
  }
  return Out;
}

std::string Tracer::traceJson() const {
  std::vector<Event> Sorted;
  {
    std::lock_guard Lock(Mutex);
    Sorted = Events;
  }
  std::sort(Sorted.begin(), Sorted.end(), [](const Event &A, const Event &B) {
    if (A.StartNs != B.StartNs)
      return A.StartNs < B.StartNs;
    if (A.Pid != B.Pid)
      return A.Pid < B.Pid;
    if (A.Tid != B.Tid)
      return A.Tid < B.Tid;
    return std::strcmp(A.Name, B.Name) < 0;
  });

  JsonWriter W;
  W.beginObject();
  W.key("traceEvents");
  W.beginArray();
  for (const Event &E : Sorted) {
    W.beginObject();
    W.key("name");
    W.value(E.Name);
    W.key("cat");
    W.value("diffcode");
    W.key("ph");
    W.value("X");
    // trace_event wants microseconds; keep sub-microsecond precision.
    W.key("ts");
    W.value(double(E.StartNs) / 1000.0);
    W.key("dur");
    W.value(double(E.DurNs) / 1000.0);
    W.key("pid");
    W.value(std::uint64_t(E.Pid));
    W.key("tid");
    W.value(std::uint64_t(E.Tid));
    W.endObject();
  }
  W.endArray();
  W.key("displayTimeUnit");
  W.value("ms");
  W.endObject();
  return W.take();
}

} // namespace obs
} // namespace diffcode

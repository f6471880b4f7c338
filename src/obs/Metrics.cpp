//===- obs/Metrics.cpp - Thread-safe pipeline metrics registry -------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include "support/JsonWriter.h"
#include "support/Parallel.h"

#include <algorithm>
#include <bit>
#include <mutex>
#include <stdexcept>

namespace diffcode {
namespace obs {

const char *metricKindName(MetricKind Kind) {
  switch (Kind) {
  case MetricKind::Counter:
    return "counter";
  case MetricKind::Histogram:
    return "histogram";
  }
  return "unknown";
}

const char *unitName(Unit U) {
  switch (U) {
  case Unit::None:
    return "";
  case Unit::Bytes:
    return "bytes";
  case Unit::Nanoseconds:
    return "ns";
  }
  return "";
}

const char *stabilityName(Stability S) {
  return S == Stability::Deterministic ? "deterministic" : "per-run";
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

unsigned Histogram::bucketFor(std::uint64_t V) {
  return V == 0 ? 0u : unsigned(std::bit_width(V));
}

std::uint64_t Histogram::bucketLo(unsigned Index) {
  if (Index == 0)
    return 0;
  return std::uint64_t(1) << (Index - 1);
}

std::uint64_t Histogram::bucketHi(unsigned Index) {
  if (Index == 0)
    return 0;
  if (Index == NumBuckets - 1)
    return ~std::uint64_t(0);
  return (std::uint64_t(1) << Index) - 1;
}

void Histogram::record(std::uint64_t V) {
  Buckets[bucketFor(V)].fetch_add(1, std::memory_order_relaxed);
  Count.fetch_add(1, std::memory_order_relaxed);

  // Saturating sum, same discipline as Counter::add.
  std::uint64_t Old = Sum.load(std::memory_order_relaxed);
  std::uint64_t Top = ~std::uint64_t(0);
  std::uint64_t New;
  do {
    New = Old > Top - V ? Top : Old + V;
  } while (!Sum.compare_exchange_weak(Old, New, std::memory_order_relaxed));

  std::uint64_t OldMin = Min.load(std::memory_order_relaxed);
  while (V < OldMin &&
         !Min.compare_exchange_weak(OldMin, V, std::memory_order_relaxed)) {
  }
  std::uint64_t OldMax = Max.load(std::memory_order_relaxed);
  while (V > OldMax &&
         !Max.compare_exchange_weak(OldMax, V, std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::min() const {
  std::uint64_t M = Min.load(std::memory_order_relaxed);
  return M == ~std::uint64_t(0) ? 0 : M;
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

Registry::Entry &Registry::getOrCreate(std::string_view Name, MetricKind Kind,
                                       Unit U, Stability S) {
  {
    std::shared_lock Lock(Mutex);
    auto It = Entries.find(Name);
    if (It != Entries.end()) {
      if (It->second.Kind != Kind)
        throw std::logic_error("obs::Registry: metric '" + std::string(Name) +
                               "' already registered as a different kind");
      return It->second;
    }
  }
  std::unique_lock Lock(Mutex);
  auto It = Entries.find(Name);
  if (It == Entries.end()) {
    Entry E;
    E.Kind = Kind;
    E.U = U;
    E.S = S;
    switch (Kind) {
    case MetricKind::Counter:
      E.C = std::make_unique<Counter>();
      break;
    case MetricKind::Histogram:
      E.H = std::make_unique<Histogram>();
      break;
    }
    It = Entries.emplace(std::string(Name), std::move(E)).first;
  } else if (It->second.Kind != Kind) {
    throw std::logic_error("obs::Registry: metric '" + std::string(Name) +
                           "' already registered as a different kind");
  }
  return It->second;
}

Counter &Registry::counter(std::string_view Name, Unit U, Stability S) {
  return *getOrCreate(Name, MetricKind::Counter, U, S).C;
}

Histogram &Registry::histogram(std::string_view Name, Unit U, Stability S) {
  return *getOrCreate(Name, MetricKind::Histogram, U, S).H;
}

std::size_t Registry::size() const {
  std::shared_lock Lock(Mutex);
  return Entries.size();
}

Snapshot Registry::snapshot() const {
  Snapshot Snap;
  std::shared_lock Lock(Mutex);
  Snap.Values.reserve(Entries.size());
  for (const auto &[Name, E] : Entries) {
    MetricValue V;
    V.Name = Name;
    V.Kind = E.Kind;
    V.U = E.U;
    V.S = E.S;
    switch (E.Kind) {
    case MetricKind::Counter:
      V.Count = E.C->get();
      break;
    case MetricKind::Histogram:
      V.Count = E.H->count();
      V.Sum = E.H->sum();
      V.Min = E.H->min();
      V.Max = E.H->max();
      for (unsigned I = 0; I < Histogram::NumBuckets; ++I)
        if (std::uint64_t C = E.H->bucketCount(I))
          V.Buckets.emplace_back(I, C);
      break;
    }
    Snap.Values.push_back(std::move(V));
  }
  return Snap;
}

//===----------------------------------------------------------------------===//
// Snapshot serialization
//===----------------------------------------------------------------------===//

static void emitMetric(JsonWriter &W, const MetricValue &V) {
  W.beginObject();
  W.key("name");
  W.value(V.Name);
  W.key("kind");
  W.value(metricKindName(V.Kind));
  if (V.U != Unit::None) {
    W.key("unit");
    W.value(unitName(V.U));
  }
  if (V.S == Stability::PerRun) {
    W.key("stability");
    W.value(stabilityName(V.S));
  }
  switch (V.Kind) {
  case MetricKind::Counter:
    W.key("value");
    W.value(V.Count);
    break;
  case MetricKind::Histogram:
    W.key("count");
    W.value(V.Count);
    W.key("sum");
    W.value(V.Sum);
    W.key("min");
    W.value(V.Min);
    W.key("max");
    W.value(V.Max);
    W.key("buckets");
    W.beginArray();
    for (const auto &[Index, C] : V.Buckets) {
      W.beginObject();
      W.key("lo");
      W.value(Histogram::bucketLo(Index));
      W.key("hi");
      W.value(Histogram::bucketHi(Index));
      W.key("count");
      W.value(C);
      W.endObject();
    }
    W.endArray();
    break;
  }
  W.endObject();
}

std::string Snapshot::json(bool DeterministicOnly) const {
  JsonWriter W;
  W.beginArray();
  for (const MetricValue &V : Values) {
    if (DeterministicOnly && V.S == Stability::PerRun)
      continue;
    emitMetric(W, V);
  }
  W.endArray();
  return W.take();
}

//===----------------------------------------------------------------------===//
// Snapshot merging
//===----------------------------------------------------------------------===//

/// Combines \p Src into \p Dst (same name, same kind).
static void mergeValueInto(MetricValue &Dst, const MetricValue &Src) {
  switch (Dst.Kind) {
  case MetricKind::Counter:
    Dst.Count = saturatingAdd(Dst.Count, Src.Count);
    break;
  case MetricKind::Histogram: {
    // Min is 0-when-empty at the MetricValue layer, so an empty side
    // must not drag the merged min to 0.
    if (Dst.Count == 0)
      Dst.Min = Src.Min;
    else if (Src.Count != 0)
      Dst.Min = std::min(Dst.Min, Src.Min);
    Dst.Max = std::max(Dst.Max, Src.Max);
    Dst.Count = saturatingAdd(Dst.Count, Src.Count);
    Dst.Sum = saturatingAdd(Dst.Sum, Src.Sum);

    std::vector<std::pair<unsigned, std::uint64_t>> Merged;
    Merged.reserve(Dst.Buckets.size() + Src.Buckets.size());
    std::size_t A = 0, B = 0;
    while (A < Dst.Buckets.size() || B < Src.Buckets.size()) {
      if (B == Src.Buckets.size() || (A < Dst.Buckets.size() &&
                                      Dst.Buckets[A].first <
                                          Src.Buckets[B].first))
        Merged.push_back(Dst.Buckets[A++]);
      else if (A == Dst.Buckets.size() ||
               Src.Buckets[B].first < Dst.Buckets[A].first)
        Merged.push_back(Src.Buckets[B++]);
      else {
        Merged.emplace_back(Dst.Buckets[A].first,
                            saturatingAdd(Dst.Buckets[A].second,
                                          Src.Buckets[B].second));
        ++A;
        ++B;
      }
    }
    Dst.Buckets = std::move(Merged);
    break;
  }
  }
}

bool Snapshot::merge(const Snapshot &Other, std::string_view Prefix) {
  std::vector<MetricValue> In;
  In.reserve(Other.Values.size());
  for (const MetricValue &V : Other.Values) {
    MetricValue C = V;
    C.Name = std::string(Prefix) + C.Name;
    In.push_back(std::move(C));
  }

  // Validate before mutating: a kind mismatch rejects the whole merge.
  {
    std::size_t I = 0, J = 0;
    while (I < Values.size() && J < In.size()) {
      int Cmp = Values[I].Name.compare(In[J].Name);
      if (Cmp < 0)
        ++I;
      else if (Cmp > 0)
        ++J;
      else {
        if (Values[I].Kind != In[J].Kind)
          return false;
        ++I;
        ++J;
      }
    }
  }

  std::vector<MetricValue> Out;
  Out.reserve(Values.size() + In.size());
  std::size_t I = 0, J = 0;
  while (I < Values.size() || J < In.size()) {
    if (J == In.size() ||
        (I < Values.size() && Values[I].Name < In[J].Name)) {
      Out.push_back(std::move(Values[I++]));
    } else if (I == Values.size() || In[J].Name < Values[I].Name) {
      Out.push_back(std::move(In[J++]));
    } else {
      MetricValue M = std::move(Values[I++]);
      mergeValueInto(M, In[J++]);
      Out.push_back(std::move(M));
    }
  }
  Values = std::move(Out);
  return true;
}

void Snapshot::markAllPerRun() {
  for (MetricValue &V : Values)
    V.S = Stability::PerRun;
}

void recordLoopStats(Registry &R, const support::LoopStats &Loop) {
  R.counter("threadpool.batches").add(Loop.Threads != 0 ? 1 : 0);
  R.counter("threadpool.chunks", Unit::None, Stability::PerRun)
      .add(Loop.Claims);
  R.counter("threadpool.queue_wait_ns", Unit::Nanoseconds, Stability::PerRun)
      .add(Loop.QueueWaitNs);
  Histogram &Busy = R.histogram("threadpool.worker_busy_ns",
                                Unit::Nanoseconds, Stability::PerRun);
  for (std::uint64_t Ns : Loop.WorkerBusyNs)
    Busy.record(Ns);
}

} // namespace obs
} // namespace diffcode

//===- obs/Metrics.h - Thread-safe pipeline metrics registry ---------------===//
//
// Part of the DiffCode project, a reproduction of "Inferring Crypto API
// Rules from Code Changes" (PLDI'18).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metrics half of the observability layer (DESIGN.md
/// "Observability"): counters and fixed log-scale-bucket histograms
/// behind a name-keyed registry, in the spirit of the pass-statistics
/// machinery mature analysis frameworks ship.
///
/// Concurrency contract: all metric updates are lock-free atomics, so
/// pipeline workers record from any thread without coordination; metric
/// *creation* takes the registry's exclusive lock once per distinct name
/// (double-checked, like support::Interner), and returned references stay
/// valid for the registry's lifetime (node-based storage never moves).
///
/// Determinism contract: snapshots list metrics in name order, so two
/// runs that record the same multiset of values per metric serialize byte
/// identically — regardless of thread count or creation order. Metrics
/// whose values are inherently scheduling- or wall-clock-dependent
/// (timings, claim counts, per-worker distributions) are registered as
/// Stability::PerRun and excluded from
/// Snapshot::json(/*DeterministicOnly=*/true), which is what the
/// differential harness compares across 1/2/8 threads.
///
/// Counters saturate at the 64-bit maximum instead of wrapping, so a
/// runaway accumulation degrades to a pinned value rather than a bogus
/// small one.
///
//===----------------------------------------------------------------------===//

#ifndef DIFFCODE_OBS_METRICS_H
#define DIFFCODE_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace diffcode {
namespace support {
struct LoopStats;
} // namespace support

namespace obs {

/// What a registered metric is.
enum class MetricKind { Counter, Histogram };

/// Unit of a metric's values, for display and emission.
enum class Unit { None, Bytes, Nanoseconds };

/// Whether a metric's final value is a pure function of the pipeline
/// input (Deterministic) or may legitimately differ run to run — wall
/// times and scheduling-dependent counts and distributions (PerRun).
enum class Stability { Deterministic, PerRun };

const char *metricKindName(MetricKind Kind);
const char *unitName(Unit U);
const char *stabilityName(Stability S);

/// Saturating 64-bit add — the overflow discipline every counter and
/// histogram sum in this layer uses (pin at the top, never wrap).
inline std::uint64_t saturatingAdd(std::uint64_t A, std::uint64_t B) {
  std::uint64_t Top = ~std::uint64_t(0);
  return A > Top - B ? Top : A + B;
}

/// Monotonic counter. add() saturates at the 64-bit maximum.
class Counter {
public:
  void add(std::uint64_t N = 1) {
    std::uint64_t Old = Value.load(std::memory_order_relaxed);
    std::uint64_t Max = ~std::uint64_t(0);
    std::uint64_t New;
    do {
      New = Old > Max - N ? Max : Old + N;
    } while (!Value.compare_exchange_weak(Old, New, std::memory_order_relaxed));
  }
  std::uint64_t get() const { return Value.load(std::memory_order_relaxed); }

private:
  std::atomic<std::uint64_t> Value{0};
};

/// Histogram over fixed log-scale buckets: bucket 0 holds the value 0 and
/// bucket I >= 1 holds [2^(I-1), 2^I - 1], so any 64-bit value lands in
/// one of 65 buckets with two instructions (bit_width). Also tracks
/// count, saturating sum, min, and max.
class Histogram {
public:
  static constexpr unsigned NumBuckets = 65;

  /// Bucket index of \p V (0 for 0, else bit_width).
  static unsigned bucketFor(std::uint64_t V);
  /// Smallest value bucket \p Index holds.
  static std::uint64_t bucketLo(unsigned Index);
  /// Largest value bucket \p Index holds.
  static std::uint64_t bucketHi(unsigned Index);

  void record(std::uint64_t V);

  std::uint64_t count() const { return Count.load(std::memory_order_relaxed); }
  /// Saturating sum of recorded values.
  std::uint64_t sum() const { return Sum.load(std::memory_order_relaxed); }
  /// Smallest recorded value (0 when empty).
  std::uint64_t min() const;
  std::uint64_t max() const { return Max.load(std::memory_order_relaxed); }
  std::uint64_t bucketCount(unsigned Index) const {
    return Buckets[Index].load(std::memory_order_relaxed);
  }

private:
  std::atomic<std::uint64_t> Buckets[NumBuckets] = {};
  std::atomic<std::uint64_t> Count{0};
  std::atomic<std::uint64_t> Sum{0};
  std::atomic<std::uint64_t> Min{~std::uint64_t(0)};
  std::atomic<std::uint64_t> Max{0};
};

/// One metric's state at snapshot time.
struct MetricValue {
  std::string Name;
  MetricKind Kind = MetricKind::Counter;
  Unit U = Unit::None;
  Stability S = Stability::Deterministic;
  std::uint64_t Count = 0; ///< Counter value / histogram sample count.
  std::uint64_t Sum = 0, Min = 0, Max = 0; ///< Histogram aggregates.
  /// Non-empty histogram buckets as (bucket index, count), ascending.
  std::vector<std::pair<unsigned, std::uint64_t>> Buckets;
};

/// A registry snapshot: every metric's value, ordered by name.
struct Snapshot {
  std::vector<MetricValue> Values;

  bool empty() const { return Values.empty(); }
  /// Minified JSON array of metric objects. With \p DeterministicOnly,
  /// PerRun metrics are dropped — the byte-comparable projection.
  std::string json(bool DeterministicOnly = false) const;

  /// Merges \p Other into this snapshot, prepending \p Prefix to every
  /// incoming name (a uniform prefix preserves name order, so this is a
  /// sorted two-way merge). Same-name metrics combine per kind:
  /// counters add with saturation, histograms merge bucket-wise (exact,
  /// since both sides share the fixed bucket layout) with saturating
  /// count/sum, min of mins, max of maxes. Colliding entries keep this
  /// snapshot's Unit/Stability; new entries copy \p Other's. If any
  /// same-name pair disagrees on kind the whole merge is rejected:
  /// returns false and leaves this snapshot untouched. Both sides must
  /// be name-sorted, as Registry::snapshot() produces.
  bool merge(const Snapshot &Other, std::string_view Prefix = {});

  /// Marks every metric PerRun — applied to worker-shipped snapshots
  /// before merging, since retries and crash-replay make cross-process
  /// sums scheduling-dependent even when the per-worker values are not.
  void markAllPerRun();
};

/// Name-keyed owner of every metric of one observed pipeline run.
/// get-or-create entry points return references that stay valid for the
/// registry's lifetime; asking for an existing name with a different
/// kind throws std::logic_error.
class Registry {
public:
  Registry() = default;
  Registry(const Registry &) = delete;
  Registry &operator=(const Registry &) = delete;

  Counter &counter(std::string_view Name, Unit U = Unit::None,
                   Stability S = Stability::Deterministic);
  Histogram &histogram(std::string_view Name, Unit U = Unit::None,
                       Stability S = Stability::Deterministic);

  std::size_t size() const;

  /// Name-ordered snapshot of every metric (see Snapshot).
  Snapshot snapshot() const;

private:
  struct Entry {
    MetricKind Kind;
    Unit U;
    Stability S;
    // Exactly one of these is set, per Kind.
    std::unique_ptr<Counter> C;
    std::unique_ptr<Histogram> H;
  };
  Entry &getOrCreate(std::string_view Name, MetricKind Kind, Unit U,
                     Stability S);

  mutable std::shared_mutex Mutex;
  /// std::map: node-based (references stable) and name-ordered (snapshot
  /// determinism for free).
  std::map<std::string, Entry, std::less<>> Entries;
};

/// Records one support::parallelFor loop under `threadpool.*`: the batch
/// count (deterministic: 1 for a loop over at least one index, else 0),
/// and the claims (`threadpool.chunks`), summed queue wait and
/// per-thread busy time (one sample per thread that ran), which depend
/// on scheduling (PerRun).
void recordLoopStats(Registry &R, const support::LoopStats &Loop);

} // namespace obs
} // namespace diffcode

#endif // DIFFCODE_OBS_METRICS_H

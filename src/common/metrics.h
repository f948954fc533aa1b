#ifndef RSTORE_COMMON_METRICS_H_
#define RSTORE_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/latency_attribution.h"
#include "common/sync.h"

namespace rstore {

/// Process-wide observability registry: named counters, gauges, and
/// fixed-boundary histograms.
///
/// Design goals, in order:
///   1. Near-zero overhead on instrumented hot paths. Every metric update is
///      a single relaxed atomic RMW on a pre-resolved pointer; the registry
///      mutex (kLockRankMetrics, the lowest non-leaf rank) is taken only on
///      first registration and during export. An instrumentation point that
///      is never reached costs nothing; one that caches its handle in a
///      function-local static costs one acquire load per call thereafter.
///   2. Machine-readable export. The same snapshot renders as Prometheus
///      text exposition format and as a JSON object, so benchmarks, the CLI
///      shell, and CI can all scrape the identical numbers.
///   3. Stable handles. Registered metrics are never deleted or moved;
///      pointers returned by GetCounter/GetGauge/GetHistogram stay valid for
///      the registry's lifetime (process lifetime for Default()).
///
/// Naming convention (see DESIGN.md "Observability"):
///   rstore_<subsystem>_<what>[_<unit>][_total]
/// e.g. rstore_kvs_bytes_read_total, rstore_query_simulated_micros.
/// Counters end in _total; histograms name their unit. The <subsystem> token
/// is what StoreReport uses to group registry counters into layer blocks.

/// Monotonically increasing counter.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

  /// Counters are monotone in production; only tests may zero one (in place,
  /// so cached handles survive).
  void ResetForTest() { value_.store(0, std::memory_order_relaxed); }

 private:
  // Relaxed monotone tally; readers tolerate staleness. analyze:atomic
  std::atomic<uint64_t> value_{0};
};

/// Instantaneous signed value (queue depths, resident bytes, ...).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  // Relaxed last-writer-wins snapshot value. analyze:atomic
  std::atomic<int64_t> value_{0};
};

/// The exemplar attached to a histogram bucket: the last observation that
/// landed there, with its trace/query id and latency attribution snapshot.
/// Exemplars turn a tail bucket from a count into a lead — "bucket le=65536
/// last saw query 1234, which spent 80% of its time queued".
struct HistogramExemplar {
  bool valid = false;
  /// Trace/query id of the observation (FlightRecorder::NextQueryId()).
  uint64_t id = 0;
  /// simulated_micros is the observed value; for latency histograms the
  /// parts attribute it (Balanced()), elsewhere they stay zero.
  LatencyAttribution latency;
};

/// Histogram over fixed upper-bound boundaries chosen at registration.
/// An observation lands in the first bucket whose boundary is >= the value;
/// values above the last boundary land in the implicit +Inf bucket.
class Histogram {
 public:
  /// `boundaries` must be non-empty and strictly increasing.
  explicit Histogram(std::vector<uint64_t> boundaries);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(uint64_t value);

  /// Observe() plus an exemplar recorded on the bucket the value lands in
  /// (last writer wins). The tally itself stays relaxed-atomic; only the
  /// exemplar slot takes a leaf-rank mutex, and callers that never pass
  /// exemplars never touch it (storage is allocated on first use).
  void ObserveWithExemplar(uint64_t value, const HistogramExemplar& exemplar);

  /// `count` geometrically spaced upper bounds starting at `start`, each
  /// multiplied by `factor` (rounded up to stay strictly increasing). The
  /// workhorse for latency/byte histograms at registration sites.
  static std::vector<uint64_t> ExponentialBoundaries(uint64_t start,
                                                     double factor,
                                                     size_t count);

  const std::vector<uint64_t>& boundaries() const { return boundaries_; }
  /// Per-bucket counts; size() == boundaries().size() + 1 (last is +Inf).
  std::vector<uint64_t> bucket_counts() const;
  /// Per-bucket exemplars (same indexing as bucket_counts); empty when no
  /// observation ever carried an exemplar.
  std::vector<HistogramExemplar> exemplars() const;
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Zeroes all buckets in place (test isolation; handles survive).
  void ResetForTest();

 private:
  std::vector<uint64_t> boundaries_;
  // Relaxed per-bucket tallies; totals across the three fields may be
  // transiently inconsistent during concurrent Observe. analyze:atomic
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  std::atomic<uint64_t> count_{0};  // analyze:atomic (see buckets_)
  std::atomic<uint64_t> sum_{0};    // analyze:atomic (see buckets_)
  /// Leaf rank: safe to acquire from any path, including under the
  /// registry mutex during Snapshot().
  mutable Mutex exemplar_mu_{kLockRankLeaf, "Histogram::exemplar_mu_"};
  /// Lazily sized to boundaries_.size() + 1 on the first exemplar.
  std::vector<HistogramExemplar> exemplars_ RSTORE_GUARDED_BY(exemplar_mu_);
};

/// A point-in-time copy of every registered metric, sorted by name.
struct MetricsSnapshot {
  struct HistogramValue {
    std::string name;
    std::vector<uint64_t> boundaries;
    std::vector<uint64_t> bucket_counts;  // boundaries.size() + 1 entries
    /// Per-bucket exemplars, index-aligned with bucket_counts; empty when
    /// the histogram never saw an exemplar-carrying observation.
    std::vector<HistogramExemplar> exemplars;
    uint64_t count = 0;
    uint64_t sum = 0;
  };
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<HistogramValue> histograms;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry used by all built-in instrumentation points.
  static MetricsRegistry& Default();

  /// Finds or creates the named metric. RSTORE_CHECKs that the name is not
  /// already registered as a different kind (a name is one kind, forever).
  /// For histograms, the boundaries of later calls are ignored: first
  /// registration wins.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name,
                          std::vector<uint64_t> boundaries);

  MetricsSnapshot Snapshot() const;

  /// Prometheus text exposition format (one # TYPE line per family;
  /// histograms expand to _bucket{le=...}/_sum/_count series).
  std::string PrometheusText() const;

  /// JSON object: {"counters":{name:value,...},"gauges":{...},
  /// "histograms":{name:{"boundaries":[...],"counts":[...],
  /// "sum":n,"count":n},...}}.
  std::string JsonSnapshot() const;

  /// Zeroes every registered counter/gauge/histogram (registration and
  /// handles survive). Intended for tests and bench warmup isolation.
  void ResetForTest();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable Mutex mu_{kLockRankMetrics, "MetricsRegistry::mu_"};
  /// Name -> metric. Node-based map: entries never move once created, so
  /// returned pointers stay stable without further locking.
  std::map<std::string, Entry> metrics_ RSTORE_GUARDED_BY(mu_);
};

}  // namespace rstore

#endif  // RSTORE_COMMON_METRICS_H_

#ifndef RSTORE_COMMON_FLIGHT_RECORDER_H_
#define RSTORE_COMMON_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/latency_attribution.h"
#include "common/sync.h"

namespace rstore {

/// One span of a flight record's serialized trace tree, flattened in
/// pre-order (`depth` reconstructs the nesting). Times are on the query's
/// simulated clock, relative to the query start.
struct FlightSpan {
  std::string name;
  uint32_t depth = 0;
  uint64_t sim_start_us = 0;
  uint64_t sim_end_us = 0;
};

/// Everything the recorder keeps about one finished query or write: identity,
/// outcome, total simulated latency and its attribution, fault-path
/// counters, the degradation report, and the serialized span tree.
struct FlightRecord {
  uint64_t id = 0;
  std::string name;
  /// The failure the operation returned (empty when it succeeded).
  std::string status;
  /// simulated_micros is the record's total ("total_us" in the dump).
  LatencyAttribution latency;
  uint64_t retries = 0;
  uint64_t hedges = 0;
  uint64_t hedge_wins = 0;
  uint64_t timeouts = 0;
  uint64_t missing_chunks = 0;
  /// Best-effort degradation reasons (empty when the result was complete).
  std::vector<std::string> degradation;
  std::vector<FlightSpan> spans;
};

/// One sample of the async engine's per-node saturation time series:
/// how far ahead of `sim_us` the node's FIFO queue is booked.
struct FlightSample {
  uint64_t sim_us = 0;
  uint32_t node = 0;
  /// Virtual instant at which the node drains everything it has accepted.
  uint64_t busy_horizon_us = 0;
  /// max(busy_horizon_us - sim_us, 0): queued work, in micros of service.
  uint64_t backlog_us = 0;
};

struct FlightRecorderOptions {
  /// Most-recent queries kept (ring buffer, oldest evicted first).
  size_t ring_size = 64;
  /// Slowest queries kept (selection by total simulated latency; ties keep
  /// the earlier).
  size_t slowest_size = 16;
  /// Saturation samples kept (ring buffer).
  size_t sample_ring_size = 256;
};

/// Always-on slow-query log: a fixed-size ring of the most recent queries
/// plus a selection of the slowest ones, each with full latency attribution
/// and its span tree, and a bounded time series of per-node saturation
/// samples. Everything is bounded, so recording costs O(record size) and
/// the process-wide Default() instance can stay on permanently.
///
/// Thread-safe. The internal mutex ranks below kLockRankMetrics (see
/// sync.h): completion paths may record while holding subsystem locks, and
/// the recorder never calls out while holding it.
class FlightRecorder {
 public:
  explicit FlightRecorder(const FlightRecorderOptions& options =
                              FlightRecorderOptions());

  /// Process-wide instance (like MetricsRegistry::Default()).
  static FlightRecorder& Default();

  /// Monotonic query ids, also used as exemplar trace ids (see metrics.h).
  uint64_t NextQueryId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Records one finished query in the recent ring and, if it qualifies,
  /// the slowest selection.
  void Record(FlightRecord record);

  /// Appends one saturation sample to the time-series ring.
  void AddSample(const FlightSample& sample);

  /// Most-recent queries, newest first.
  std::vector<FlightRecord> Recent() const;
  /// Slowest queries, slowest first.
  std::vector<FlightRecord> Slowest() const;
  /// Saturation samples, oldest first.
  std::vector<FlightSample> Samples() const;

  /// {"slowest": [...], "recent": [...], "samples": [...]} — the dump
  /// tools/latency_report.py renders.
  std::string DumpJson() const;

  /// Drops all records and samples (not the id counter); test isolation.
  void ResetForTest();

 private:
  const FlightRecorderOptions options_;
  /// Lock-free id source: ids must be claimable from any hot path without
  /// touching the ring lock. analyze:atomic
  std::atomic<uint64_t> next_id_{0};

  mutable Mutex mu_{kLockRankFlightRecorder, "FlightRecorder::mu_"};
  /// Circular buffer of the ring_size most recent records.
  std::vector<FlightRecord> recent_ RSTORE_GUARDED_BY(mu_);
  size_t recent_pos_ RSTORE_GUARDED_BY(mu_) = 0;
  uint64_t recent_seen_ RSTORE_GUARDED_BY(mu_) = 0;
  /// Sorted by total simulated latency descending, at most slowest_size
  /// entries.
  std::vector<FlightRecord> slowest_ RSTORE_GUARDED_BY(mu_);
  /// Circular buffer of the sample_ring_size most recent samples.
  std::vector<FlightSample> samples_ RSTORE_GUARDED_BY(mu_);
  size_t sample_pos_ RSTORE_GUARDED_BY(mu_) = 0;
  uint64_t samples_seen_ RSTORE_GUARDED_BY(mu_) = 0;
};

}  // namespace rstore

#endif  // RSTORE_COMMON_FLIGHT_RECORDER_H_

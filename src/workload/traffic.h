#ifndef RSTORE_WORKLOAD_TRAFFIC_H_
#define RSTORE_WORKLOAD_TRAFFIC_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/executor.h"
#include "core/query_processor.h"
#include "core/rstore.h"
#include "version/dataset.h"
#include "workload/query_workload.h"

namespace rstore {
namespace workload {

/// A deterministic mixed query stream and how to drive it. The same options
/// always produce the same queries (GenerateTraffic is a pure function of
/// the dataset and seed), so a sync and an async run over one stream are
/// comparable query for query.
struct TrafficOptions {
  uint64_t seed = 1;
  uint32_t num_queries = 200;

  /// Relative mix weights of the four query classes (paper §5.4's Q1/Q2/Q3
  /// plus point lookups). Defaults skew toward the cheap classes, like
  /// interactive traffic.
  uint32_t weight_full = 1;
  uint32_t weight_range = 4;
  uint32_t weight_evolution = 2;
  uint32_t weight_point = 9;

  /// Version popularity skew: versions are ranked newest-first and sampled
  /// Zipf(theta) — recent versions are hot, as in real checkout traffic.
  double zipf_theta = 0.8;
  /// Fraction of the key space each range query covers.
  double range_selectivity = 0.05;

  /// Open-loop arrival: one query arrives every `arrival_interval_us` of
  /// virtual time regardless of completions (latency then includes queueing
  /// behind saturated nodes). 0 selects closed-loop mode.
  uint64_t arrival_interval_us = 0;
  /// Closed-loop concurrency: how many queries are kept in flight; each
  /// completion immediately submits the next. Ignored in open-loop mode.
  /// 1 reproduces the synchronous engine's timeline exactly.
  uint32_t concurrency = 16;
};

/// Generates the deterministic mixed query stream for `options`.
std::vector<Query> GenerateTraffic(const VersionedDataset& dataset,
                                   const TrafficOptions& options);

/// Outcome of one traffic run. Every figure is on the virtual clock, so two
/// runs with the same stream and scheduling are bit-equal.
struct TrafficReport {
  uint64_t completed = 0;
  /// Queries that finished with a non-OK status (their status codes still
  /// feed result_hash, so equivalence checks cover failures too; a point
  /// query that finds no record is one, with kNotFound).
  uint64_t failed = 0;
  /// Per-query virtual-time latency, indexed by submission order.
  std::vector<uint64_t> latencies_us;
  /// Virtual time from the first submission to the last completion.
  uint64_t makespan_us = 0;
  /// Aggregate per-query cost accounting (sum over all queries).
  QueryStats stats;
  /// The same accounting split by query class, indexed by
  /// static_cast<size_t>(Query::Kind) — tail attribution differs wildly
  /// between a full-version scan and a point lookup, so the aggregate alone
  /// hides which class is paying the queue/retry penalty.
  std::array<QueryStats, 4> stats_by_kind;
  /// Order-independent fingerprint of every query's full result (status,
  /// and records when it succeeded, keyed by submission index): equal
  /// hashes mean every query returned byte-identical results.
  uint64_t result_hash = 0;

  double throughput_qps() const;
  /// Nearest-rank percentile of latencies_us; `p` in (0, 100].
  uint64_t PercentileLatencyUs(double p) const;
};

/// Hash of a result set as fingerprinted by the harness (exposed so tests
/// can fingerprint individually obtained results the same way).
uint64_t HashRecords(const std::vector<Record>& records);

/// Drives the stream through the asynchronous read path, one
/// RStore::RunAsync per query: queries pipeline through the coordinator on
/// `executor`'s virtual timeline, per TrafficOptions' loop mode. Returns
/// after the executor drains.
TrafficReport RunTrafficAsync(RStore* store, Executor* executor,
                              const std::vector<Query>& queries,
                              const TrafficOptions& options);

/// Synchronous baseline: one RStore::Run at a time. Each query's latency is its
/// own simulated cost and the makespan is their sum — the coordinator never
/// overlaps work, which is exactly the idle capacity the async engine
/// reclaims.
TrafficReport RunTrafficSync(RStore* store,
                             const std::vector<Query>& queries);

}  // namespace workload
}  // namespace rstore

#endif  // RSTORE_WORKLOAD_TRAFFIC_H_

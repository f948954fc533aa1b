// Property test for the latency-attribution algebra: for every query, on
// every partitioner, through both engines, cached or not, faulted or not,
// the attribution must conserve — queue_wait + service + retry_penalty -
// hedge_delta equals the query's simulated_micros, exactly. The flight
// recorder, the exemplars and the bench's per-class breakdowns all read
// these four fields; conservation is what makes them an attribution rather
// than four unrelated counters.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/executor.h"
#include "core/rstore.h"
#include "core_test_util.h"
#include "kvstore/cluster.h"

namespace rstore {
namespace {

using testing::BuildReplayQueries;
using testing::ExampleData;
using testing::MakeChain;

constexpr PartitionAlgorithm kAllAlgorithms[] = {
    PartitionAlgorithm::kBottomUp,        PartitionAlgorithm::kShingle,
    PartitionAlgorithm::kDepthFirst,      PartitionAlgorithm::kBreadthFirst,
    PartitionAlgorithm::kDeltaBaseline,   PartitionAlgorithm::kSubChunkBaseline,
    PartitionAlgorithm::kSingleAddressSpace,
};

/// The chaos suite's fault schedule: transient errors and latency spikes
/// everywhere, crash windows on two of the five nodes (rf=3 keeps every key
/// served, so strict queries still succeed).
FaultInjectorOptions ChaosSchedule(uint64_t seed) {
  FaultInjectorOptions f;
  f.seed = seed;
  f.default_profile.transient_error_rate = 0.04;
  f.default_profile.slow_rate = 0.2;
  f.default_profile.slow_multiplier = 20.0;
  f.per_node[1] = f.default_profile;
  f.per_node[1].crash_windows = {{10, 40}, {90, 130}};
  f.per_node[3] = f.default_profile;
  f.per_node[3].crash_windows = {{25, 70}};
  return f;
}

/// fault_seed == 0 means a clean cluster; any other value applies the chaos
/// schedule rooted at that seed.
ClusterOptions MakeClusterOptions(uint64_t fault_seed) {
  ClusterOptions o;
  o.num_nodes = 5;
  o.replication_factor = 3;
  if (fault_seed != 0) {
    o.latency.hedge_threshold_us = 3000;
    o.retry.max_attempts = 4;
    o.faults = ChaosSchedule(fault_seed);
  }
  return o;
}

void ExpectConserved(const QueryStats& qs, const std::string& what) {
  EXPECT_TRUE(qs.Balanced())
      << what << ": " << qs.queue_wait_us << " + " << qs.service_us << " + "
      << qs.retry_penalty_us << " - " << qs.hedge_delta_us
      << " != " << qs.simulated_micros;
}

/// Replays the deterministic mixed workload one query at a time through the
/// sync API (fresh QueryStats per query, so the invariant is per-query, not
/// just in aggregate), then pushes the same list through the async engine
/// with every query in flight at once — the regime where queue_wait_us is
/// actually nonzero — checking each completion's stats.
void CheckConservationEverywhere(PartitionAlgorithm algorithm,
                                 uint64_t fault_seed, bool cached) {
  SCOPED_TRACE(std::string(PartitionAlgorithmName(algorithm)) +
               (cached ? " cached" : " uncached") +
               " fault_seed=" + std::to_string(fault_seed));
  ExampleData data = MakeChain(16, 12, 4);
  Cluster cluster(MakeClusterOptions(fault_seed));
  Options options;
  options.algorithm = algorithm;
  options.chunk_capacity_bytes = 700;
  if (cached) options.cache_capacity_bytes = 1 << 20;
  auto store = RStore::Open(&cluster, options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());
  // Two passes over the query mix: with a cache configured, the second pass
  // runs warm — conservation must hold for zero-backend-work queries too.
  const std::vector<workload::Query> queries =
      BuildReplayQueries(data.dataset, /*seed=*/42);

  uint64_t total_service = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryStats qs;
    const bool point = queries[i].kind == workload::Query::Kind::kPoint;
    auto got = (*store)->Run(queries[i], &qs);
    ASSERT_TRUE(got.ok() || (point && got.status().IsNotFound()))
        << got.status().ToString();
    ExpectConserved(qs, "sync query " + std::to_string(i));
    total_service += qs.service_us;
  }
  EXPECT_GT(total_service, 0u);  // the invariant wasn't vacuously 0 == 0

  Executor executor(0);
  size_t completed = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const bool point = queries[i].kind == workload::Query::Kind::kPoint;
    (*store)->RunAsync(&executor, queries[i])
        .OnReady([&completed, i, point](const AsyncQueryResult& r) {
          EXPECT_TRUE(r.status.ok() || (point && r.status.IsNotFound()))
              << r.status.ToString();
          ExpectConserved(r.stats, "async query " + std::to_string(i));
          ++completed;
        });
  }
  executor.RunUntilIdle();
  EXPECT_EQ(completed, queries.size());
}

TEST(AttributionConservationTest, HoldsForEveryPartitioner) {
  for (PartitionAlgorithm algorithm : kAllAlgorithms) {
    for (uint64_t fault_seed : {uint64_t{0}, uint64_t{1}}) {
      CheckConservationEverywhere(algorithm, fault_seed, /*cached=*/false);
    }
  }
}

TEST(AttributionConservationTest, HoldsAcrossChaosSeedsAndCacheModes) {
  for (uint64_t fault_seed : {0, 1, 2, 3, 4, 5}) {
    for (bool cached : {false, true}) {
      CheckConservationEverywhere(PartitionAlgorithm::kBottomUp,
                                  static_cast<uint64_t>(fault_seed), cached);
    }
  }
}

}  // namespace
}  // namespace rstore

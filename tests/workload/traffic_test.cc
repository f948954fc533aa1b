// Tests for the deterministic traffic harness (workload/traffic.h): the
// generator's determinism and mix controls, the percentile math, and the
// contract the bench leans on — a closed loop with one query in flight
// reproduces the synchronous engine's report number for number.

#include <gtest/gtest.h>

#include <map>

#include "common/executor.h"
#include "core/rstore.h"
#include "kvstore/cluster.h"
#include "kvstore/memory_store.h"
#include "workload/dataset_generator.h"
#include "workload/traffic.h"

namespace rstore {
namespace workload {
namespace {

GeneratedDataset SmallDataset() {
  DatasetConfig config;
  config.name = "traffic_test";
  config.num_versions = 12;
  config.records_per_version = 40;
  config.update_fraction = 0.15;
  config.branch_probability = 0.1;
  config.seed = 404;
  return GenerateDataset(config);
}

TEST(TrafficTest, GenerationIsDeterministicGivenSeed) {
  GeneratedDataset gen = SmallDataset();
  TrafficOptions options;
  options.seed = 5;
  options.num_queries = 100;
  const std::vector<Query> a = GenerateTraffic(gen.dataset, options);
  const std::vector<Query> b = GenerateTraffic(gen.dataset, options);
  ASSERT_EQ(a.size(), 100u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].version, b[i].version);
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].key_lo, b[i].key_lo);
    EXPECT_EQ(a[i].key_hi, b[i].key_hi);
  }
  options.seed = 6;
  const std::vector<Query> c = GenerateTraffic(gen.dataset, options);
  bool differs = false;
  for (size_t i = 0; i < a.size() && !differs; ++i) {
    differs = a[i].kind != c[i].kind || a[i].version != c[i].version ||
              a[i].key != c[i].key;
  }
  EXPECT_TRUE(differs);
}

TEST(TrafficTest, MixWeightsAndZipfSkewShapeTheStream) {
  GeneratedDataset gen = SmallDataset();
  TrafficOptions options;
  options.num_queries = 400;
  std::map<Query::Kind, int> by_kind;
  std::map<VersionId, int> by_version;
  for (const Query& q : GenerateTraffic(gen.dataset, options)) {
    ++by_kind[q.kind];
    ++by_version[q.version];
    EXPECT_LT(q.version, gen.dataset.graph.size());
    if (q.kind == Query::Kind::kRange) {
      EXPECT_LE(q.key_lo, q.key_hi);
    }
  }
  // Every class appears, and the default point-heavy mix dominates.
  EXPECT_GT(by_kind[Query::Kind::kFullVersion], 0);
  EXPECT_GT(by_kind[Query::Kind::kRange], 0);
  EXPECT_GT(by_kind[Query::Kind::kEvolution], 0);
  EXPECT_GT(by_kind[Query::Kind::kPoint], by_kind[Query::Kind::kRange]);
  // Zipf rank 0 is the newest version: recent versions are the hot ones.
  const VersionId newest = gen.dataset.graph.size() - 1;
  EXPECT_GT(by_version[newest], static_cast<int>(400 / gen.dataset.graph.size()));

  // Weights of zero mute a class entirely.
  options.weight_full = 0;
  options.weight_evolution = 0;
  for (const Query& q : GenerateTraffic(gen.dataset, options)) {
    EXPECT_TRUE(q.kind == Query::Kind::kRange ||
                q.kind == Query::Kind::kPoint);
  }
}

TEST(TrafficTest, PercentileUsesNearestRank) {
  TrafficReport report;
  for (uint64_t v : {40, 10, 30, 20, 50, 60, 70, 80, 90, 100}) {
    report.latencies_us.push_back(v);
  }
  EXPECT_EQ(report.PercentileLatencyUs(50), 50u);
  EXPECT_EQ(report.PercentileLatencyUs(90), 90u);
  EXPECT_EQ(report.PercentileLatencyUs(99), 100u);
  EXPECT_EQ(report.PercentileLatencyUs(99.9), 100u);
  EXPECT_EQ(report.PercentileLatencyUs(1), 10u);

  TrafficReport empty;
  EXPECT_EQ(empty.PercentileLatencyUs(99), 0u);
  EXPECT_EQ(empty.throughput_qps(), 0.0);
}

TEST(TrafficTest, HashRecordsIsOrderAndContentSensitive) {
  Record a{CompositeKey("k1", 0), "payload-a"};
  Record b{CompositeKey("k2", 3), "payload-b"};
  EXPECT_EQ(HashRecords({a, b}), HashRecords({a, b}));
  EXPECT_NE(HashRecords({a, b}), HashRecords({b, a}));
  EXPECT_NE(HashRecords({a}), HashRecords({a, b}));
  Record a2 = a;
  a2.payload = "payload-A";
  EXPECT_NE(HashRecords({a}), HashRecords({a2}));
}

// The parity anchor: over the simulated cluster, a closed loop with one
// query in flight is the synchronous engine on a different substrate —
// identical results, identical per-query latencies, identical aggregate
// stats, identical makespan. bench_traffic's async_c1 series depends on it.
TEST(TrafficTest, ClosedLoopConcurrencyOneEqualsSyncReport) {
  GeneratedDataset gen = SmallDataset();
  Options options;
  options.chunk_capacity_bytes = 2048;
  ClusterOptions cluster_options;
  cluster_options.num_nodes = 6;
  Cluster cluster(cluster_options);
  auto store = RStore::Open(&cluster, options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(gen.dataset, gen.payloads).ok());

  TrafficOptions traffic;
  traffic.seed = 11;
  traffic.num_queries = 40;
  traffic.concurrency = 1;
  const std::vector<Query> queries = GenerateTraffic(gen.dataset, traffic);

  const TrafficReport sync = RunTrafficSync(store->get(), queries);
  ASSERT_GT(sync.completed, 0u);
  Executor executor;
  const TrafficReport async =
      RunTrafficAsync(store->get(), &executor, queries, traffic);
  EXPECT_EQ(async.completed, sync.completed);
  EXPECT_EQ(async.failed, sync.failed);
  EXPECT_EQ(async.result_hash, sync.result_hash);
  EXPECT_EQ(async.latencies_us, sync.latencies_us);
  EXPECT_EQ(async.makespan_us, sync.makespan_us);
  EXPECT_EQ(async.stats.chunks_fetched, sync.stats.chunks_fetched);
  EXPECT_EQ(async.stats.bytes_fetched, sync.stats.bytes_fetched);
  EXPECT_EQ(async.stats.simulated_micros, sync.stats.simulated_micros);

  // More in flight: same bytes and backend work, strictly less wall (the
  // virtual clock's "wall") time than one-at-a-time.
  traffic.concurrency = 8;
  const TrafficReport pipelined =
      RunTrafficAsync(store->get(), &executor, queries, traffic);
  EXPECT_EQ(pipelined.result_hash, sync.result_hash);
  EXPECT_EQ(pipelined.stats.chunks_fetched, sync.stats.chunks_fetched);
  EXPECT_LT(pipelined.makespan_us, sync.makespan_us);
}

// A failed query feeds its status to the fingerprint and nothing else, on
// both drivers: an unknown version, an inverted range and a point lookup at
// an unknown version fail alike, synchronously or not.
TEST(TrafficTest, FailedQueriesFingerprintAlikeSyncAndAsync) {
  GeneratedDataset gen = SmallDataset();
  Options options;
  options.chunk_capacity_bytes = 2048;
  Cluster cluster((ClusterOptions()));
  auto store = RStore::Open(&cluster, options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(gen.dataset, gen.payloads).ok());
  const std::string key = gen.dataset.deltas[0].added.front().key;
  const std::vector<Query> queries = {
      {.kind = Query::Kind::kFullVersion, .version = 1000},
      {.kind = Query::Kind::kRange, .version = 1, .key_lo = "z",
       .key_hi = "a"},
      {.kind = Query::Kind::kPoint, .version = 1000, .key = key},
      {.kind = Query::Kind::kEvolution, .key = key},
  };

  const TrafficReport sync = RunTrafficSync(store->get(), queries);
  EXPECT_EQ(sync.failed, 3u);
  EXPECT_EQ(sync.completed, 1u);
  TrafficOptions traffic;
  traffic.concurrency = 1;
  Executor executor;
  const TrafficReport async =
      RunTrafficAsync(store->get(), &executor, queries, traffic);
  EXPECT_EQ(async.failed, sync.failed);
  EXPECT_EQ(async.completed, sync.completed);
  EXPECT_EQ(async.result_hash, sync.result_hash);
}

TEST(TrafficTest, OpenLoopArrivalsFollowTheConfiguredInterval) {
  GeneratedDataset gen = SmallDataset();
  Options options;
  options.chunk_capacity_bytes = 2048;
  MemoryStore backend;
  auto store = RStore::Open(&backend, options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(gen.dataset, gen.payloads).ok());

  TrafficOptions traffic;
  traffic.num_queries = 20;
  traffic.arrival_interval_us = 500;
  const std::vector<Query> queries = GenerateTraffic(gen.dataset, traffic);
  Executor executor;
  const TrafficReport report =
      RunTrafficAsync(store->get(), &executor, queries, traffic);
  EXPECT_EQ(report.completed + report.failed, 20u);
  // Over the instantaneous MemoryStore bridge each arrival completes at its
  // arrival instant, so the makespan is exactly the last arrival offset.
  EXPECT_EQ(report.makespan_us, 19u * 500u);
}

}  // namespace
}  // namespace workload
}  // namespace rstore

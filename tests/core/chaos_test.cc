// Chaos equivalence harness: the repo's core availability property, run
// end-to-end. Under any seeded fault schedule in which every key retains at
// least one serving replica (rf=3 with at most two nodes crashed at once),
// strict-mode queries must return byte-identical results to a fault-free
// run — faults may cost simulated time, never correctness. And because every
// fault decision is a pure hash of (seed, node, tick, attempt, salt), the
// same seed must replay the identical retry/hedge/handoff counters.
//
// CI's chaos job sweeps this suite across seeds with
// `RSTORE_CHAOS_SEED=<n> ctest -L Chaos`; without the variable the suite
// covers seeds 1..5 in-process.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/executor.h"
#include "core/rstore.h"
#include "core_test_util.h"
#include "kvstore/cluster.h"
#include "workload/traffic.h"

namespace rstore {
namespace {

using testing::ExampleData;
using testing::MakeChain;
using testing::ReplayQueryWorkload;

constexpr uint64_t kWorkloadSeed = 42;

/// Transient errors, latency spikes and crash windows everywhere, plus
/// crash windows on exactly two of the five nodes — with rf=3, any key keeps
/// at least one serving replica at every tick.
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

ClusterOptions ChaosClusterOptions(uint64_t seed) {
  ClusterOptions o;
  o.num_nodes = 5;
  o.replication_factor = 3;
  o.latency.hedge_threshold_us = 3000;
  o.retry.max_attempts = 4;
  o.faults = ChaosSchedule(seed);
  return o;
}

struct ChaosRun {
  std::vector<std::string> results;
  KVStats kv;
  // FaultInjector's own per-kind tallies, captured before teardown.
  uint64_t transient_injected = 0;
  uint64_t slow_injected = 0;
  uint64_t crash_injected = 0;
};

/// Loads the chain dataset and replays the deterministic mixed query
/// workload, capturing canonical result bytes and the cluster's counters.
ChaosRun RunWorkload(const ClusterOptions& cluster_options) {
  ChaosRun out;
  Cluster cluster(cluster_options);
  ExampleData data = MakeChain(16, 12, 4);
  Options options;
  options.chunk_capacity_bytes = 700;
  auto store = RStore::Open(&cluster, options);
  EXPECT_TRUE(store.ok());
  if (!store.ok()) return out;
  EXPECT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());
  auto replay = ReplayQueryWorkload(store->get(), data.dataset, kWorkloadSeed);
  EXPECT_TRUE(replay.ok()) << replay.status().ToString();
  if (replay.ok()) out.results = std::move(replay->results);
  out.kv = cluster.stats();
  out.transient_injected = cluster.fault_injector().transient_errors_injected();
  out.slow_injected = cluster.fault_injector().slow_attempts_injected();
  out.crash_injected = cluster.fault_injector().crash_rejections_injected();
  return out;
}

/// RSTORE_CHAOS_SEED pins one seed (the CI sweep); default covers 1..5.
std::vector<uint64_t> ChaosSeeds() {
  if (const char* env = std::getenv("RSTORE_CHAOS_SEED")) {
    return {std::strtoull(env, nullptr, 10)};
  }
  return {1, 2, 3, 4, 5};
}

TEST(ChaosTest, StrictQueriesMatchFaultFreeRunByteForByte) {
  ClusterOptions clean;
  clean.num_nodes = 5;
  clean.replication_factor = 3;
  const ChaosRun baseline = RunWorkload(clean);
  ASSERT_FALSE(baseline.results.empty());
  EXPECT_EQ(baseline.kv.retries + baseline.kv.hedges + baseline.kv.timeouts +
                baseline.kv.handoff_hints,
            0u);

  for (uint64_t seed : ChaosSeeds()) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    const ChaosRun faulty = RunWorkload(ChaosClusterOptions(seed));
    ASSERT_EQ(faulty.results.size(), baseline.results.size());
    for (size_t i = 0; i < baseline.results.size(); ++i) {
      ASSERT_EQ(faulty.results[i], baseline.results[i]) << "query " << i;
    }
    // The schedule actually bit: the equivalence above wasn't vacuous.
    EXPECT_GT(faulty.kv.retries, 0u);
    EXPECT_GT(faulty.kv.handoff_hints, 0u);
    EXPECT_EQ(faulty.kv.handoff_replays, faulty.kv.handoff_hints);
    // Faults cost simulated time (retry round trips, backoff, spikes).
    EXPECT_GT(faulty.kv.simulated_micros, baseline.kv.simulated_micros);
  }
}

TEST(ChaosTest, SameSeedReplaysIdenticalFaultTimeline) {
  for (uint64_t seed : ChaosSeeds()) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    const ChaosRun a = RunWorkload(ChaosClusterOptions(seed));
    const ChaosRun b = RunWorkload(ChaosClusterOptions(seed));
    EXPECT_EQ(a.kv.retries, b.kv.retries);
    EXPECT_EQ(a.kv.hedges, b.kv.hedges);
    EXPECT_EQ(a.kv.hedge_wins, b.kv.hedge_wins);
    EXPECT_EQ(a.kv.timeouts, b.kv.timeouts);
    EXPECT_EQ(a.kv.handoff_hints, b.kv.handoff_hints);
    EXPECT_EQ(a.kv.handoff_replays, b.kv.handoff_replays);
    EXPECT_EQ(a.kv.simulated_micros, b.kv.simulated_micros);
    EXPECT_EQ(a.kv.gets, b.kv.gets);
    EXPECT_EQ(a.kv.multiget_batches, b.kv.multiget_batches);
    EXPECT_EQ(a.results, b.results);
  }
}

// The injector's per-kind tallies reconcile with what the coordinator did
// about them: nothing injected on a clean schedule, every enabled kind
// injected at least once under chaos, tallies deterministic per seed, and —
// the core reconciliation — every coordinator retry traces back to an
// injected transient error or crash rejection (the only two causes a retry
// can have), so retries can never exceed their sum.
TEST(ChaosTest, InjectedFaultCountersReconcileWithCoordinatorStats) {
  ClusterOptions clean;
  clean.num_nodes = 5;
  clean.replication_factor = 3;
  const ChaosRun baseline = RunWorkload(clean);
  EXPECT_EQ(baseline.transient_injected, 0u);
  EXPECT_EQ(baseline.slow_injected, 0u);
  EXPECT_EQ(baseline.crash_injected, 0u);

  for (uint64_t seed : ChaosSeeds()) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    const ChaosRun a = RunWorkload(ChaosClusterOptions(seed));
    EXPECT_GT(a.transient_injected, 0u);
    EXPECT_GT(a.slow_injected, 0u);
    EXPECT_GT(a.crash_injected, 0u);
    EXPECT_LE(a.kv.retries, a.transient_injected + a.crash_injected);
    const ChaosRun b = RunWorkload(ChaosClusterOptions(seed));
    EXPECT_EQ(a.transient_injected, b.transient_injected);
    EXPECT_EQ(a.slow_injected, b.slow_injected);
    EXPECT_EQ(a.crash_injected, b.crash_injected);
  }
}

/// Deterministic mixed traffic for the async chaos runs: enough in-flight
/// queries that batches genuinely overlap on the virtual timeline.
workload::TrafficOptions AsyncChaosTraffic() {
  workload::TrafficOptions t;
  t.seed = 7;
  t.num_queries = 60;
  t.concurrency = 8;
  return t;
}

struct AsyncChaosRun {
  workload::TrafficReport report;
  uint64_t sync_result_hash = 0;  // only when with_sync_baseline
  KVStats kv;
};

/// Loads the chain dataset and pushes the deterministic traffic through the
/// async engine with 8 queries in flight. A fresh cluster and executor per
/// run: one cluster is pinned to one executor (one virtual timeline).
AsyncChaosRun RunWorkloadAsync(const ClusterOptions& cluster_options,
                               uint64_t executor_seed,
                               bool with_sync_baseline = false) {
  AsyncChaosRun out;
  Cluster cluster(cluster_options);
  ExampleData data = MakeChain(16, 12, 4);
  Options options;
  options.chunk_capacity_bytes = 700;
  auto store = RStore::Open(&cluster, options);
  EXPECT_TRUE(store.ok());
  if (!store.ok()) return out;
  EXPECT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());
  const workload::TrafficOptions traffic = AsyncChaosTraffic();
  const std::vector<workload::Query> queries =
      workload::GenerateTraffic(data.dataset, traffic);
  if (with_sync_baseline) {
    out.sync_result_hash =
        workload::RunTrafficSync(store->get(), queries).result_hash;
  }
  Executor executor(executor_seed);
  out.report =
      workload::RunTrafficAsync(store->get(), &executor, queries, traffic);
  out.kv = cluster.stats();
  return out;
}

// The tentpole's availability contract, now with pipelining in the mix:
// whatever the fault schedule does to the timeline — retries, hedges,
// failovers, queueing behind recovering nodes — strict async results stay
// byte-identical to a fault-free run (which itself matches the sync engine).
TEST(ChaosTest, AsyncPipelinedQueriesMatchFaultFreeUnderChaos) {
  ClusterOptions clean;
  clean.num_nodes = 5;
  clean.replication_factor = 3;
  const AsyncChaosRun baseline =
      RunWorkloadAsync(clean, /*executor_seed=*/0, /*with_sync_baseline=*/true);
  ASSERT_EQ(baseline.report.failed, 0u);
  EXPECT_EQ(baseline.report.result_hash, baseline.sync_result_hash);
  EXPECT_EQ(baseline.kv.retries + baseline.kv.hedges + baseline.kv.timeouts +
                baseline.kv.handoff_hints,
            0u);

  for (uint64_t seed : ChaosSeeds()) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    const AsyncChaosRun faulty =
        RunWorkloadAsync(ChaosClusterOptions(seed), /*executor_seed=*/0);
    EXPECT_EQ(faulty.report.failed, 0u);
    EXPECT_EQ(faulty.report.result_hash, baseline.report.result_hash);
    // The schedule actually bit, and faults cost virtual time.
    EXPECT_GT(faulty.kv.retries, 0u);
    EXPECT_GT(faulty.kv.simulated_micros, baseline.kv.simulated_micros);
  }
}

// Same seed, same everything: the async engine's whole timeline — every
// per-query latency, every fault counter — replays identically. This is the
// property the deterministic executor exists to provide.
TEST(ChaosTest, AsyncSameSeedReplaysIdenticalTimeline) {
  for (uint64_t seed : ChaosSeeds()) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    const AsyncChaosRun a =
        RunWorkloadAsync(ChaosClusterOptions(seed), /*executor_seed=*/0);
    const AsyncChaosRun b =
        RunWorkloadAsync(ChaosClusterOptions(seed), /*executor_seed=*/0);
    EXPECT_EQ(a.report.latencies_us, b.report.latencies_us);
    EXPECT_EQ(a.report.makespan_us, b.report.makespan_us);
    EXPECT_EQ(a.report.result_hash, b.report.result_hash);
    EXPECT_EQ(a.kv.retries, b.kv.retries);
    EXPECT_EQ(a.kv.hedges, b.kv.hedges);
    EXPECT_EQ(a.kv.hedge_wins, b.kv.hedge_wins);
    EXPECT_EQ(a.kv.timeouts, b.kv.timeouts);
    EXPECT_EQ(a.kv.multiget_batches, b.kv.multiget_batches);
    EXPECT_EQ(a.kv.simulated_micros, b.kv.simulated_micros);
  }
}

// The executor's tie-break seed explores different interleavings of
// logically concurrent completions; none of them may change what any query
// returns, faults or no faults.
TEST(ChaosTest, AsyncResultsInvariantUnderSchedulerSeed) {
  const AsyncChaosRun fifo =
      RunWorkloadAsync(ChaosClusterOptions(ChaosSeeds().front()),
                       /*executor_seed=*/0);
  ASSERT_EQ(fifo.report.failed, 0u);
  for (uint64_t executor_seed : {1ull, 2ull}) {
    SCOPED_TRACE("executor seed " + std::to_string(executor_seed));
    const AsyncChaosRun shuffled = RunWorkloadAsync(
        ChaosClusterOptions(ChaosSeeds().front()), executor_seed);
    EXPECT_EQ(shuffled.report.failed, 0u);
    EXPECT_EQ(shuffled.report.result_hash, fifo.report.result_hash);
    EXPECT_EQ(shuffled.kv.bytes_read, fifo.kv.bytes_read);
  }
}

/// Loads the chain dataset through the ONLINE write path — per-version
/// commits draining in batches — against a faulty cluster, then replays the
/// query workload. `shards` > 1 fans sub-chunk carving and compression out
/// while every backend write still happens on this thread.
ChaosRun RunShardedIngestWorkload(const ClusterOptions& cluster_options,
                                  uint32_t shards) {
  ChaosRun out;
  Cluster cluster(cluster_options);
  ExampleData data = MakeChain(16, 12, 4);
  Options options;
  options.chunk_capacity_bytes = 700;
  options.online_batch_size = 4;
  options.ingest_shards = shards;
  auto store = RStore::Open(&cluster, options);
  EXPECT_TRUE(store.ok());
  if (!store.ok()) return out;
  for (VersionId v = 0; v < data.dataset.graph.size(); ++v) {
    CommitDelta delta;
    const VersionDelta& d = data.dataset.deltas[v];
    std::unordered_set<std::string> added;
    for (const CompositeKey& ck : d.added) {
      added.insert(ck.key);
      delta.upserts.push_back(Record{ck, data.payloads.at(ck)});
    }
    for (const CompositeKey& ck : d.removed) {
      if (!added.count(ck.key)) delta.deletes.push_back(ck.key);
    }
    VersionId parent =
        v == 0 ? kInvalidVersion : data.dataset.graph.PrimaryParent(v);
    auto r = (*store)->Commit(parent, std::move(delta));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return out;
  }
  EXPECT_TRUE((*store)->Flush().ok());
  auto replay = ReplayQueryWorkload(store->get(), data.dataset, kWorkloadSeed);
  EXPECT_TRUE(replay.ok()) << replay.status().ToString();
  if (replay.ok()) out.results = std::move(replay->results);
  out.kv = cluster.stats();
  return out;
}

// Ingest under faults: online commits drain with sharded sub-chunk builds
// while the cluster injects transient errors, latency spikes and crash
// windows under the writes themselves (hinted handoff on the write path).
// Strict queries over the result must match a fault-free SERIAL ingest byte
// for byte — the fault schedule may cost simulated time, never bytes.
TEST(ChaosTest, ShardedIngestUnderFaultsMatchesSerialFaultFree) {
  ClusterOptions clean;
  clean.num_nodes = 5;
  clean.replication_factor = 3;
  const ChaosRun baseline = RunShardedIngestWorkload(clean, /*shards=*/1);
  ASSERT_FALSE(baseline.results.empty());

  for (uint64_t seed : ChaosSeeds()) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    for (uint32_t shards : {1u, 4u}) {
      SCOPED_TRACE("shards " + std::to_string(shards));
      const ChaosRun faulty =
          RunShardedIngestWorkload(ChaosClusterOptions(seed), shards);
      ASSERT_EQ(faulty.results.size(), baseline.results.size());
      for (size_t i = 0; i < baseline.results.size(); ++i) {
        ASSERT_EQ(faulty.results[i], baseline.results[i]) << "query " << i;
      }
      // The schedule reached the write path: staged hints imply writes hit
      // crashed replicas mid-ingest.
      EXPECT_GT(faulty.kv.handoff_hints, 0u);
    }
    // Same seed, any shard count: the simulated write timeline is identical
    // because every backend write is issued from this thread in partition
    // order, regardless of how the carve workers were scheduled.
    const ChaosRun serial =
        RunShardedIngestWorkload(ChaosClusterOptions(seed), 1);
    const ChaosRun sharded =
        RunShardedIngestWorkload(ChaosClusterOptions(seed), 4);
    EXPECT_EQ(serial.kv.simulated_micros, sharded.kv.simulated_micros);
    EXPECT_EQ(serial.kv.retries, sharded.kv.retries);
    EXPECT_EQ(serial.kv.handoff_hints, sharded.kv.handoff_hints);
  }
}

TEST(ChaosTest, DifferentSeedsDivergeSomewhere) {
  // Guards against the injector accidentally ignoring its seed: across the
  // sweep, at least two seeds must produce different fault timelines (the
  // results still all match the baseline, per the equivalence test).
  std::vector<uint64_t> seeds = ChaosSeeds();
  if (seeds.size() < 2) {
    GTEST_SKIP() << "single-seed run (RSTORE_CHAOS_SEED set)";
  }
  bool diverged = false;
  ChaosRun first = RunWorkload(ChaosClusterOptions(seeds[0]));
  for (size_t i = 1; i < seeds.size() && !diverged; ++i) {
    ChaosRun other = RunWorkload(ChaosClusterOptions(seeds[i]));
    diverged = other.kv.retries != first.kv.retries ||
               other.kv.hedges != first.kv.hedges ||
               other.kv.simulated_micros != first.kv.simulated_micros;
  }
  EXPECT_TRUE(diverged);
}

}  // namespace
}  // namespace rstore

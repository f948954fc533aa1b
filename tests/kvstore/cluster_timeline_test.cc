// Virtual-timeline rules of the one batched-read engine: each Executor is
// its own timeline with its own per-node queues (a sync MultiGet drains a
// private one), a hedge joins its target's queue at the instant it is
// issued, and a strict abort completes a batch exactly once even while a
// hedged group still waits for its hedge instant.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/executor.h"
#include "kvstore/cluster.h"

namespace rstore {
namespace {

std::vector<std::string> LoadKeys(Cluster* cluster, int n) {
  EXPECT_TRUE(cluster->CreateTable("t").ok());
  std::vector<std::string> keys;
  for (int i = 0; i < n; ++i) {
    keys.push_back("key" + std::to_string(i));
    EXPECT_TRUE(cluster->Put("t", keys.back(), std::string(64, 'v')).ok());
  }
  return keys;
}

/// Submits one strict batch on `executor`; the result lands in `*out` when
/// the executor reaches the batch's completion instant.
void Submit(Cluster* cluster, Executor* executor,
            const std::vector<std::string>& keys, AsyncMultiGetResult* out) {
  cluster->MultiGetAsync(executor, "t", keys, /*partial=*/false, nullptr)
      .OnReady([out](const AsyncMultiGetResult& r) { *out = r; });
}

void ExpectSameCharge(const KVStats& a, const KVStats& b) {
  for (const KVStats::Field& field : kKVStatsFields) {
    EXPECT_EQ(a.*field.member, b.*field.member) << field.name;
  }
}

TEST(ClusterTimelineTest, HedgeQueuesFromItsIssueInstant) {
  // Node 0 serves 50x slow, so its group hedges to node 1 at 5000 us. Node
  // 1 finishes its own group long before that, so the hedge never waits
  // and node 1's group must not wait for the hedge either.
  ClusterOptions options;
  options.num_nodes = 2;
  options.replication_factor = 2;
  options.faults.per_node[0].slow_rate = 1.0;
  options.faults.per_node[0].slow_multiplier = 50.0;
  options.latency.hedge_threshold_us = 5000;
  Cluster cluster(options);
  const std::vector<std::string> keys = LoadKeys(&cluster, 24);

  cluster.ResetStats();
  std::map<std::string, std::string> out;
  ASSERT_TRUE(cluster.MultiGet("t", keys, &out).ok());
  const KVStats sync = cluster.stats();
  EXPECT_GT(sync.hedge_wins, 0u);
  EXPECT_EQ(sync.queue_wait_us, 0u);

  Executor executor;
  AsyncMultiGetResult async;
  Submit(&cluster, &executor, keys, &async);
  executor.RunUntilIdle();
  ASSERT_TRUE(async.status.ok()) << async.status.ToString();
  EXPECT_EQ(async.values, out);
  EXPECT_EQ(async.charge.queue_wait_us, 0u);
  ExpectSameCharge(async.charge, sync);
}

TEST(ClusterTimelineTest, ExecutorsKeepIndependentNodeQueues) {
  ClusterOptions options;
  options.num_nodes = 2;
  Cluster cluster(options);
  const std::vector<std::string> keys = LoadKeys(&cluster, 32);
  cluster.ResetStats();
  std::map<std::string, std::string> out;
  ASSERT_TRUE(cluster.MultiGet("t", keys, &out).ok());
  const KVStats alone = cluster.stats();

  // Two batches due at the same instant on one executor share its node
  // queues: the second waits for the first at every node.
  Executor shared;
  AsyncMultiGetResult first, second;
  Submit(&cluster, &shared, keys, &first);
  Submit(&cluster, &shared, keys, &second);
  shared.RunUntilIdle();
  ExpectSameCharge(first.charge, alone);
  EXPECT_GT(second.charge.queue_wait_us, 0u);
  EXPECT_GT(second.charge.simulated_micros, alone.simulated_micros);

  // The same two batches on two executors, both in flight at once: neither
  // waits for the other.
  Executor a, b;
  AsyncMultiGetResult on_a, on_b;
  Submit(&cluster, &a, keys, &on_a);
  Submit(&cluster, &b, keys, &on_b);
  a.RunUntilIdle();
  b.RunUntilIdle();
  ExpectSameCharge(on_a.charge, alone);
  ExpectSameCharge(on_b.charge, alone);
  EXPECT_EQ(on_b.values, out);
}

TEST(ClusterTimelineTest, ExecutorIdsAreNeverReused) {
  ClusterOptions options;
  options.num_nodes = 2;
  Cluster cluster(options);
  const std::vector<std::string> keys = LoadKeys(&cluster, 16);

  // Both executors live in the same storage, one after the other.
  std::optional<Executor> slot;
  slot.emplace();
  const Executor* first = &*slot;
  const uint64_t first_id = slot->id();
  AsyncMultiGetResult before;
  Submit(&cluster, &*slot, keys, &before);
  slot->RunUntilIdle();  // its node queues stay busy until the completion

  slot.emplace();
  EXPECT_EQ(&*slot, first);
  EXPECT_NE(slot->id(), first_id);
  // A new executor starts at virtual time 0 on idle nodes; inheriting the
  // first one's queues would make this batch wait.
  AsyncMultiGetResult after;
  Submit(&cluster, &*slot, keys, &after);
  slot->RunUntilIdle();
  EXPECT_EQ(after.charge.queue_wait_us, 0u);
  ExpectSameCharge(after.charge, before.charge);
}

TEST(ClusterTimelineTest, StrictAbortBeforeADeferredHedgeCompletesOnce) {
  // Nodes 1 and 2 fail every read, so a key on those two replicas exhausts
  // them at 1200 us and aborts the strict batch. Keys failing over from
  // them to node 0 (10x slow) queue behind node 0's own group; that group
  // hedges at the 1000 us threshold and resolves at its hedge instant, long
  // after the abort, where its keys time out with no replica left — a
  // second abort, had the step not checked for the first.
  ClusterOptions options;
  options.num_nodes = 3;
  options.replication_factor = 2;
  options.latency.hedge_threshold_us = 1000;
  options.retry.max_attempts = 1;
  options.retry.request_timeout_us = 15000;
  options.faults.per_node[0].slow_rate = 1.0;
  options.faults.per_node[0].slow_multiplier = 10.0;
  constexpr int kKeys = 48;
  for (uint32_t node : {1u, 2u}) {
    options.faults.per_node[node].transient_error_rate = 1.0;
    options.faults.per_node[node].active_from_tick = kKeys;  // after the load
  }
  Cluster cluster(options);
  const std::vector<std::string> keys = LoadKeys(&cluster, kKeys);

  Executor executor;
  int completions = 0;
  uint64_t completed_at_us = 0;
  AsyncMultiGetResult result;
  cluster.MultiGetAsync(&executor, "t", keys, /*partial=*/false, nullptr)
      .OnReady([&](const AsyncMultiGetResult& r) {
        ++completions;
        completed_at_us = executor.now_us();
        result = r;
      });
  executor.RunUntilIdle();
  EXPECT_EQ(completions, 1);
  EXPECT_TRUE(result.status.IsIOError()) << result.status.ToString();
  // The deferred hedge step ran after the batch had already completed.
  EXPECT_LT(completed_at_us, executor.now_us());
  // A strict failure charges nothing.
  EXPECT_EQ(cluster.stats().multiget_batches, 0u);
}

}  // namespace
}  // namespace rstore

#include "kvstore/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "kvstore/hash_ring.h"
#include "kvstore/latency_model.h"

namespace rstore {
namespace {

using Entries = std::vector<std::pair<std::string, std::string>>;

ClusterOptions FastOptions(uint32_t nodes, uint32_t rf = 1) {
  ClusterOptions o;
  o.num_nodes = nodes;
  o.replication_factor = rf;
  o.latency = ZeroLatencyModel();
  return o;
}

/// Default latency model, five nodes at rf = 3, and a fault schedule that
/// reaches the write path: transient errors (retries), slow attempts, and
/// crash windows on two nodes (hints), so every key keeps a serving
/// replica. A positive `timeout_us` also times slow attempts out.
ClusterOptions FaultyOptions(uint64_t seed, uint64_t timeout_us = 0) {
  ClusterOptions o;
  o.num_nodes = 5;
  o.replication_factor = 3;
  o.retry.max_attempts = 4;
  o.retry.request_timeout_us = timeout_us;
  o.faults.seed = seed;
  o.faults.default_profile.transient_error_rate = 0.2;
  o.faults.default_profile.slow_rate = 0.2;
  o.faults.default_profile.slow_multiplier = 30.0;
  o.faults.per_node[1] = o.faults.default_profile;
  o.faults.per_node[1].crash_windows = {{5, 25}};
  o.faults.per_node[3] = o.faults.default_profile;
  o.faults.per_node[3].crash_windows = {{15, 40}};
  return o;
}

/// `n` entries with distinct keys and values of varied sizes.
Entries MakeEntries(int n) {
  Entries entries;
  for (int i = 0; i < n; ++i) {
    entries.emplace_back("key" + std::to_string(i),
                         std::string(50 + 37 * static_cast<size_t>(i), 'v'));
  }
  return entries;
}

void ExpectSameStats(const KVStats& got, const KVStats& want) {
  for (const KVStats::Field& field : kKVStatsFields) {
    EXPECT_EQ(got.*field.member, want.*field.member) << field.name;
  }
}

/// Everything `node` holds in table "t": the other nodes are taken down
/// for a Scan, which then sees exactly this node's keys.
std::map<std::string, std::string> NodeContents(Cluster* cluster,
                                                uint32_t node) {
  for (uint32_t n = 0; n < cluster->num_nodes(); ++n) {
    if (n != node) cluster->SetNodeAlive(n, false);
  }
  std::map<std::string, std::string> contents;
  EXPECT_TRUE(cluster
                  ->Scan("t",
                         [&](Slice key, Slice value) {
                           contents[key.ToString()] = value.ToString();
                         })
                  .ok());
  for (uint32_t n = 0; n < cluster->num_nodes(); ++n) {
    cluster->SetNodeAlive(n, true);
  }
  return contents;
}

TEST(LatencyModelTest, NodeServiceCost) {
  LatencyModel m;
  m.request_overhead_us = 600;
  m.per_byte_ns = 50.0;
  m.node_concurrency = 1;
  EXPECT_EQ(m.NodeServiceMicros(0, 0), 0u);
  EXPECT_EQ(m.NodeServiceMicros(1, 0), 600u);
  // 1 request + 1 MB: 600us + 1e6 * 50ns = 600 + 50000 us.
  EXPECT_EQ(m.NodeServiceMicros(1, 1000000), 50600u);
  // Concurrency 4 divides elapsed time.
  m.node_concurrency = 4;
  EXPECT_EQ(m.NodeServiceMicros(4, 0), 600u);
}

TEST(ClusterTest, PutGetAcrossNodes) {
  Cluster cluster(FastOptions(4));
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  for (int i = 0; i < 100; ++i) {
    std::string k = "k" + std::to_string(i);
    ASSERT_TRUE(cluster.Put("t", k, "v" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 100; ++i) {
    std::string k = "k" + std::to_string(i);
    auto r = cluster.Get("t", k);
    ASSERT_TRUE(r.ok()) << k;
    EXPECT_EQ(*r, "v" + std::to_string(i));
  }
}

TEST(ClusterTest, DataIsSpreadAcrossNodes) {
  Cluster cluster(FastOptions(4));
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(
        cluster.Put("t", "key" + std::to_string(i), std::string(100, 'x'))
            .ok());
  }
  int nodes_with_data = 0;
  for (uint32_t n = 0; n < cluster.num_nodes(); ++n) {
    if (cluster.NodeBytes(n) > 0) ++nodes_with_data;
  }
  EXPECT_EQ(nodes_with_data, 4);
}

TEST(ClusterTest, MultiGetCollectsFromAllNodes) {
  Cluster cluster(FastOptions(8));
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  std::vector<std::string> keys;
  for (int i = 0; i < 200; ++i) {
    std::string k = "k" + std::to_string(i);
    keys.push_back(k);
    ASSERT_TRUE(cluster.Put("t", k, "value-" + k).ok());
  }
  keys.push_back("missing-key");
  std::map<std::string, std::string> out;
  ASSERT_TRUE(cluster.MultiGet("t", keys, &out).ok());
  EXPECT_EQ(out.size(), 200u);
  EXPECT_EQ(out["k42"], "value-k42");
}

TEST(ClusterTest, DeleteWorks) {
  Cluster cluster(FastOptions(3));
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  ASSERT_TRUE(cluster.Put("t", "k", "v").ok());
  ASSERT_TRUE(cluster.Delete("t", "k").ok());
  EXPECT_TRUE(cluster.Get("t", "k").status().IsNotFound());
}

TEST(ClusterTest, ScanVisitsEachKeyOnce) {
  Cluster cluster(FastOptions(4, /*rf=*/3));
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(cluster.Put("t", "k" + std::to_string(i), "v").ok());
  }
  std::map<std::string, int> seen;
  ASSERT_TRUE(
      cluster.Scan("t", [&](Slice key, Slice) { ++seen[key.ToString()]; })
          .ok());
  EXPECT_EQ(seen.size(), 300u);
  for (const auto& [key, count] : seen) {
    EXPECT_EQ(count, 1) << key;
  }
  EXPECT_EQ(*cluster.TableSize("t"), 300u);
}

TEST(ClusterTest, ReplicationSurvivesNodeFailure) {
  Cluster cluster(FastOptions(4, /*rf=*/3));
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(cluster.Put("t", "k" + std::to_string(i), "v").ok());
  }
  // Kill one node: every key still readable via replicas.
  cluster.SetNodeAlive(0, false);
  EXPECT_FALSE(cluster.IsNodeAlive(0));
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(cluster.Get("t", "k" + std::to_string(i)).ok()) << i;
  }
  // Kill a second node: rf=3 still covers every key.
  cluster.SetNodeAlive(1, false);
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(cluster.Get("t", "k" + std::to_string(i)).ok()) << i;
  }
}

TEST(ClusterTest, UnreplicatedDataLostOnFailure) {
  Cluster cluster(FastOptions(4, /*rf=*/1));
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(cluster.Put("t", "k" + std::to_string(i), "v").ok());
  }
  cluster.SetNodeAlive(2, false);
  int io_errors = 0;
  for (int i = 0; i < 200; ++i) {
    auto r = cluster.Get("t", "k" + std::to_string(i));
    if (!r.ok()) {
      EXPECT_TRUE(r.status().IsIOError());
      ++io_errors;
    }
  }
  // Roughly a quarter of the keys lived only on node 2.
  EXPECT_GT(io_errors, 20);
  EXPECT_LT(io_errors, 100);
}

TEST(ClusterTest, FailedNodeRecovers) {
  Cluster cluster(FastOptions(2, /*rf=*/2));
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  ASSERT_TRUE(cluster.Put("t", "k", "v1").ok());
  cluster.SetNodeAlive(0, false);
  // Write while node 0 is down: node 1 gets it directly, node 0 gets a
  // hinted-handoff entry replayed on recovery — so the recovered node never
  // serves the stale v1 (see ClusterFaultTest for the full handoff suite).
  ASSERT_TRUE(cluster.Put("t", "k", "v2").ok());
  cluster.SetNodeAlive(0, true);
  auto r = cluster.Get("t", "k");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "v2");
}

TEST(ClusterTest, SimulatedLatencyCharged) {
  ClusterOptions o;
  o.num_nodes = 2;
  o.latency.request_overhead_us = 1000;
  o.latency.coordinator_overhead_us = 500;
  o.latency.per_byte_ns = 0;
  o.latency.node_concurrency = 1;
  Cluster cluster(o);
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  ASSERT_TRUE(cluster.Put("t", "k", "v").ok());
  uint64_t after_put = cluster.stats().simulated_micros;
  EXPECT_EQ(after_put, 1500u);
  (void)cluster.Get("t", "k");
  EXPECT_EQ(cluster.stats().simulated_micros, 3000u);
}

TEST(ClusterTest, MultiGetLatencyIsMaxOverNodesNotSum) {
  // 100 keys spread over 4 nodes with 1ms per request: serial would be
  // 100ms; parallel-across-nodes should be roughly max-per-node (~25-40
  // requests) * 1ms.
  ClusterOptions o;
  o.num_nodes = 4;
  o.latency.request_overhead_us = 1000;
  o.latency.coordinator_overhead_us = 0;
  o.latency.per_byte_ns = 0;
  o.latency.node_concurrency = 1;
  Cluster cluster(o);
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  std::vector<std::string> keys;
  for (int i = 0; i < 100; ++i) {
    std::string k = "k" + std::to_string(i);
    keys.push_back(k);
    ASSERT_TRUE(cluster.Put("t", k, "v").ok());
  }
  cluster.ResetStats();
  std::map<std::string, std::string> out;
  ASSERT_TRUE(cluster.MultiGet("t", keys, &out).ok());
  uint64_t us = cluster.stats().simulated_micros;
  EXPECT_LT(us, 60000u);   // far below the 100ms serial bound
  EXPECT_GE(us, 25000u);   // at least the perfectly-balanced share
}

TEST(ClusterTest, WriteBatchLatencyIsMaxOverNodesNotSum) {
  // A write batch is one coordinator operation charged by the MultiGet
  // rule: one coordinator overhead plus the busiest node's service for its
  // share (every replica of every entry placed on it, with its bytes).
  ClusterOptions o;
  o.num_nodes = 4;
  o.replication_factor = 2;
  Cluster cluster(o);
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  const Entries entries = MakeEntries(100);
  const HashRing ring(o.num_nodes, o.virtual_nodes_per_node, o.ring_seed);
  std::vector<uint64_t> keys(o.num_nodes, 0);
  std::vector<uint64_t> bytes(o.num_nodes, 0);
  for (const auto& [key, value] : entries) {
    for (uint32_t node : ring.Replicas(key, o.replication_factor)) {
      ++keys[node];
      bytes[node] += value.size();
    }
  }
  uint64_t slowest_us = 0;
  for (uint32_t node = 0; node < o.num_nodes; ++node) {
    slowest_us = std::max(slowest_us,
                          o.latency.NodeServiceMicros(keys[node], bytes[node]));
  }
  ASSERT_TRUE(cluster.WriteBatch("t", entries).ok());
  const KVStats batch = cluster.stats();
  EXPECT_EQ(batch.simulated_micros,
            o.latency.coordinator_overhead_us + slowest_us);
  EXPECT_EQ(batch.service_us, batch.simulated_micros);
  EXPECT_EQ(batch.puts, entries.size());

  // The same writes as Puts pay one coordinator round trip each, and no
  // node serves two of them at once.
  Cluster serial(o);
  ASSERT_TRUE(serial.CreateTable("t").ok());
  for (const auto& [key, value] : entries) {
    ASSERT_TRUE(serial.Put("t", key, value).ok());
  }
  EXPECT_EQ(serial.stats().bytes_written, batch.bytes_written);
  EXPECT_LT(batch.simulated_micros * 3, serial.stats().simulated_micros);
}

TEST(ClusterTest, OneEntryWriteBatchChargesExactlyAPut) {
  // Put is a one-entry batch: the same KVStats deltas, field by field, with
  // and without faults (retries, slow attempts, timeouts, crash windows).
  for (const bool faulty : {false, true}) {
    SCOPED_TRACE(faulty ? "faulty" : "fault-free");
    const ClusterOptions o =
        faulty ? FaultyOptions(7, /*timeout_us=*/3000) : ClusterOptions{};
    Cluster put(o);
    Cluster batch(o);
    ASSERT_TRUE(put.CreateTable("t").ok());
    ASSERT_TRUE(batch.CreateTable("t").ok());
    for (const auto& [key, value] : MakeEntries(60)) {
      const KVStats put0 = put.stats();
      const KVStats batch0 = batch.stats();
      const Status put_status = put.Put("t", key, value);
      const Status batch_status = batch.WriteBatch("t", {{key, value}});
      EXPECT_EQ(batch_status.ToString(), put_status.ToString()) << key;
      ExpectSameStats(KVStats::Delta(batch.stats(), batch0),
                      KVStats::Delta(put.stats(), put0));
    }
    if (faulty) {
      EXPECT_GT(put.stats().retries, 0u);
      EXPECT_GT(put.stats().timeouts, 0u);
      EXPECT_GT(put.stats().handoff_hints, 0u);
    }
  }
}

TEST(ClusterTest, WriteBatchDrawsTheFaultStreamsOfAPutLoop) {
  // One fault tick per entry, in entry order, with the Put's attempt
  // chains: the batch retries, hints and times out exactly as the loop.
  for (const uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ClusterOptions o = FaultyOptions(seed);
    const Entries entries = MakeEntries(60);
    Cluster loop(o);
    Cluster batch(o);
    ASSERT_TRUE(loop.CreateTable("t").ok());
    ASSERT_TRUE(batch.CreateTable("t").ok());
    for (const auto& [key, value] : entries) {
      ASSERT_TRUE(loop.Put("t", key, value).ok());
    }
    ASSERT_TRUE(batch.WriteBatch("t", entries).ok());
    const KVStats want = loop.stats();
    const KVStats got = batch.stats();
    EXPECT_GT(want.retries, 0u);
    EXPECT_GT(want.handoff_hints, 0u);
    EXPECT_EQ(got.retries, want.retries);
    EXPECT_EQ(got.handoff_hints, want.handoff_hints);
    EXPECT_EQ(got.timeouts, want.timeouts);
    EXPECT_EQ(got.puts, want.puts);
    EXPECT_EQ(got.bytes_written, want.bytes_written);
    EXPECT_EQ(batch.fault_injector().CurrentTick(),
              loop.fault_injector().CurrentTick());
    EXPECT_LT(got.simulated_micros, want.simulated_micros);
  }
}

TEST(ClusterTest, WriteBatchNodeContentsMatchPutLoop) {
  for (const uint32_t rf : {1u, 2u}) {
    SCOPED_TRACE("rf " + std::to_string(rf));
    Entries entries = MakeEntries(80);
    entries.emplace_back("key3", "overwritten later in the batch");
    Cluster loop(FastOptions(4, rf));
    Cluster batch(FastOptions(4, rf));
    ASSERT_TRUE(loop.CreateTable("t").ok());
    ASSERT_TRUE(batch.CreateTable("t").ok());
    for (const auto& [key, value] : entries) {
      ASSERT_TRUE(loop.Put("t", key, value).ok());
    }
    ASSERT_TRUE(batch.WriteBatch("t", entries).ok());
    size_t held = 0;
    for (uint32_t node = 0; node < 4; ++node) {
      const auto want = NodeContents(&loop, node);
      EXPECT_EQ(NodeContents(&batch, node), want) << "node " << node;
      EXPECT_EQ(batch.NodeBytes(node), loop.NodeBytes(node));
      held += want.size();
    }
    EXPECT_EQ(held, rf * (entries.size() - 1));
  }
}

TEST(ClusterTest, WriteBatchHintsADownReplicaAndReplaysItOnRecovery) {
  Cluster cluster(FastOptions(2, /*rf=*/2));
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  const Entries entries = MakeEntries(5);
  cluster.SetNodeAlive(0, false);
  ASSERT_TRUE(cluster.WriteBatch("t", entries).ok());
  EXPECT_EQ(cluster.PendingHints(0), entries.size());
  EXPECT_EQ(cluster.stats().handoff_hints, entries.size());

  cluster.SetNodeAlive(0, true);  // replays the hints synchronously
  EXPECT_EQ(cluster.PendingHints(0), 0u);
  EXPECT_EQ(cluster.stats().handoff_replays, entries.size());
  cluster.SetNodeAlive(1, false);  // force reads onto the recovered node
  for (const auto& [key, value] : entries) {
    auto r = cluster.Get("t", key);
    ASSERT_TRUE(r.ok()) << key;
    EXPECT_EQ(*r, value);
  }
}

TEST(ClusterTest, WriteBatchEntryWithAllReplicasDownIsIOError) {
  ClusterOptions o = FastOptions(2);
  Cluster cluster(o);
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  // Two keys on node 0 around one on node 1, which is down.
  const HashRing ring(o.num_nodes, o.virtual_nodes_per_node, o.ring_seed);
  std::vector<std::string> on_node[2];
  for (int i = 0; on_node[0].size() < 2 || on_node[1].empty(); ++i) {
    const std::string key = "k" + std::to_string(i);
    on_node[ring.Replicas(key, 1).front()].push_back(key);
  }
  cluster.SetNodeAlive(1, false);
  const Status s = cluster.WriteBatch("t", {{on_node[0][0], "before"},
                                            {on_node[1][0], "lost"},
                                            {on_node[0][1], "after"}});
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  // The batch stopped at the failed entry: the entry before it landed and
  // is charged, the one after it was never sent, and no hint promises the
  // failed write.
  EXPECT_EQ(cluster.stats().puts, 1u);
  EXPECT_EQ(cluster.PendingHints(1), 0u);
  auto before = cluster.Get("t", on_node[0][0]);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(*before, "before");
  EXPECT_TRUE(cluster.Get("t", on_node[0][1]).status().IsNotFound());
}

TEST(ClusterTest, WriteBatchAttributionReconcilesWithSimulatedTime) {
  // queue + service + retry - hedge == simulated for every batch, fault-free
  // and under retries, slow attempts, timeouts and crash windows.
  for (const bool faulty : {false, true}) {
    SCOPED_TRACE(faulty ? "faulty" : "fault-free");
    const ClusterOptions o =
        faulty ? FaultyOptions(11, /*timeout_us=*/3000) : ClusterOptions{};
    Cluster cluster(o);
    ASSERT_TRUE(cluster.CreateTable("t").ok());
    const Entries entries = MakeEntries(40);
    for (size_t size = 1; size <= 12; ++size) {
      const Entries batch(entries.begin(),
                          entries.begin() + static_cast<ptrdiff_t>(size));
      const KVStats before = cluster.stats();
      (void)cluster.WriteBatch("t", batch);
      const KVStats d = KVStats::Delta(cluster.stats(), before);
      EXPECT_TRUE(d.Balanced()) << "batch of " << size;
    }
    if (faulty) {
      EXPECT_GT(cluster.stats().retry_penalty_us, 0u);
    }
  }
}

TEST(ClusterTest, StatsAccumulate) {
  Cluster cluster(FastOptions(2));
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  ASSERT_TRUE(cluster.Put("t", "key", "12345").ok());
  (void)cluster.Get("t", "key");
  std::map<std::string, std::string> out;
  (void)cluster.MultiGet("t", {"key"}, &out);
  KVStats s = cluster.stats();
  EXPECT_EQ(s.puts, 1u);
  EXPECT_EQ(s.gets, 1u);
  EXPECT_EQ(s.multiget_batches, 1u);
  EXPECT_EQ(s.keys_requested, 2u);
  EXPECT_EQ(s.bytes_read, 10u);
  EXPECT_EQ(s.bytes_written, 8u);
}

TEST(ClusterTest, AllReplicasDownIsIOError) {
  Cluster cluster(FastOptions(1));
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  ASSERT_TRUE(cluster.Put("t", "k", "v").ok());
  cluster.SetNodeAlive(0, false);
  EXPECT_TRUE(cluster.Get("t", "k").status().IsIOError());
  EXPECT_TRUE(cluster.Put("t", "k", "v").IsIOError());
  std::map<std::string, std::string> out;
  EXPECT_TRUE(cluster.MultiGet("t", {"k"}, &out).IsIOError());
}

class ClusterSizeTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ClusterSizeTest, AllKeysReachableAtAnyClusterSize) {
  Cluster cluster(FastOptions(GetParam()));
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(cluster.Put("t", "k" + std::to_string(i),
                            std::to_string(i * 7))
                    .ok());
  }
  for (int i = 0; i < 500; ++i) {
    auto r = cluster.Get("t", "k" + std::to_string(i));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, std::to_string(i * 7));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ClusterSizeTest,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

}  // namespace
}  // namespace rstore

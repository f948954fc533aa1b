// Coordinator fault tolerance: deterministic retries, hedged reads,
// simulated-deadline timeouts, and hinted handoff. Everything here replays —
// the same ClusterOptions produce the same counters and the same simulated
// micros run after run, which is what makes the chaos CI sweep meaningful.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "kvstore/cluster.h"
#include "kvstore/latency_model.h"

namespace rstore {
namespace {

ClusterOptions FastFaultOptions(uint32_t nodes, uint32_t rf) {
  ClusterOptions o;
  o.num_nodes = nodes;
  o.replication_factor = rf;
  o.latency = ZeroLatencyModel();
  return o;
}

// ---------------------------------------------------------------------------
// Retries.

KVStats RunTransientErrorWorkload(const ClusterOptions& options) {
  Cluster cluster(options);
  EXPECT_TRUE(cluster.CreateTable("t").ok());
  std::vector<std::string> keys;
  for (int i = 0; i < 50; ++i) {
    keys.push_back("k" + std::to_string(i));
    EXPECT_TRUE(cluster.Put("t", keys.back(), "value" + std::to_string(i)).ok());
  }
  std::map<std::string, std::string> out;
  EXPECT_TRUE(cluster.MultiGet("t", keys, &out).ok());
  EXPECT_EQ(out.size(), keys.size());
  for (int i = 0; i < 50; ++i) {
    auto r = cluster.Get("t", keys[static_cast<size_t>(i)]);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(*r, "value" + std::to_string(i));
  }
  return cluster.stats();
}

TEST(ClusterFaultTest, TransientErrorsAreRetriedDeterministically) {
  ClusterOptions options = FastFaultOptions(2, 2);
  options.faults.default_profile.transient_error_rate = 0.3;
  options.retry.max_attempts = 5;

  const KVStats a = RunTransientErrorWorkload(options);
  EXPECT_GT(a.retries, 0u);
  // Backoff between attempts is charged to the simulated clock even under a
  // zero-cost latency model.
  EXPECT_GT(a.simulated_micros, 0u);

  // Same schedule, same timeline: every counter replays exactly.
  const KVStats b = RunTransientErrorWorkload(options);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.simulated_micros, b.simulated_micros);

  // A different seed is a different timeline.
  options.faults.seed ^= 0x5EEDull;
  const KVStats c = RunTransientErrorWorkload(options);
  EXPECT_TRUE(a.retries != c.retries ||
              a.simulated_micros != c.simulated_micros);
}

TEST(ClusterFaultTest, RetryBackoffReconcilesWithSimulatedClock) {
  ClusterOptions options;
  options.num_nodes = 2;
  options.replication_factor = 2;
  options.faults.per_node[0].transient_error_rate = 1.0;  // node 0 always errs
  options.retry.max_attempts = 2;
  options.retry.base_backoff_us = 500;
  options.retry.jitter_fraction = 0.0;
  Cluster cluster(options);
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  const std::string value(32, 'x');
  for (int i = 0; i < 10; ++i) {
    // Writes to node 0 exhaust their attempts and fall back to a hint, which
    // replays at the next operation (node 0 is up, just flaky).
    ASSERT_TRUE(cluster.Put("t", "k" + std::to_string(i), value).ok());
  }

  const LatencyModel& m = options.latency;
  const uint64_t service_us = m.NodeServiceMicros(1, value.size());
  // A key whose primary replica is node 0 exhausts two attempts (each costs
  // the 600 us round trip, with a flat 500 us backoff between them), then
  // fails over; one whose primary is node 1 is served directly.
  const uint64_t exhaust_us = m.request_overhead_us + 500 +
                              m.request_overhead_us;
  int with_failover = 0, direct = 0;
  for (int i = 0; i < 10; ++i) {
    const KVStats before = cluster.stats();
    auto r = cluster.Get("t", "k" + std::to_string(i));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, value);
    const KVStats after = cluster.stats();
    const uint64_t charged = after.simulated_micros - before.simulated_micros;
    if (after.retries > before.retries) {
      ++with_failover;
      EXPECT_EQ(after.retries - before.retries, 1u);
      EXPECT_EQ(charged, m.coordinator_overhead_us + exhaust_us + service_us);
    } else {
      ++direct;
      EXPECT_EQ(charged, m.coordinator_overhead_us + service_us);
    }
  }
  // The ring spreads keys over both nodes, so both paths are exercised.
  EXPECT_GT(with_failover, 0);
  EXPECT_GT(direct, 0);
}

// ---------------------------------------------------------------------------
// Hedged reads.

TEST(ClusterFaultTest, HedgedReadsWinAgainstASlowReplica) {
  ClusterOptions options;
  options.num_nodes = 2;
  options.replication_factor = 2;
  options.faults.per_node[0].slow_rate = 1.0;
  options.faults.per_node[0].slow_multiplier = 50.0;
  options.latency.hedge_threshold_us = 5000;
  Cluster hedged(options);
  ClusterOptions no_hedge = options;
  no_hedge.latency.hedge_threshold_us = 0;
  Cluster unhedged(no_hedge);

  ASSERT_TRUE(hedged.CreateTable("t").ok());
  ASSERT_TRUE(unhedged.CreateTable("t").ok());
  std::vector<std::string> keys;
  const std::string value(64, 'v');
  for (int i = 0; i < 24; ++i) {
    keys.push_back("key" + std::to_string(i));
    ASSERT_TRUE(hedged.Put("t", keys.back(), value).ok());
    ASSERT_TRUE(unhedged.Put("t", keys.back(), value).ok());
  }
  hedged.ResetStats();
  unhedged.ResetStats();

  std::map<std::string, std::string> out;
  ASSERT_TRUE(hedged.MultiGet("t", keys, &out).ok());
  EXPECT_EQ(out.size(), keys.size());
  std::map<std::string, std::string> out2;
  ASSERT_TRUE(unhedged.MultiGet("t", keys, &out2).ok());
  EXPECT_EQ(out, out2);  // hedging never changes results, only latency

  const KVStats h = hedged.stats();
  EXPECT_GT(h.hedges, 0u);
  EXPECT_GT(h.hedge_wins, 0u);
  EXPECT_EQ(unhedged.stats().hedges, 0u);
  // The winning hedge bounds the batch by the healthy replica's service
  // time, so the hedged batch is strictly cheaper.
  EXPECT_LT(h.simulated_micros, unhedged.stats().simulated_micros);
}

// ---------------------------------------------------------------------------
// Timeouts.

TEST(ClusterFaultTest, TimedOutRequestsFailOverToTheNextReplica) {
  ClusterOptions options;
  options.num_nodes = 2;
  options.replication_factor = 2;
  options.faults.per_node[0].slow_rate = 1.0;
  options.faults.per_node[0].slow_multiplier = 100.0;
  options.retry.request_timeout_us = 20'000;
  Cluster cluster(options);
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  std::vector<std::string> keys;
  for (int i = 0; i < 24; ++i) {
    keys.push_back("key" + std::to_string(i));
    ASSERT_TRUE(cluster.Put("t", keys.back(), std::string(64, 'v')).ok());
  }
  std::map<std::string, std::string> out;
  ASSERT_TRUE(cluster.MultiGet("t", keys, &out).ok());
  // Every key is served despite the slow replica: the coordinator abandons
  // node 0's share at the deadline and retries it on node 1.
  EXPECT_EQ(out.size(), keys.size());
  const KVStats stats = cluster.stats();
  EXPECT_GT(stats.timeouts, 0u);
}

// ---------------------------------------------------------------------------
// One read engine.

/// What reading eight 4,000-byte keys costs, each key on a fresh cluster
/// holding only it: with Get when `point`, else as a one-key MultiGet.
KVStats EightLoneReads(const ClusterOptions& options, bool point) {
  KVStats total;
  for (int i = 0; i < 8; ++i) {
    Cluster cluster(options);
    EXPECT_TRUE(cluster.CreateTable("t").ok());
    const std::string key = "key" + std::to_string(i);
    const std::string value(4000, static_cast<char>('a' + i));
    EXPECT_TRUE(cluster.Put("t", key, value).ok());
    const KVStats before = cluster.stats();
    std::string got;
    if (point) {
      auto r = cluster.Get("t", key);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (r.ok()) got = *r;
    } else {
      std::map<std::string, std::string> out;
      EXPECT_TRUE(cluster.MultiGet("t", {key}, &out).ok());
      got = out[key];
    }
    EXPECT_EQ(got, value);
    total += KVStats::Delta(cluster.stats(), before);
  }
  return total;
}

TEST(ClusterFaultTest, GetChargesLikeAOneKeyMultiGet) {
  // A point read runs on the batch engine, so its retries, deadline,
  // failover and hedging charge exactly what a one-key batch's do.
  ClusterOptions fault_free;
  fault_free.num_nodes = 2;
  fault_free.replication_factor = 2;
  ClusterOptions flaky = fault_free;  // node 0 always errs
  flaky.faults.per_node[0].transient_error_rate = 1.0;
  flaky.retry.max_attempts = 3;
  flaky.retry.base_backoff_us = 2000;
  flaky.retry.jitter_fraction = 0.0;
  flaky.retry.request_timeout_us = 3000;
  ClusterOptions slow = fault_free;  // node 0 is 50x slow
  slow.faults.per_node[0].slow_rate = 1.0;
  slow.faults.per_node[0].slow_multiplier = 50.0;
  slow.latency.hedge_threshold_us = 5000;

  const std::pair<const char*, ClusterOptions> configs[] = {
      {"fault-free", fault_free}, {"flaky", flaky}, {"slow", slow}};
  for (const auto& [name, options] : configs) {
    SCOPED_TRACE(name);
    const KVStats gets = EightLoneReads(options, /*point=*/true);
    const KVStats batches = EightLoneReads(options, /*point=*/false);
    EXPECT_EQ(gets.gets, 8u);
    EXPECT_EQ(gets.multiget_batches, 0u);
    EXPECT_EQ(batches.gets, 0u);
    EXPECT_EQ(batches.multiget_batches, 8u);
    for (const KVStats::Field& field : kKVStatsFields) {
      if (field.member == &KVStats::gets ||
          field.member == &KVStats::multiget_batches) {
        continue;
      }
      EXPECT_EQ(gets.*field.member, batches.*field.member) << field.name;
    }
  }
}

// ---------------------------------------------------------------------------
// Hinted handoff.

// Regression: before hinted handoff, a write issued while a replica was down
// was silently lost on that replica — after recovery it could serve the
// stale value. The hint queue heals the replica, so the recovered node must
// serve the newest write.
TEST(ClusterFaultTest, HintedHandoffHealsSilentWriteLoss) {
  Cluster cluster(FastFaultOptions(2, 2));
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  ASSERT_TRUE(cluster.Put("t", "k", "v1").ok());

  cluster.SetNodeAlive(0, false);
  ASSERT_TRUE(cluster.Put("t", "k", "v2").ok());
  EXPECT_EQ(cluster.PendingHints(0), 1u);

  cluster.SetNodeAlive(0, true);  // replays the hint synchronously
  EXPECT_EQ(cluster.PendingHints(0), 0u);

  cluster.SetNodeAlive(1, false);  // force reads onto the recovered node
  auto r = cluster.Get("t", "k");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "v2");

  const KVStats stats = cluster.stats();
  EXPECT_EQ(stats.handoff_hints, 1u);
  EXPECT_EQ(stats.handoff_replays, 1u);
}

TEST(ClusterFaultTest, DeleteHintsReplayOnRecovery) {
  Cluster cluster(FastFaultOptions(2, 2));
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  ASSERT_TRUE(cluster.Put("t", "k", "v1").ok());

  cluster.SetNodeAlive(0, false);
  ASSERT_TRUE(cluster.Delete("t", "k").ok());
  EXPECT_EQ(cluster.PendingHints(0), 1u);

  cluster.SetNodeAlive(0, true);
  cluster.SetNodeAlive(1, false);
  EXPECT_TRUE(cluster.Get("t", "k").status().IsNotFound());
}

TEST(ClusterFaultTest, HintsAreDroppedWhenTheWholeWriteFails) {
  Cluster cluster(FastFaultOptions(1, 1));
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  cluster.SetNodeAlive(0, false);
  Status s = cluster.Put("t", "k", "v");
  EXPECT_TRUE(s.IsIOError());
  // A hint is a promise about a write that succeeded somewhere; a write that
  // succeeded nowhere must not resurrect later.
  EXPECT_EQ(cluster.PendingHints(0), 0u);
  cluster.SetNodeAlive(0, true);
  EXPECT_TRUE(cluster.Get("t", "k").status().IsNotFound());
}

TEST(ClusterFaultTest, CrashWindowIsBackfilledAfterItCloses) {
  ClusterOptions options = FastFaultOptions(2, 2);
  options.faults.per_node[0].crash_windows = {{2, 4}};  // ticks 2 and 3
  Cluster cluster(options);
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  ASSERT_TRUE(cluster.Put("t", "k", "v1").ok());  // tick 0
  ASSERT_TRUE(cluster.Put("t", "k", "v2").ok());  // tick 1
  ASSERT_TRUE(cluster.Put("t", "k", "v3").ok());  // tick 2: node 0 crashed
  EXPECT_EQ(cluster.PendingHints(0), 1u);

  auto r = cluster.Get("t", "k");  // tick 3: still crashed, replica serves
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "v3");
  EXPECT_EQ(cluster.PendingHints(0), 1u);

  r = cluster.Get("t", "k");  // tick 4: window over, hint replays first
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "v3");
  EXPECT_EQ(cluster.PendingHints(0), 0u);

  cluster.SetNodeAlive(1, false);
  r = cluster.Get("t", "k");  // served by the backfilled node 0
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "v3");
  EXPECT_EQ(cluster.stats().handoff_replays, 1u);
}

// ---------------------------------------------------------------------------
// Partial reads and scans over dead nodes.

TEST(ClusterFaultTest, MultiGetPartialReportsUnavailableKeys) {
  Cluster cluster(FastFaultOptions(4, 1));
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  std::vector<std::string> keys;
  for (int i = 0; i < 100; ++i) {
    keys.push_back("k" + std::to_string(i));
    ASSERT_TRUE(cluster.Put("t", keys.back(), "value" + std::to_string(i)).ok());
  }
  cluster.SetNodeAlive(2, false);

  // Strict MultiGet fails the whole batch.
  std::map<std::string, std::string> strict_out;
  EXPECT_TRUE(cluster.MultiGet("t", keys, &strict_out).IsIOError());

  // Partial mode serves what it can and reports the rest, key by key.
  std::map<std::string, std::string> out;
  std::vector<KeyReadFailure> failures;
  ASSERT_TRUE(cluster.MultiGetPartial("t", keys, &out, &failures,
                                      /*trace=*/nullptr).ok());
  EXPECT_FALSE(out.empty());
  EXPECT_FALSE(failures.empty());
  EXPECT_EQ(out.size() + failures.size(), keys.size());
  std::set<std::string> failed_keys;
  for (const KeyReadFailure& f : failures) {
    EXPECT_TRUE(f.status.IsIOError()) << f.status.ToString();
    EXPECT_EQ(out.count(f.key), 0u);
    failed_keys.insert(f.key);
  }
  EXPECT_EQ(failed_keys.size(), failures.size());
  for (const auto& [key, value] : out) {
    EXPECT_EQ(value, "value" + key.substr(1));
  }

  // The reported keys are exactly the dead node's: all of them serve again
  // once it returns.
  cluster.SetNodeAlive(2, true);
  for (const std::string& key : failed_keys) {
    auto r = cluster.Get("t", key);
    ASSERT_TRUE(r.ok()) << key;
    EXPECT_EQ(*r, "value" + key.substr(1));
  }
}

TEST(ClusterFaultTest, ScanSkipsKeysWithNoServingReplica) {
  Cluster cluster(FastFaultOptions(4, 1));
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  std::vector<std::string> keys;
  for (int i = 0; i < 100; ++i) {
    keys.push_back("k" + std::to_string(i));
    ASSERT_TRUE(cluster.Put("t", keys.back(), "v").ok());
  }
  cluster.SetNodeAlive(2, false);
  std::map<std::string, std::string> out;
  std::vector<KeyReadFailure> failures;
  ASSERT_TRUE(cluster.MultiGetPartial("t", keys, &out, &failures,
                                      /*trace=*/nullptr).ok());
  // An unreplicated scan over a dead node degrades exactly like a partial
  // read: it reports the keys the cluster can currently see, once each.
  std::set<std::string> scanned;
  ASSERT_TRUE(cluster.Scan("t", [&](Slice key, Slice) {
    EXPECT_TRUE(scanned.insert(key.ToString()).second);
  }).ok());
  EXPECT_EQ(scanned.size(), out.size());
  EXPECT_LT(scanned.size(), keys.size());
  for (const auto& [key, value] : out) EXPECT_EQ(scanned.count(key), 1u);
}

TEST(ClusterFaultTest, ReplicatedScanStillSeesEveryKeyOnce) {
  Cluster cluster(FastFaultOptions(4, 2));
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(cluster.Put("t", "k" + std::to_string(i), "v").ok());
  }
  cluster.SetNodeAlive(0, false);
  std::set<std::string> scanned;
  ASSERT_TRUE(cluster.Scan("t", [&](Slice key, Slice) {
    EXPECT_TRUE(scanned.insert(key.ToString()).second);
  }).ok());
  EXPECT_EQ(scanned.size(), 100u);
}

}  // namespace
}  // namespace rstore

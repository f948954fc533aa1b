// TSan-targeted stress tests: concurrent get/put/multiget/scan traffic
// against the Cluster while nodes are flapped down/up. Run under the
// `debug-tsan` preset in CI (the job's -R filter matches "Cluster" and
// "Concurrency"); in plain builds it still shakes out plain logic races.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/trace.h"
#include "kvstore/cluster.h"

namespace rstore {
namespace {

ClusterOptions StressOptions() {
  ClusterOptions options;
  options.num_nodes = 4;
  options.replication_factor = 2;
  options.latency = ZeroLatencyModel();
  return options;
}

TEST(ClusterConcurrencyTest, TrafficWhileNodesFlap) {
  Cluster cluster(StressOptions());
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  constexpr int kSeeds = 128;
  for (int i = 0; i < kSeeds; ++i) {
    ASSERT_TRUE(cluster.Put("t", "seed" + std::to_string(i), "base").ok());
  }

  // With replication_factor = 2 and at most one node down at a time, every
  // seed key always has an alive replica holding "base". A request can
  // still see transient IOError("all replicas down"): liveness is checked
  // per replica in sequence, so replica A can flap back up and B go down
  // between the two checks. That routing race is inherent to
  // snapshot-based failover and tolerated (writers retry); anything else —
  // a wrong value, a short multiget, a non-IOError status — is a failure.
  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::atomic<int> writer_puts{0};
  std::atomic<int> ok_multigets{0};
  std::vector<std::thread> threads;

  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {  // writers: distinct key ranges
      for (int i = 0; i < 400; ++i) {
        std::string key = "w" + std::to_string(t) + "/" + std::to_string(i);
        Status s = cluster.Put("t", key, std::string(48, 'x'));
        while (!s.ok() && s.IsIOError()) {  // transient: retry
          s = cluster.Put("t", key, std::string(48, 'x'));
        }
        if (s.ok()) {
          writer_puts.fetch_add(1);
        } else {
          errors.fetch_add(1);
        }
      }
    });
    threads.emplace_back([&] {  // readers: seed keys only
      for (int i = 0; i < 400; ++i) {
        auto r = cluster.Get("t", "seed" + std::to_string(i % kSeeds));
        if (r.ok()) {
          if (*r != "base") errors.fetch_add(1);
        } else if (!r.status().IsIOError()) {
          errors.fetch_add(1);
        }
        std::map<std::string, std::string> out;
        Status s = cluster.MultiGet("t", {"seed0", "seed1", "seed2"}, &out);
        if (s.ok()) {
          ok_multigets.fetch_add(1);
          if (out.size() != 3) errors.fetch_add(1);
        } else if (!s.IsIOError()) {
          errors.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&] {  // chaos: one node down at a time
    uint32_t node = 0;
    while (!stop.load()) {
      cluster.SetNodeAlive(node, false);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      cluster.SetNodeAlive(node, true);
      node = (node + 1) % cluster.num_nodes();
    }
  });

  for (size_t i = 0; i + 1 < threads.size(); ++i) threads[i].join();
  stop.store(true);
  threads.back().join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(writer_puts.load(), 3 * 400);
  for (uint32_t n = 0; n < cluster.num_nodes(); ++n) {
    EXPECT_TRUE(cluster.IsNodeAlive(n));
  }
  KVStats stats = cluster.stats();
  // Stats count only requests that reached service: puts retry until they
  // do, while a multiget that hit the routing race is not a batch served.
  EXPECT_EQ(stats.puts, static_cast<uint64_t>(kSeeds + 3 * 400));
  EXPECT_EQ(stats.multiget_batches,
            static_cast<uint64_t>(ok_multigets.load()));
}

// A sync MultiGet drains a private timeline: threads issuing them at the
// same time never queue behind one another, so each call is charged what
// the same batch costs alone (a trace's simulated advance is the charge).
TEST(ClusterConcurrencyTest, ConcurrentSyncMultiGetsKeepPrivateTimelines) {
  ClusterOptions options;
  options.num_nodes = 4;
  options.replication_factor = 2;
  Cluster cluster(options);
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) {
    keys.push_back("k" + std::to_string(i));
    ASSERT_TRUE(cluster.Put("t", keys.back(), std::string(100, 'v')).ok());
  }
  cluster.ResetStats();
  TraceContext alone;
  std::map<std::string, std::string> expected;
  ASSERT_TRUE(cluster.MultiGet("t", keys, &expected, &alone).ok());
  const uint64_t alone_us = alone.sim_now_us();
  ASSERT_GT(alone_us, 0u);

  constexpr int kThreads = 4;
  constexpr int kCalls = 50;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kCalls; ++i) {
        TraceContext trace;
        std::map<std::string, std::string> out;
        if (!cluster.MultiGet("t", keys, &out, &trace).ok() ||
            out != expected || trace.sim_now_us() != alone_us) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  const KVStats stats = cluster.stats();
  EXPECT_EQ(stats.multiget_batches, 1u + kThreads * kCalls);
  EXPECT_EQ(stats.simulated_micros, alone_us * (1 + kThreads * kCalls));
  EXPECT_EQ(stats.queue_wait_us, 0u);
}

TEST(ClusterConcurrencyTest, ScanRunsConcurrentlyWithWrites) {
  Cluster cluster(StressOptions());
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(cluster.Put("t", "stable" + std::to_string(i), "v").ok());
  }
  std::atomic<int> errors{0};
  std::thread writer([&] {
    for (int i = 0; i < 200; ++i) {
      if (!cluster.Put("t", "hot" + std::to_string(i), "v").ok()) {
        errors.fetch_add(1);
      }
    }
  });
  std::thread scanner([&] {
    for (int i = 0; i < 50; ++i) {
      size_t seen = 0;
      Status s = cluster.Scan("t", [&](Slice, Slice) { ++seen; });
      // Every scan sees at least the pre-seeded stable keys.
      if (!s.ok() || seen < 64) errors.fetch_add(1);
    }
  });
  writer.join();
  scanner.join();
  EXPECT_EQ(errors.load(), 0);
}

// Regression: Scan used to hold the node's store mutex while invoking the
// callback, so a callback that re-entered the cluster (e.g. a Get routed to
// the same node) self-deadlocked. With snapshot scans the lock is dropped
// first; the debug lock-rank registry flags the old behaviour instantly.
TEST(ClusterConcurrencyTest, ScanCallbackMayReenterCluster) {
  ClusterOptions options = StressOptions();
  options.replication_factor = 1;  // every key lives on exactly one node
  Cluster cluster(options);
  ASSERT_TRUE(cluster.CreateTable("t").ok());
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(cluster.Put("t", "k" + std::to_string(i),
                            "v" + std::to_string(i)).ok());
  }
  int checked = 0;
  Status s = cluster.Scan("t", [&](Slice key, Slice value) {
    // Re-enter the cluster (and necessarily the same node for this key).
    auto r = cluster.Get("t", key.ToString());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, value.ToString());
    ++checked;
  });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(checked, 32);
}

}  // namespace
}  // namespace rstore

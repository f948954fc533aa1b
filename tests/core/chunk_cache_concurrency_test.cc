// TSan-targeted stress tests for the shared chunk cache: many threads drive
// mixed query classes through per-thread QueryProcessors that all share one
// deliberately tiny cache (constant eviction churn) over one bulk-loaded
// store. Run under the `debug-tsan` preset in CI (the job's -R filter
// matches "Concurrency"); in plain builds it still checks results against
// ground truth under contention.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/query_processor.h"
#include "core/rstore.h"
#include "core_test_util.h"
#include "kvstore/cluster.h"

namespace rstore {
namespace {

using testing::MakeChain;
using testing::SerializeRecords;

TEST(ChunkCacheConcurrencyTest, MixedQueriesThroughOneTinyCache) {
  ClusterOptions cluster_options;
  cluster_options.num_nodes = 4;
  cluster_options.replication_factor = 2;
  cluster_options.latency = ZeroLatencyModel();
  Cluster cluster(cluster_options);

  testing::ExampleData data = MakeChain(/*versions=*/40, /*keys=*/60,
                                        /*updates_per_version=*/5);
  Options options;
  options.chunk_capacity_bytes = 2048;  // many chunks -> many cache entries
  auto store = RStore::Open(&cluster, options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());

  // Ground truth, computed single-threaded and uncached.
  std::vector<std::string> expected_versions;
  for (VersionId v = 0; v < 40; ++v) {
    auto got = (*store)->GetVersion(v);
    ASSERT_TRUE(got.ok());
    expected_versions.push_back(SerializeRecords(*got));
  }
  std::map<std::string, std::string> expected_histories;
  for (uint32_t k = 0; k < 60; k += 7) {
    std::string key = "key" + std::to_string(1000 + k);
    auto got = (*store)->GetHistory(key);
    ASSERT_TRUE(got.ok());
    expected_histories[key] = SerializeRecords(*got);
  }

  // One tiny shared cache: far below the working set, so threads evict each
  // other's entries continuously.
  ChunkCache cache(/*capacity_bytes=*/32 << 10, /*num_shards=*/4);
  std::atomic<int> errors{0};
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<QueryStats> per_thread(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      QueryProcessor qp(&cluster, &(*store)->catalog(), &(*store)->dataset(),
                        &(*store)->options(), &cache);
      for (int round = 0; round < kRounds; ++round) {
        // Each thread walks the versions at a different stride so the
        // threads chase different parts of the working set concurrently.
        for (VersionId i = 0; i < 40; ++i) {
          VersionId v = (i * (t + 1) + round) % 40;
          auto got = qp.Run(
              {.kind = Query::Kind::kFullVersion, .version = v},
              &per_thread[t]);
          if (!got.ok() || SerializeRecords(*got) != expected_versions[v]) {
            errors.fetch_add(1);
          }
        }
        for (const auto& [key, expected] : expected_histories) {
          auto got = qp.Run({.kind = Query::Kind::kEvolution, .key = key},
                            &per_thread[t]);
          if (!got.ok() || SerializeRecords(*got) != expected) {
            errors.fetch_add(1);
          }
        }
      }
    });
  }
  // A validator thread repeatedly checks the structural invariants while
  // the query threads churn the shards.
  std::atomic<bool> stop{false};
  std::thread validator([&] {
    while (!stop.load()) {
      if (!cache.Validate().ok()) errors.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (auto& thread : threads) thread.join();
  stop.store(true);
  validator.join();

  EXPECT_EQ(errors.load(), 0);
  for (int t = 0; t < kThreads; ++t) {
    // Every chunk resolution was exactly one hit or one miss.
    EXPECT_EQ(per_thread[t].cache_hits + per_thread[t].cache_misses,
              per_thread[t].chunks_fetched)
        << "thread " << t;
  }
  Status valid = cache.Validate();
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  ChunkCacheStats stats = cache.stats();
  EXPECT_LE(stats.charged_bytes, stats.capacity_bytes);
  EXPECT_GT(stats.evictions, 0u);  // the cache really was under pressure
  EXPECT_GT(stats.hits, 0u);
}

}  // namespace
}  // namespace rstore

// TSan-targeted stress over the executor and futures: Post/PostAt storms
// from many threads against one drainer, promise completion racing
// continuation registration, cross-thread Future::Get, and concurrent async
// queries on separate executors contending on one shared ChunkCache. These
// tests assert only counts and invariants — the interesting output is what
// the race detector says about the interleavings.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/executor.h"
#include "core/chunk_cache.h"
#include "core/query_processor.h"
#include "core/rstore.h"
#include "core_test_util.h"
#include "kvstore/cluster.h"

namespace rstore {
namespace {

constexpr int kThreads = 4;

TEST(ExecutorConcurrencyTest, PostStormFromManyThreadsDrainsCompletely) {
  Executor executor(3);
  constexpr int kPerThread = 2000;
  std::atomic<int> ran{0};
  std::atomic<bool> done{false};

  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&executor, &ran, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto task = [&ran] { ran.fetch_add(1); };
        switch (i % 3) {
          case 0:
            executor.Post(task);
            break;
          case 1:
            executor.PostAt(static_cast<uint64_t>(t * kPerThread + i), task);
            break;
          default:
            executor.PostAt(executor.now_us() + static_cast<uint64_t>(i % 17),
                            task);
        }
      }
    });
  }
  // One drainer, as the contract requires; it races the producers and keeps
  // draining until every post has landed and run.
  std::thread drainer([&executor, &done] {
    while (!done.load() || executor.pending() > 0) {
      executor.RunUntilIdle();
    }
  });
  for (std::thread& t : producers) t.join();
  done.store(true);
  drainer.join();
  EXPECT_EQ(ran.load(), kThreads * kPerThread);
  EXPECT_EQ(executor.pending(), 0u);
}

TEST(ExecutorConcurrencyTest, ManyThreadsBlockOnOneFuture) {
  Executor executor;
  Promise<int> promise;
  Future<int> future = promise.future();
  std::atomic<int> sum{0};
  std::vector<std::thread> waiters;
  for (int t = 0; t < kThreads; ++t) {
    waiters.emplace_back(
        [future, &sum] { sum.fetch_add(future.Get()); });
  }
  executor.PostAt(100, [promise] { promise.Set(11); });
  executor.RunUntilIdle();
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(sum.load(), 11 * kThreads);
}

TEST(ExecutorConcurrencyTest, OnReadyRacesWithSet) {
  for (int round = 0; round < 50; ++round) {
    Promise<int> promise;
    Future<int> future = promise.future();
    std::atomic<int> fired{0};
    std::vector<std::thread> registrars;
    for (int t = 0; t < kThreads; ++t) {
      registrars.emplace_back([future, &fired] {
        for (int i = 0; i < 20; ++i) {
          future.OnReady([&fired](const int& v) {
            EXPECT_EQ(v, 5);
            fired.fetch_add(1);
          });
        }
      });
    }
    std::thread setter([promise] { promise.Set(5); });
    for (std::thread& t : registrars) t.join();
    setter.join();
    // Whether each callback was registered before or after the Set, it runs
    // exactly once.
    EXPECT_EQ(fired.load(), kThreads * 20);
  }
}

TEST(ExecutorConcurrencyTest, AsyncQueriesContendOnOneSharedChunkCache) {
  // One store over a simulated cluster; each thread runs async queries
  // through its own QueryProcessor on its own executor (a single-drainer
  // component). The ChunkCache the processors share is hammered from every
  // thread at once.
  ClusterOptions cluster_options;
  cluster_options.latency = ZeroLatencyModel();
  Cluster cluster(cluster_options);
  testing::ExampleData data = testing::MakeChain(12, 10, 3);
  Options options;
  options.chunk_capacity_bytes = 600;
  auto store = RStore::Open(&cluster, options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());
  // Ground truth, computed single-threaded and uncached.
  std::vector<std::string> expected;
  for (VersionId v = 0; v < 12; ++v) {
    auto got = (*store)->GetVersion(v);
    ASSERT_TRUE(got.ok());
    expected.push_back(testing::SerializeRecords(*got));
  }

  ChunkCache cache(32 << 10, 4);
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      QueryProcessor processor(&cluster, &(*store)->catalog(),
                               &(*store)->dataset(), &(*store)->options(),
                               &cache);
      Executor executor;
      for (int pass = 0; pass < 3; ++pass) {
        for (VersionId v = 0; v < 12; ++v) {
          processor
              .RunAsync(&executor, {.kind = Query::Kind::kFullVersion,
                                    .version = v})
              .OnReady([&failures, &expected, v](const AsyncQueryResult& r) {
                if (!r.status.ok() ||
                    testing::SerializeRecords(r.records) != expected[v]) {
                  failures.fetch_add(1);
                }
              });
        }
        // Each pass's queries are in flight together; draining between
        // passes lets later passes hit what earlier ones inserted.
        executor.RunUntilIdle();
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(failures.load(), 0);
  Status valid = cache.Validate();
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_GT(cache.stats().hits, 0u);
}

}  // namespace
}  // namespace rstore

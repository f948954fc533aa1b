// Randomized property tests over generated datasets: for random workload
// shapes, every algorithm must produce a complete, capacity-respecting
// layout whose query results are byte-identical to ground truth, with spans
// consistent between the a-priori computation and the live projections.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/partitioner.h"
#include "core/rstore.h"
#include "core/sub_chunk_builder.h"
#include "core_test_util.h"
#include "kvstore/cluster.h"
#include "kvstore/memory_store.h"
#include "workload/dataset_generator.h"
#include "workload/query_workload.h"

namespace rstore {
namespace {

using workload::DatasetConfig;
using workload::GeneratedDataset;
using workload::GenerateDataset;
using workload::Query;
using workload::QueryWorkloadGenerator;

DatasetConfig RandomConfig(uint64_t seed) {
  Random rng(seed * 2654435761ull + 17);
  DatasetConfig config;
  config.name = "prop" + std::to_string(seed);
  config.num_versions = 10 + static_cast<uint32_t>(rng.Uniform(40));
  config.records_per_version = 30 + static_cast<uint32_t>(rng.Uniform(150));
  config.update_fraction = 0.02 + rng.NextDouble() * 0.3;
  config.zipf_updates = rng.Bernoulli(0.5);
  config.branch_probability = rng.Bernoulli(0.5) ? rng.NextDouble() * 0.5 : 0;
  config.insert_fraction = rng.NextDouble() * 0.02;
  config.delete_fraction = rng.NextDouble() * 0.02;
  config.record_size_bytes = 100 + static_cast<uint32_t>(rng.Uniform(400));
  config.pd = 0.02 + rng.NextDouble() * 0.2;
  config.seed = seed;
  return config;
}

class RandomizedDatasetTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomizedDatasetTest, GeneratedDatasetAlwaysValidates) {
  GeneratedDataset gen = GenerateDataset(RandomConfig(GetParam()));
  Status s = gen.dataset.Validate();
  EXPECT_TRUE(s.ok()) << s.ToString();
  // Every record has a payload; counts agree.
  EXPECT_EQ(gen.payloads.size(), gen.dataset.CountDistinctRecords());
}

TEST_P(RandomizedDatasetTest, SubChunksPartitionTheRecordSet) {
  GeneratedDataset gen = GenerateDataset(RandomConfig(GetParam()));
  Random rng(GetParam());
  Options options;
  options.max_sub_chunk_records = 1 + static_cast<uint32_t>(rng.Uniform(8));
  RecordVersionMap rv = gen.dataset.BuildRecordVersionMap();
  auto built = BuildSubChunks(gen.dataset, gen.payloads, rv, options);
  ASSERT_TRUE(built.ok());
  std::set<CompositeKey> seen;
  for (const SubChunk& sc : built->sub_chunks) {
    EXPECT_LE(sc.num_records(), options.max_sub_chunk_records);
    for (const CompositeKey& ck : sc.keys()) {
      EXPECT_TRUE(seen.insert(ck).second);
    }
  }
  EXPECT_EQ(seen.size(), gen.dataset.CountDistinctRecords());
}

TEST_P(RandomizedDatasetTest, AllQueriesMatchGroundTruthEndToEnd) {
  GeneratedDataset gen = GenerateDataset(RandomConfig(GetParam()));
  Random rng(GetParam() ^ 0xabcdef);
  Options options;
  // Random knob settings, random algorithm.
  const PartitionAlgorithm algorithms[] = {
      PartitionAlgorithm::kBottomUp, PartitionAlgorithm::kShingle,
      PartitionAlgorithm::kDepthFirst, PartitionAlgorithm::kBreadthFirst,
      PartitionAlgorithm::kDeltaBaseline,
      PartitionAlgorithm::kSubChunkBaseline,
      PartitionAlgorithm::kSingleAddressSpace};
  options.algorithm = algorithms[rng.Uniform(7)];
  options.chunk_capacity_bytes = 512 + rng.Uniform(8192);
  options.max_sub_chunk_records = 1 + static_cast<uint32_t>(rng.Uniform(6));
  options.subtree_limit = rng.Bernoulli(0.3)
                              ? 1 + static_cast<uint32_t>(rng.Uniform(10))
                              : 0;
  SCOPED_TRACE(std::string("algorithm=") +
               PartitionAlgorithmName(options.algorithm));

  MemoryStore backend;
  auto store = RStore::Open(&backend, options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(gen.dataset, gen.payloads).ok());

  // Q1 on three random versions.
  QueryWorkloadGenerator qgen(&gen.dataset, GetParam());
  for (const Query& q : qgen.FullVersionQueries(3)) {
    auto got = (*store)->GetVersion(q.version);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    std::map<std::string, std::string> expected;
    for (const CompositeKey& ck :
         gen.dataset.MaterializeVersion(q.version)) {
      expected[ck.key] = gen.payloads.at(ck);
    }
    std::map<std::string, std::string> actual;
    for (const Record& r : *got) actual[r.key.key] = r.payload;
    ASSERT_EQ(actual, expected) << "V" << q.version;
  }
  // Q2 random ranges.
  for (const Query& q : qgen.RangeQueries(3, 0.2)) {
    auto got = (*store)->GetRange(q.version, q.key_lo, q.key_hi);
    ASSERT_TRUE(got.ok());
    std::map<std::string, std::string> expected;
    for (const CompositeKey& ck :
         gen.dataset.MaterializeVersion(q.version)) {
      if (ck.key >= q.key_lo && ck.key <= q.key_hi) {
        expected[ck.key] = gen.payloads.at(ck);
      }
    }
    std::map<std::string, std::string> actual;
    for (const Record& r : *got) actual[r.key.key] = r.payload;
    ASSERT_EQ(actual, expected);
  }
  // Q3 random keys: every composite key with that primary key, in order.
  for (const Query& q : qgen.EvolutionQueries(3)) {
    auto got = (*store)->GetHistory(q.key);
    ASSERT_TRUE(got.ok());
    std::set<CompositeKey> expected;
    for (const auto& [ck, payload] : gen.payloads) {
      if (ck.key == q.key) expected.insert(ck);
    }
    ASSERT_EQ(got->size(), expected.size()) << q.key;
    for (const Record& r : *got) {
      EXPECT_TRUE(expected.count(r.key));
      EXPECT_EQ(r.payload, gen.payloads.at(r.key));
    }
  }
  // Point queries: present keys resolve to the version-visible record.
  for (const Query& q : qgen.PointQueries(5)) {
    auto members = gen.dataset.MaterializeVersion(q.version);
    const CompositeKey* visible = nullptr;
    for (const CompositeKey& ck : members) {
      if (ck.key == q.key) {
        visible = &ck;
        break;
      }
    }
    auto got = (*store)->GetRecord(q.key, q.version);
    if (visible == nullptr) {
      EXPECT_TRUE(got.status().IsNotFound());
    } else {
      ASSERT_TRUE(got.ok()) << q.key << " V" << q.version;
      EXPECT_EQ(got->key, *visible);
      EXPECT_EQ(got->payload, gen.payloads.at(*visible));
    }
  }
}

TEST_P(RandomizedDatasetTest, ChunkCapacityInvariantHolds) {
  GeneratedDataset gen = GenerateDataset(RandomConfig(GetParam()));
  Options options;
  options.chunk_capacity_bytes = 2048;
  options.max_sub_chunk_records = 2;
  RecordVersionMap rv = gen.dataset.BuildRecordVersionMap();
  auto built = BuildSubChunks(gen.dataset, gen.payloads, rv, options);
  ASSERT_TRUE(built.ok());
  for (PartitionAlgorithm algorithm :
       {PartitionAlgorithm::kBottomUp, PartitionAlgorithm::kShingle,
        PartitionAlgorithm::kDepthFirst}) {
    auto partitioner = CreatePartitioner(algorithm);
    PartitionInput input;
    input.dataset = &gen.dataset;
    input.items = &built->items;
    input.options = &options;
    auto p = partitioner->Partition(input);
    ASSERT_TRUE(p.ok());
    uint64_t hard_limit = options.chunk_capacity_bytes +
                          options.chunk_capacity_bytes / 4;
    for (const auto& chunk : p->chunks) {
      if (chunk.size() <= 1) continue;  // oversized singletons exempt
      uint64_t bytes = 0;
      for (uint32_t item : chunk) bytes += built->items[item].bytes;
      EXPECT_LE(bytes, hard_limit) << PartitionAlgorithmName(algorithm);
    }
  }
}

// The cached-vs-uncached equivalence harness: for every layout and
// partitioner, the same seeded workload replayed against an uncached store
// and against one with a cache smaller than most working sets (eviction
// churn) must produce byte-identical results, with the cache counters
// partitioning the span exactly and the cache serving hits.
TEST_P(RandomizedDatasetTest, CachedQueriesMatchUncachedAcrossAllAlgorithms) {
  GeneratedDataset gen = GenerateDataset(RandomConfig(GetParam()));
  const PartitionAlgorithm algorithms[] = {
      PartitionAlgorithm::kBottomUp, PartitionAlgorithm::kShingle,
      PartitionAlgorithm::kDepthFirst, PartitionAlgorithm::kBreadthFirst,
      PartitionAlgorithm::kDeltaBaseline,
      PartitionAlgorithm::kSubChunkBaseline,
      PartitionAlgorithm::kSingleAddressSpace};
  for (PartitionAlgorithm algorithm : algorithms) {
    SCOPED_TRACE(std::string("algorithm=") +
                 PartitionAlgorithmName(algorithm));
    Options options;
    options.algorithm = algorithm;
    options.chunk_capacity_bytes = 4096;

    MemoryStore uncached_backend;
    auto uncached = RStore::Open(&uncached_backend, options);
    ASSERT_TRUE(uncached.ok());
    ASSERT_TRUE((*uncached)->BulkLoad(gen.dataset, gen.payloads).ok());
    auto base = testing::ReplayQueryWorkload(uncached->get(), gen.dataset,
                                             GetParam());
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    // No cache attached: the cache counters must stay untouched.
    EXPECT_EQ(base->stats.cache_hits, 0u);
    EXPECT_EQ(base->stats.cache_misses, 0u);

    // Each of the cache's 8 shards holds 32 KB: a decoded 4 KB chunk's
    // charge (its records and map, not its stored bytes) fits one, yet
    // most workloads still evict. Correctness must be unaffected.
    Options cached_options = options;
    cached_options.cache_capacity_bytes = 256 << 10;
    MemoryStore cached_backend;
    auto cached = RStore::Open(&cached_backend, cached_options);
    ASSERT_TRUE(cached.ok());
    ASSERT_TRUE((*cached)->BulkLoad(gen.dataset, gen.payloads).ok());
    auto replay = testing::ReplayQueryWorkload(cached->get(), gen.dataset,
                                               GetParam());
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();

    EXPECT_EQ(replay->results, base->results);
    // The span is cache-independent, and every chunk resolution is exactly
    // one hit or one miss.
    EXPECT_EQ(replay->stats.chunks_fetched, base->stats.chunks_fetched);
    EXPECT_EQ(replay->stats.cache_hits + replay->stats.cache_misses,
              replay->stats.chunks_fetched);
    EXPECT_GT(replay->stats.cache_hits, 0u);
    ASSERT_NE((*cached)->chunk_cache(), nullptr);
    Status valid = (*cached)->chunk_cache()->Validate();
    EXPECT_TRUE(valid.ok()) << valid.ToString();
  }
}

// The async-vs-sync equivalence harness: for every partitioning algorithm
// (and so every chunk layout), the same seeded workload replayed through the
// continuation-based async engine must be byte-identical to the synchronous
// replay, with the per-query accounting — chunks fetched, bytes, simulated
// time, cache hits and misses — agreeing counter for counter. Pipelining
// may only reorder work, never change what a query reads or what it costs.
TEST_P(RandomizedDatasetTest, AsyncQueriesMatchSyncAcrossAllAlgorithms) {
  GeneratedDataset gen = GenerateDataset(RandomConfig(GetParam()));
  const PartitionAlgorithm algorithms[] = {
      PartitionAlgorithm::kBottomUp, PartitionAlgorithm::kShingle,
      PartitionAlgorithm::kDepthFirst, PartitionAlgorithm::kBreadthFirst,
      PartitionAlgorithm::kDeltaBaseline,
      PartitionAlgorithm::kSubChunkBaseline,
      PartitionAlgorithm::kSingleAddressSpace};
  for (PartitionAlgorithm algorithm : algorithms) {
    SCOPED_TRACE(std::string("algorithm=") +
                 PartitionAlgorithmName(algorithm));
    Options options;
    options.algorithm = algorithm;
    options.chunk_capacity_bytes = 4096;

    // Uncached, against one store: sync baseline first, then the async
    // burst replay (every query in flight at once).
    MemoryStore backend;
    auto store = RStore::Open(&backend, options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->BulkLoad(gen.dataset, gen.payloads).ok());
    auto sync = testing::ReplayQueryWorkload(store->get(), gen.dataset,
                                             GetParam());
    ASSERT_TRUE(sync.ok()) << sync.status().ToString();
    Executor executor;
    auto async = testing::ReplayQueryWorkloadAsync(
        store->get(), &executor, gen.dataset, GetParam());
    ASSERT_TRUE(async.ok()) << async.status().ToString();
    EXPECT_EQ(async->results, sync->results);
    EXPECT_EQ(async->stats.chunks_fetched, sync->stats.chunks_fetched);
    EXPECT_EQ(async->stats.bytes_fetched, sync->stats.bytes_fetched);
    EXPECT_EQ(async->stats.simulated_micros, sync->stats.simulated_micros);
    EXPECT_EQ(async->stats.cache_hits, 0u);
    EXPECT_EQ(async->stats.cache_misses, 0u);

    // Cached, on two fresh stores (one per engine) so each replay sees the
    // same cold cache: the hit/miss sequence must agree stroke for stroke.
    // The budget admits chunks, as in the cached-vs-uncached harness.
    Options cached_options = options;
    cached_options.cache_capacity_bytes = 256 << 10;
    MemoryStore sync_backend;
    auto sync_store = RStore::Open(&sync_backend, cached_options);
    ASSERT_TRUE(sync_store.ok());
    ASSERT_TRUE((*sync_store)->BulkLoad(gen.dataset, gen.payloads).ok());
    auto cached_sync = testing::ReplayQueryWorkload(
        sync_store->get(), gen.dataset, GetParam());
    ASSERT_TRUE(cached_sync.ok()) << cached_sync.status().ToString();

    MemoryStore async_backend;
    auto async_store = RStore::Open(&async_backend, cached_options);
    ASSERT_TRUE(async_store.ok());
    ASSERT_TRUE((*async_store)->BulkLoad(gen.dataset, gen.payloads).ok());
    Executor cached_executor;
    auto cached_async = testing::ReplayQueryWorkloadAsync(
        async_store->get(), &cached_executor, gen.dataset, GetParam());
    ASSERT_TRUE(cached_async.ok()) << cached_async.status().ToString();

    EXPECT_EQ(cached_async->results, sync->results);
    EXPECT_EQ(cached_async->stats.chunks_fetched,
              cached_sync->stats.chunks_fetched);
    EXPECT_EQ(cached_async->stats.cache_hits, cached_sync->stats.cache_hits);
    EXPECT_EQ(cached_async->stats.cache_misses,
              cached_sync->stats.cache_misses);
    EXPECT_EQ(cached_async->stats.cache_hits +
                  cached_async->stats.cache_misses,
              cached_async->stats.chunks_fetched);
    EXPECT_GT(cached_async->stats.cache_hits, 0u);
    ASSERT_NE((*async_store)->chunk_cache(), nullptr);
    Status valid = (*async_store)->chunk_cache()->Validate();
    EXPECT_TRUE(valid.ok()) << valid.ToString();
  }
}

// Over the simulated cluster, the async engine drained after every
// submission must replay the synchronous timeline *exactly*: with no
// overlap there is no queueing, so each batch starts at the instant the
// sync engine would have issued it and the simulated microseconds agree to
// the digit — the anchor that pins async latencies to the latency model.
TEST_P(RandomizedDatasetTest, SequentialAsyncReplaysSyncTimelineOnCluster) {
  GeneratedDataset gen = GenerateDataset(RandomConfig(GetParam()));
  Options options;
  options.chunk_capacity_bytes = 4096;
  ClusterOptions cluster_options;
  cluster_options.num_nodes = 6;
  Cluster cluster(cluster_options);
  auto store = RStore::Open(&cluster, options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(gen.dataset, gen.payloads).ok());

  auto sync = testing::ReplayQueryWorkload(store->get(), gen.dataset,
                                           GetParam());
  ASSERT_TRUE(sync.ok()) << sync.status().ToString();
  Executor executor;
  auto async = testing::ReplayQueryWorkloadAsync(
      store->get(), &executor, gen.dataset, GetParam(), /*window=*/1);
  ASSERT_TRUE(async.ok()) << async.status().ToString();
  EXPECT_EQ(async->results, sync->results);
  EXPECT_EQ(async->stats.chunks_fetched, sync->stats.chunks_fetched);
  EXPECT_EQ(async->stats.bytes_fetched, sync->stats.bytes_fetched);
  EXPECT_EQ(async->stats.simulated_micros, sync->stats.simulated_micros);
}

// Online invalidation: a cache warmed before a commit must never serve a
// chunk whose map the online partitioner has since rewritten (paper §4). The
// cache is sized to hold everything, so without the generation-keyed
// invalidation the stale entries WOULD be served.
TEST_P(RandomizedDatasetTest, CacheInvalidatedByOnlineMapRewrites) {
  GeneratedDataset gen = GenerateDataset(RandomConfig(GetParam()));
  Options options;
  options.cache_capacity_bytes = 64 << 20;  // everything stays resident
  options.online_batch_size = 1;            // every commit partitions at once
  MemoryStore backend;
  auto store = RStore::Open(&backend, options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(gen.dataset, gen.payloads).ok());

  // Warm the cache over every version, twice — the second pass must hit.
  QueryStats warm_stats;
  VersionId num_versions = gen.dataset.graph.size();
  for (int pass = 0; pass < 2; ++pass) {
    for (VersionId v = 0; v < num_versions; ++v) {
      ASSERT_TRUE((*store)->GetVersion(v, &warm_stats).ok());
    }
  }
  EXPECT_GT(warm_stats.cache_hits, 0u);

  // Commit an update to every key of the latest version: the new records
  // land in fresh chunks, but the *maps* of every chunk holding a carried-
  // over record are rewritten (and their cached copies invalidated).
  VersionId parent = num_versions - 1;
  VersionMembership members = gen.dataset.MaterializeVersion(parent);
  CommitDelta delta;
  std::map<std::string, std::string> expected;
  size_t updates = 0;
  for (const CompositeKey& ck : members) {
    if (updates < 5) {
      std::string payload = "updated-" + ck.key;
      delta.upserts.push_back(Record{CompositeKey(ck.key, 0), payload});
      expected[ck.key] = payload;
      ++updates;
    } else {
      expected[ck.key] = gen.payloads.at(ck);
    }
  }
  ASSERT_GT(updates, 0u);
  auto committed = (*store)->Commit(parent, std::move(delta));
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();

  // The new version reads correctly — carried-over records are only visible
  // through the rewritten maps, so a stale cached chunk would drop them.
  auto got = (*store)->GetVersion(*committed);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  std::map<std::string, std::string> actual;
  for (const Record& r : *got) actual[r.key.key] = r.payload;
  EXPECT_EQ(actual, expected);

  // Pre-existing versions still read correctly through the new maps.
  for (VersionId v = 0; v < num_versions; ++v) {
    auto old_got = (*store)->GetVersion(v);
    ASSERT_TRUE(old_got.ok());
    std::map<std::string, std::string> old_actual;
    for (const Record& r : *old_got) old_actual[r.key.key] = r.payload;
    std::map<std::string, std::string> old_expected;
    for (const CompositeKey& ck : gen.dataset.MaterializeVersion(v)) {
      old_expected[ck.key] = gen.payloads.at(ck);
    }
    EXPECT_EQ(old_actual, old_expected) << "V" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedDatasetTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

}  // namespace
}  // namespace rstore

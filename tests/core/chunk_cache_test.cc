// Unit tests for the sharded LRU chunk cache: recency order, byte-budget
// enforcement, oversized-entry rejection, counter accuracy, and the
// Validate() structural invariants under randomized operation mixes.

#include "core/chunk_cache.h"

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <vector>

#include "common/random.h"

namespace rstore {

// Friend of ChunkCache: corrupts single-shard caches from the inside so each
// Validate() detection branch can be shown to actually fire. Every helper
// assumes num_shards == 1 (shard 0 holds everything).
class ChunkCacheTestPeer {
 public:
  // index loses an entry the LRU list still holds -> size mismatch.
  static void DropIndexEntry(ChunkCache* cache) {
    ChunkCache::Shard& shard = cache->shards_[0];
    MutexLock lock(shard.mu);
    shard.index.erase(shard.index.begin());
  }

  // The front entry's index slot points at the second node -> back-pointer
  // disagreement. Needs at least two resident entries.
  static void RebindIndexEntry(ChunkCache* cache) {
    ChunkCache::Shard& shard = cache->shards_[0];
    MutexLock lock(shard.mu);
    shard.index[shard.lru.front().id] = std::next(shard.lru.begin());
  }

  static void NullOutFrontChunk(ChunkCache* cache) {
    ChunkCache::Shard& shard = cache->shards_[0];
    MutexLock lock(shard.mu);
    shard.lru.front().chunk = nullptr;
  }

  // Entry charge changes without the shard total following -> drift.
  static void SkewFrontCharge(ChunkCache* cache) {
    ChunkCache::Shard& shard = cache->shards_[0];
    MutexLock lock(shard.mu);
    shard.lru.front().charge += 1;
  }

  // Entry charge and shard total stay consistent but blow the budget.
  static void InflatePastBudget(ChunkCache* cache) {
    ChunkCache::Shard& shard = cache->shards_[0];
    MutexLock lock(shard.mu);
    uint64_t delta = cache->shard_capacity_;
    shard.lru.front().charge += delta;
    shard.charged += delta;
  }
};

namespace {

std::shared_ptr<const Chunk> FakeChunk(ChunkId id) {
  return std::make_shared<Chunk>(id);
}

TEST(ChunkCacheTest, LookupReturnsInsertedChunk) {
  ChunkCache cache(/*capacity_bytes=*/1024, /*num_shards=*/1);
  EXPECT_EQ(cache.Lookup(1), nullptr);
  cache.Insert(1, FakeChunk(1), 100);
  auto hit = cache.Lookup(1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->id(), 1u);
  EXPECT_EQ(cache.Lookup(2), nullptr);
}

TEST(ChunkCacheTest, EvictsLeastRecentlyUsedFirst) {
  // One shard so recency is globally ordered.
  ChunkCache cache(/*capacity_bytes=*/100, /*num_shards=*/1);
  cache.Insert(1, FakeChunk(1), 40);
  cache.Insert(2, FakeChunk(2), 40);
  // Touch 1 so 2 becomes the LRU victim.
  ASSERT_NE(cache.Lookup(1), nullptr);
  cache.Insert(3, FakeChunk(3), 40);
  EXPECT_NE(cache.Lookup(1), nullptr);
  EXPECT_EQ(cache.Lookup(2), nullptr);
  EXPECT_NE(cache.Lookup(3), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ChunkCacheTest, ChargedBytesNeverExceedCapacity) {
  ChunkCache cache(/*capacity_bytes=*/200, /*num_shards=*/1);
  for (ChunkId id = 0; id < 50; ++id) {
    cache.Insert(id, FakeChunk(id), 30 + id % 40);
    EXPECT_LE(cache.stats().charged_bytes, cache.capacity_bytes());
  }
  EXPECT_TRUE(cache.Validate().ok());
}

TEST(ChunkCacheTest, OversizedEntryIsRejected) {
  // 4 shards x 64 bytes each: a 100-byte entry can never fit one shard.
  ChunkCache cache(/*capacity_bytes=*/256, /*num_shards=*/4);
  EXPECT_EQ(cache.shard_capacity_bytes(), 64u);
  cache.Insert(1, FakeChunk(1), 100);
  EXPECT_EQ(cache.Lookup(1), nullptr);
  ChunkCacheStats stats = cache.stats();
  EXPECT_EQ(stats.rejected_inserts, 1u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.charged_bytes, 0u);

  // A rejected replace drops the stale resident entry rather than keeping
  // a copy the caller just tried to supersede.
  cache.Insert(2, FakeChunk(2), 10);
  ASSERT_NE(cache.Lookup(2), nullptr);
  cache.Insert(2, FakeChunk(2), 100);
  EXPECT_EQ(cache.Lookup(2), nullptr);
  EXPECT_TRUE(cache.Validate().ok());
}

TEST(ChunkCacheTest, ReplacingAnEntryAdjustsTheCharge) {
  ChunkCache cache(/*capacity_bytes=*/100, /*num_shards=*/1);
  cache.Insert(1, FakeChunk(1), 60);
  EXPECT_EQ(cache.stats().charged_bytes, 60u);
  cache.Insert(1, FakeChunk(1), 20);
  ChunkCacheStats stats = cache.stats();
  EXPECT_EQ(stats.charged_bytes, 20u);
  EXPECT_EQ(stats.entries, 1u);
  // The replace freed 60 bytes, so another 80-byte entry fits alongside.
  cache.Insert(2, FakeChunk(2), 80);
  EXPECT_NE(cache.Lookup(1), nullptr);
  EXPECT_NE(cache.Lookup(2), nullptr);
}

TEST(ChunkCacheTest, CountersAreExact) {
  ChunkCache cache(/*capacity_bytes=*/100, /*num_shards=*/1);
  cache.Insert(1, FakeChunk(1), 50);
  cache.Insert(2, FakeChunk(2), 50);
  ASSERT_NE(cache.Lookup(1), nullptr);   // hit
  ASSERT_EQ(cache.Lookup(9), nullptr);   // miss
  cache.Insert(3, FakeChunk(3), 50);     // evicts 2 (LRU)
  ASSERT_EQ(cache.Lookup(2), nullptr);   // miss
  ChunkCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.rejected_inserts, 0u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.charged_bytes, 100u);
  EXPECT_EQ(stats.capacity_bytes, 100u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 1.0 / 3.0);
}

TEST(ChunkCacheTest, EvictedEntrySurvivesOutstandingReference) {
  ChunkCache cache(/*capacity_bytes=*/50, /*num_shards=*/1);
  cache.Insert(1, FakeChunk(1), 50);
  std::shared_ptr<const Chunk> held = cache.Lookup(1);
  ASSERT_NE(held, nullptr);
  cache.Insert(2, FakeChunk(2), 50);  // evicts 1
  EXPECT_EQ(cache.Lookup(1), nullptr);
  // The shared_ptr handed out earlier keeps the chunk alive.
  EXPECT_EQ(held->id(), 1u);
}

TEST(ChunkCacheTest, NullChunkInsertIsIgnored) {
  ChunkCache cache(/*capacity_bytes=*/100, /*num_shards=*/1);
  cache.Insert(1, nullptr, 10);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().insertions, 0u);
}

TEST(ChunkCacheTest, ShardCountRoundsUpToPowerOfTwo) {
  ChunkCache cache(/*capacity_bytes=*/1000, /*num_shards=*/3);
  EXPECT_EQ(cache.num_shards(), 4u);
  EXPECT_EQ(cache.shard_capacity_bytes(), 250u);
  ChunkCache one(/*capacity_bytes=*/10, /*num_shards=*/0);
  EXPECT_EQ(one.num_shards(), 1u);
}

TEST(ChunkCacheTest, ValidateHoldsUnderRandomizedOperations) {
  Random rng(20240807);
  ChunkCache cache(/*capacity_bytes=*/500, /*num_shards=*/4);
  for (int op = 0; op < 5000; ++op) {
    const ChunkId id = rng.Uniform(96);
    if (rng.Uniform(3) < 2) {
      cache.Insert(id, FakeChunk(id), 1 + rng.Uniform(150));
    } else {
      (void)cache.Lookup(id);
    }
    if (op % 512 == 0) {
      Status s = cache.Validate();
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
  }
  Status s = cache.Validate();
  EXPECT_TRUE(s.ok()) << s.ToString();
  ChunkCacheStats stats = cache.stats();
  EXPECT_LE(stats.charged_bytes, stats.capacity_bytes);
}

// Each corruption class Validate() claims to detect, injected through the
// test peer and shown to produce kCorruption with the expected diagnosis.
// All caches are single-shard so the peer knows where the entries live.

TEST(ChunkCacheValidateTest, DetectsIndexLruSizeMismatch) {
  ChunkCache cache(/*capacity_bytes=*/1024, /*num_shards=*/1);
  cache.Insert(1, FakeChunk(1), 10);
  ASSERT_TRUE(cache.Validate().ok());
  ChunkCacheTestPeer::DropIndexEntry(&cache);
  Status s = cache.Validate();
  ASSERT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("size mismatch"), std::string::npos)
      << s.ToString();
}

TEST(ChunkCacheValidateTest, DetectsRewiredIndexEntry) {
  ChunkCache cache(/*capacity_bytes=*/1024, /*num_shards=*/1);
  cache.Insert(1, FakeChunk(1), 10);
  cache.Insert(2, FakeChunk(2), 10);
  ASSERT_TRUE(cache.Validate().ok());
  ChunkCacheTestPeer::RebindIndexEntry(&cache);
  Status s = cache.Validate();
  ASSERT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("not indexed"), std::string::npos)
      << s.ToString();
}

TEST(ChunkCacheValidateTest, DetectsResidentNullChunk) {
  ChunkCache cache(/*capacity_bytes=*/1024, /*num_shards=*/1);
  cache.Insert(1, FakeChunk(1), 10);
  ChunkCacheTestPeer::NullOutFrontChunk(&cache);
  Status s = cache.Validate();
  ASSERT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("null chunk"), std::string::npos)
      << s.ToString();
}

TEST(ChunkCacheValidateTest, DetectsChargeAccountingDrift) {
  ChunkCache cache(/*capacity_bytes=*/1024, /*num_shards=*/1);
  cache.Insert(1, FakeChunk(1), 10);
  ChunkCacheTestPeer::SkewFrontCharge(&cache);
  Status s = cache.Validate();
  ASSERT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("drifted"), std::string::npos) << s.ToString();
}

TEST(ChunkCacheValidateTest, DetectsBudgetOverrun) {
  ChunkCache cache(/*capacity_bytes=*/1024, /*num_shards=*/1);
  cache.Insert(1, FakeChunk(1), 10);
  ChunkCacheTestPeer::InflatePastBudget(&cache);
  Status s = cache.Validate();
  ASSERT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("over budget"), std::string::npos)
      << s.ToString();
}

}  // namespace
}  // namespace rstore

#ifndef RSTORE_CORE_CHUNK_CACHE_H_
#define RSTORE_CORE_CHUNK_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>

#include "common/hash.h"
#include "common/status.h"
#include "common/sync.h"
#include "core/chunk.h"

namespace rstore {

/// Hash of a chunk id, for picking a shard and indexing within it. Ids are
/// drawn in sequence, so they are mixed before their low bits pick a shard.
struct ChunkIdHash {
  size_t operator()(ChunkId id) const { return static_cast<size_t>(Mix64(id)); }
};

/// Aggregate counters across all shards (a point-in-time snapshot).
struct ChunkCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  /// Inserts refused because one entry exceeded a whole shard's budget.
  uint64_t rejected_inserts = 0;
  uint64_t entries = 0;
  /// Sum of the charges of resident entries.
  uint64_t charged_bytes = 0;
  uint64_t capacity_bytes = 0;

  double hit_rate() const {
    uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

/// A sharded, byte-budgeted LRU cache of decoded chunk bodies for the read
/// path, keyed by chunk id.
///
/// No entry ever needs invalidating: a chunk's body never changes once
/// written, chunk ids are never reused, and queries read each chunk's map
/// from the StoreCatalog, not from the cache, so rewriting a map (paper §4)
/// leaves every entry valid. Chunks that Repartition retires are no longer
/// asked for and age out of the LRU. Each store owns its cache, so chunk
/// ids never collide in it.
///
/// Entries are handed out as shared_ptr<const Chunk>, so an entry evicted
/// while another thread still extracts records from it stays alive until the
/// last reader drops it. The byte budget is split evenly across the shards;
/// an entry whose charge exceeds a single shard's budget is rejected rather
/// than allowed to evict an entire shard (the paper's chunks are
/// near-constant-size, so a chunk that large indicates a misconfigured
/// capacity, not a hot chunk worth keeping).
///
/// Thread-safe: each shard is guarded by its own rstore::Mutex at
/// kLockRankChunkCache (below the storage-engine ranks — cache operations
/// never call back into a backend).
class ChunkCache {
 public:
  /// `capacity_bytes` is the total budget across all shards (must be > 0);
  /// `num_shards` is rounded up to a power of two.
  explicit ChunkCache(uint64_t capacity_bytes, uint32_t num_shards = 8);

  ChunkCache(const ChunkCache&) = delete;
  ChunkCache& operator=(const ChunkCache&) = delete;

  /// Returns the cached chunk and promotes it to most-recently-used, or
  /// nullptr. Counts a hit or a miss.
  std::shared_ptr<const Chunk> Lookup(ChunkId id);

  /// Inserts (or replaces) an entry charged `charge` bytes against the
  /// budget, evicting least-recently-used entries as needed. An entry larger
  /// than one shard's whole budget is rejected (counted in
  /// rejected_inserts); a rejected replace also drops the stale resident
  /// entry. No-op if `chunk` is null.
  void Insert(ChunkId id, std::shared_ptr<const Chunk> chunk,
              uint64_t charge);

  ChunkCacheStats stats() const;

  uint64_t capacity_bytes() const { return capacity_bytes_; }
  uint32_t num_shards() const { return num_shards_; }
  /// Budget of a single shard — the oversized-entry rejection threshold.
  uint64_t shard_capacity_bytes() const { return shard_capacity_; }

  /// Internal-consistency check over every shard: index and LRU list agree
  /// entry for entry, charges sum to the shard's accounted total, and the
  /// total respects the shard budget. kCorruption on first violation.
  /// Debug builds RSTORE_DCHECK parts of this on every mutation; tests call
  /// it directly.
  Status Validate() const;

 private:
  // Test-only backdoor (defined in tests/core/chunk_cache_test.cc) that
  // corrupts shard state so each Validate detection branch can be proven to
  // fire.
  friend class ChunkCacheTestPeer;

  struct Entry {
    ChunkId id;
    std::shared_ptr<const Chunk> chunk;
    uint64_t charge = 0;
  };
  // front = most recently used.
  using LruList = std::list<Entry>;

  struct Shard {
    mutable Mutex mu{kLockRankChunkCache, "ChunkCache::Shard::mu"};
    LruList lru RSTORE_GUARDED_BY(mu);
    std::unordered_map<ChunkId, LruList::iterator, ChunkIdHash> index
        RSTORE_GUARDED_BY(mu);
    uint64_t charged RSTORE_GUARDED_BY(mu) = 0;
    uint64_t hits RSTORE_GUARDED_BY(mu) = 0;
    uint64_t misses RSTORE_GUARDED_BY(mu) = 0;
    uint64_t insertions RSTORE_GUARDED_BY(mu) = 0;
    uint64_t evictions RSTORE_GUARDED_BY(mu) = 0;
    uint64_t rejected RSTORE_GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(ChunkId id) const {
    return shards_[ChunkIdHash()(id) & shard_mask_];
  }

  /// Evicts from the tail until `incoming` more bytes fit the shard budget.
  void EvictToFit(Shard& shard, uint64_t incoming)
      RSTORE_REQUIRES(shard.mu);

  uint64_t capacity_bytes_;
  uint32_t num_shards_;
  uint64_t shard_mask_;
  uint64_t shard_capacity_;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace rstore

#endif  // RSTORE_CORE_CHUNK_CACHE_H_

#include "core/chunk_cache.h"

#include "common/logging.h"
#include "common/metrics.h"

namespace rstore {

namespace {

uint32_t RoundUpToPowerOfTwo(uint32_t n) {
  if (n == 0) return 1;
  uint32_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Process-wide cache traffic counters (all shards, all caches). Updated
/// lock-free; registration happens once even though Lookup runs under a
/// shard lock (kLockRankMetrics sits below kLockRankChunkCache).
struct CacheMetrics {
  Counter* hits_total;
  Counter* misses_total;
  Counter* insertions_total;
  Counter* evictions_total;

  static const CacheMetrics& Get() {
    static const CacheMetrics metrics = [] {
      MetricsRegistry& registry = MetricsRegistry::Default();
      CacheMetrics m;
      m.hits_total = registry.GetCounter("rstore_cache_hits_total");
      m.misses_total = registry.GetCounter("rstore_cache_misses_total");
      m.insertions_total =
          registry.GetCounter("rstore_cache_insertions_total");
      m.evictions_total = registry.GetCounter("rstore_cache_evictions_total");
      return m;
    }();
    return metrics;
  }
};

}  // namespace

ChunkCache::ChunkCache(uint64_t capacity_bytes, uint32_t num_shards)
    : capacity_bytes_(capacity_bytes),
      num_shards_(RoundUpToPowerOfTwo(num_shards)) {
  RSTORE_CHECK(capacity_bytes_ > 0) << "chunk cache capacity must be > 0";
  shard_mask_ = num_shards_ - 1;
  shard_capacity_ = capacity_bytes_ / num_shards_;
  if (shard_capacity_ == 0) shard_capacity_ = 1;
  shards_ = std::make_unique<Shard[]>(num_shards_);
}

std::shared_ptr<const Chunk> ChunkCache::Lookup(ChunkId id) {
  Shard& shard = ShardFor(id);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(id);
  if (it == shard.index.end()) {
    ++shard.misses;
    CacheMetrics::Get().misses_total->Increment();
    return nullptr;
  }
  ++shard.hits;
  CacheMetrics::Get().hits_total->Increment();
  // Promote to most-recently-used.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->chunk;
}

void ChunkCache::EvictToFit(Shard& shard, uint64_t incoming) {
  while (!shard.lru.empty() &&
         shard.charged + incoming > shard_capacity_) {
    Entry& victim = shard.lru.back();
    RSTORE_DCHECK(shard.charged >= victim.charge);
    shard.charged -= victim.charge;
    shard.index.erase(victim.id);
    shard.lru.pop_back();
    ++shard.evictions;
    CacheMetrics::Get().evictions_total->Increment();
  }
}

void ChunkCache::Insert(ChunkId id, std::shared_ptr<const Chunk> chunk,
                        uint64_t charge) {
  if (chunk == nullptr) return;
  Shard& shard = ShardFor(id);
  MutexLock lock(shard.mu);
  auto it = shard.index.find(id);
  if (it != shard.index.end()) {
    // Replace in place: drop the old charge first so eviction below sees the
    // true occupancy, then refresh content and recency.
    RSTORE_DCHECK(shard.charged >= it->second->charge);
    shard.charged -= it->second->charge;
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }
  if (charge > shard_capacity_) {
    ++shard.rejected;
    return;
  }
  EvictToFit(shard, charge);
  shard.lru.push_front(Entry{id, std::move(chunk), charge});
  shard.index.emplace(id, shard.lru.begin());
  shard.charged += charge;
  ++shard.insertions;
  CacheMetrics::Get().insertions_total->Increment();
  RSTORE_DCHECK(shard.charged <= shard_capacity_);
  RSTORE_DCHECK(shard.index.size() == shard.lru.size());
}

ChunkCacheStats ChunkCache::stats() const {
  ChunkCacheStats out;
  out.capacity_bytes = capacity_bytes_;
  for (uint32_t s = 0; s < num_shards_; ++s) {
    Shard& shard = shards_[s];
    MutexLock lock(shard.mu);
    out.hits += shard.hits;
    out.misses += shard.misses;
    out.insertions += shard.insertions;
    out.evictions += shard.evictions;
    out.rejected_inserts += shard.rejected;
    out.entries += shard.lru.size();
    out.charged_bytes += shard.charged;
  }
  return out;
}

Status ChunkCache::Validate() const {
  for (uint32_t s = 0; s < num_shards_; ++s) {
    Shard& shard = shards_[s];
    MutexLock lock(shard.mu);
    if (shard.index.size() != shard.lru.size()) {
      return Status::Corruption("chunk cache shard " + std::to_string(s) +
                                ": index/LRU size mismatch");
    }
    uint64_t charged = 0;
    for (auto it = shard.lru.begin(); it != shard.lru.end(); ++it) {
      auto idx = shard.index.find(it->id);
      if (idx == shard.index.end() || idx->second != it) {
        return Status::Corruption(
            "chunk cache shard " + std::to_string(s) +
            ": LRU entry not indexed (or indexed to another node)");
      }
      if (it->chunk == nullptr) {
        return Status::Corruption("chunk cache shard " + std::to_string(s) +
                                  ": null chunk resident");
      }
      charged += it->charge;
    }
    if (charged != shard.charged) {
      return Status::Corruption("chunk cache shard " + std::to_string(s) +
                                ": charge accounting drifted");
    }
    if (shard.charged > shard_capacity_) {
      return Status::Corruption("chunk cache shard " + std::to_string(s) +
                                ": over budget");
    }
  }
  return Status::OK();
}

}  // namespace rstore

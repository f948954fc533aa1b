#include "core/store_catalog.h"

#include <algorithm>

namespace rstore {

namespace {

void InsertSorted(std::vector<ChunkId>* list, ChunkId id) {
  auto it = std::lower_bound(list->begin(), list->end(), id);
  if (it == list->end() || *it != id) list->insert(it, id);
}

}  // namespace

ChunkMap StoreCatalog::AddChunk(ChunkId id,
                                std::vector<CompositeKey> records) {
  VersionId origin = kInvalidVersion;
  for (const CompositeKey& ck : records) {
    chunk_of_record_[ck] = id;
    InsertSorted(&key_chunks_[ck.key], id);
    origin = std::min(origin, ck.version);
  }
  if (origin != kInvalidVersion) InsertSorted(&origin_chunks_[origin], id);
  ChunkMap map = MapOf(records);
  for (VersionId v : map.Versions()) AddVersionChunk(v, id);
  chunk_records_[id] = std::move(records);
  return map;
}

void StoreCatalog::AddVersionChunk(VersionId version, ChunkId id) {
  InsertSorted(&version_chunks_[version], id);
}

std::vector<ChunkId> StoreCatalog::ChunksOriginatedAt(
    VersionId version) const {
  auto it = origin_chunks_.find(version);
  return it == origin_chunks_.end() ? std::vector<ChunkId>{} : it->second;
}

std::vector<ChunkId> StoreCatalog::ChunksOfVersion(VersionId version) const {
  auto it = version_chunks_.find(version);
  return it == version_chunks_.end() ? std::vector<ChunkId>{} : it->second;
}

std::vector<ChunkId> StoreCatalog::ChunksOfKey(const std::string& key) const {
  auto it = key_chunks_.find(key);
  return it == key_chunks_.end() ? std::vector<ChunkId>{} : it->second;
}

std::vector<ChunkId> StoreCatalog::AllChunks() const {
  std::vector<ChunkId> out;
  out.reserve(chunk_records_.size());
  for (const auto& [id, records] : chunk_records_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

const std::vector<CompositeKey>* StoreCatalog::RecordsOfChunk(
    ChunkId id) const {
  auto it = chunk_records_.find(id);
  return it == chunk_records_.end() ? nullptr : &it->second;
}

ChunkId StoreCatalog::ChunkOfRecord(const CompositeKey& ck) const {
  auto it = chunk_of_record_.find(ck);
  return it == chunk_of_record_.end() ? kInvalidChunk : it->second;
}

Result<ChunkMap> StoreCatalog::BuildChunkMap(ChunkId id) const {
  const std::vector<CompositeKey>* records = RecordsOfChunk(id);
  if (records == nullptr) {
    return Status::NotFound("chunk " + std::to_string(id) +
                            " not in catalog");
  }
  return MapOf(*records);
}

ChunkMap StoreCatalog::MapOf(const std::vector<CompositeKey>& records) const {
  ChunkMap map(static_cast<uint32_t>(records.size()));
  for (uint32_t i = 0; i < records.size(); ++i) {
    auto it = record_versions_.find(records[i]);
    if (it == record_versions_.end()) continue;
    for (VersionId v : it->second) map.Add(v, i);
  }
  return map;
}

uint64_t StoreCatalog::ChunkMapGeneration(ChunkId id) const {
  auto it = map_generation_.find(id);
  return it == map_generation_.end() ? 0 : it->second;
}

void StoreCatalog::BumpChunkMapGeneration(ChunkId id) {
  ++map_generation_[id];
}

uint64_t StoreCatalog::VersionSpan(VersionId version) const {
  auto it = version_chunks_.find(version);
  return it == version_chunks_.end() ? 0 : it->second.size();
}

uint64_t StoreCatalog::TotalVersionSpan() const {
  uint64_t total = 0;
  for (const auto& [version, chunks] : version_chunks_) {
    total += chunks.size();
  }
  return total;
}

uint64_t StoreCatalog::ProjectionMemoryBytes() const {
  uint64_t total = 0;
  for (const auto& [version, chunks] : version_chunks_) {
    total += sizeof(VersionId) + chunks.size() * sizeof(ChunkId);
  }
  for (const auto& [key, chunks] : key_chunks_) {
    total += key.size() + chunks.size() * sizeof(ChunkId);
  }
  return total;
}

}  // namespace rstore

#include "core/store_catalog.h"

#include <algorithm>

#include "common/logging.h"

namespace rstore {

namespace {

void InsertSorted(std::vector<ChunkId>* list, ChunkId id) {
  auto it = std::lower_bound(list->begin(), list->end(), id);
  if (it == list->end() || *it != id) list->insert(it, id);
}

}  // namespace

void StoreCatalog::Publish(Update update) {
  for (Update::NewChunk& chunk : update.chunks) {
    VersionId origin = kInvalidVersion;
    for (uint32_t i = 0; i < chunk.records.size(); ++i) {
      const CompositeKey& ck = chunk.records[i];
      record_slots_[ck] = RecordSlot{chunk.id, i};
      InsertSorted(&key_chunks_[ck.key], chunk.id);
      origin = std::min(origin, ck.version);
    }
    if (origin != kInvalidVersion) {
      InsertSorted(&origin_chunks_[origin], chunk.id);
    }
    for (VersionId v : chunk.map.Versions()) {
      InsertSorted(&version_chunks_[v], chunk.id);
    }
    chunks_[chunk.id] =
        ChunkEntry{std::move(chunk.records), std::move(chunk.map)};
  }
  for (auto& [id, map] : update.extended_maps) {
    auto it = chunks_.find(id);
    RSTORE_CHECK(it != chunks_.end());
    // Rows are only appended, for versions newer than any the map held.
    const std::vector<VersionId>& held = it->second.map.Versions();
    for (VersionId v : map.Versions()) {
      if (held.empty() || v > held.back()) {
        InsertSorted(&version_chunks_[v], id);
      }
    }
    it->second.map = std::move(map);
  }
  layout_ = update.layout;
  stored_chunk_bytes_ += update.chunk_bytes;
  stored_record_bytes_ += update.record_bytes;
}

ChunkMap StoreCatalog::BuildMap(const std::vector<CompositeKey>& records,
                                const RecordVersionMap& record_versions) {
  ChunkMap map(static_cast<uint32_t>(records.size()));
  for (uint32_t i = 0; i < records.size(); ++i) {
    auto it = record_versions.find(records[i]);
    if (it == record_versions.end()) continue;
    for (VersionId v : it->second) map.Add(v, i);
  }
  return map;
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
  out.reserve(chunks_.size());
  for (const auto& [id, entry] : chunks_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

const std::vector<CompositeKey>* StoreCatalog::RecordsOfChunk(
    ChunkId id) const {
  auto it = chunks_.find(id);
  return it == chunks_.end() ? nullptr : &it->second.records;
}

const ChunkMap* StoreCatalog::MapOfChunk(ChunkId id) const {
  auto it = chunks_.find(id);
  return it == chunks_.end() ? nullptr : &it->second.map;
}

const StoreCatalog::RecordSlot* StoreCatalog::FindRecord(
    const CompositeKey& ck) const {
  auto it = record_slots_.find(ck);
  return it == record_slots_.end() ? nullptr : &it->second;
}

uint64_t StoreCatalog::VersionSpan(VersionId version) const {
  auto it = version_chunks_.find(version);
  return it == version_chunks_.end() ? 0 : it->second.size();
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

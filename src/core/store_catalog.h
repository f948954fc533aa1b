#ifndef RSTORE_CORE_STORE_CATALOG_H_
#define RSTORE_CORE_STORE_CATALOG_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/chunk.h"
#include "core/chunk_map.h"
#include "core/placement.h"
#include "version/dataset.h"

namespace rstore {

/// The application server's in-memory state (paper §2.4): the two lossy
/// projections of the key/version/chunk matrix — version->chunks and
/// key->chunks — plus the bookkeeping the online partitioner needs to
/// rebuild chunk maps from memory (chunk->records and record->versions),
/// and the layout kind whose retrieval rules queries over the chunks follow.
///
/// "We use in-memory hashmaps to store these mappings." The catalog itself
/// is never persisted: each chunk's entries are derived from its record
/// list and record_versions by AddChunk, the one call through which both
/// the write path and RStore::Reopen register chunks.
class StoreCatalog {
 public:
  StoreCatalog() = default;

  /// Registers chunk `id`, whose flattened member keys in order are
  /// `records`: indexes the records under their keys, files the chunk under
  /// its origin (its earliest record version), builds its map from
  /// record_versions and lists the chunk under every version in that map.
  /// Returns the map.
  ChunkMap AddChunk(ChunkId id, std::vector<CompositeKey> records);

  /// Marks `version` as containing records of chunk `id` (drives the
  /// version->chunks projection).
  void AddVersionChunk(VersionId version, ChunkId id);

  /// Chunks whose earliest record was added at `version` (sorted). The
  /// DELTA baseline's chain-replay retrieval fetches chunks by origin
  /// rather than membership.
  std::vector<ChunkId> ChunksOriginatedAt(VersionId version) const;

  /// Authoritative record -> sorted versions map (the source from which all
  /// chunk maps are rebuilt). Callers mutate it directly during loads and
  /// commits.
  RecordVersionMap* record_versions() { return &record_versions_; }
  const RecordVersionMap& record_versions() const { return record_versions_; }

  size_t num_chunks() const { return chunk_records_.size(); }

  /// How the registered chunks answer queries (set by whoever partitions
  /// them; kChunked for an empty catalog).
  LayoutKind layout() const { return layout_; }
  void set_layout(LayoutKind layout) { layout_ = layout; }

  /// Lossy projection 1: chunks holding records of `version` (sorted).
  std::vector<ChunkId> ChunksOfVersion(VersionId version) const;
  /// Lossy projection 2: chunks holding records of primary key `key`
  /// (sorted).
  std::vector<ChunkId> ChunksOfKey(const std::string& key) const;
  /// All chunk ids (for the layouts that must scan everything).
  std::vector<ChunkId> AllChunks() const;

  /// The flattened record list of one chunk.
  const std::vector<CompositeKey>* RecordsOfChunk(ChunkId id) const;
  /// The chunk holding a specific record, or kInvalidChunk.
  static constexpr ChunkId kInvalidChunk = UINT64_MAX;
  ChunkId ChunkOfRecord(const CompositeKey& ck) const;

  /// Rebuilds chunk `id`'s map from record_versions (paper §4: "we recreate
  /// the chunk index from scratch ... possible by maintaining the required
  /// indexes around due to its small memory footprint").
  Result<ChunkMap> BuildChunkMap(ChunkId id) const;

  /// Monotone counter of how many times chunk `id`'s map has been rewritten
  /// in the backend since the chunk was written (0 for a fresh chunk). The
  /// chunk cache keys entries by (chunk, generation): bumping the generation
  /// when the online partitioner rewrites a map (paper §4) makes every
  /// cached copy of the stale decoded chunk unreachable, which is the whole
  /// invalidation story — bodies are immutable, ids are never reused.
  uint64_t ChunkMapGeneration(ChunkId id) const;
  void BumpChunkMapGeneration(ChunkId id);

  /// Per-version span: |ChunksOfVersion(v)|, the §2.5 retrieval-cost metric,
  /// as maintained by the live projections.
  uint64_t VersionSpan(VersionId version) const;
  uint64_t TotalVersionSpan() const;

  /// Approximate heap footprint of the two projections, reported like the
  /// paper's index-size discussion (§2.4).
  uint64_t ProjectionMemoryBytes() const;

 private:
  /// The map of a chunk holding `records`, built from record_versions.
  ChunkMap MapOf(const std::vector<CompositeKey>& records) const;

  std::unordered_map<ChunkId, std::vector<CompositeKey>> chunk_records_;
  std::unordered_map<CompositeKey, ChunkId, CompositeKeyHash>
      chunk_of_record_;
  RecordVersionMap record_versions_;
  // Projections: sorted chunk-id lists ("adjacency lists" in the paper).
  std::unordered_map<VersionId, std::vector<ChunkId>> version_chunks_;
  std::unordered_map<std::string, std::vector<ChunkId>> key_chunks_;
  std::unordered_map<VersionId, std::vector<ChunkId>> origin_chunks_;
  /// Sparse: only chunks whose map has been rewritten at least once.
  std::unordered_map<ChunkId, uint64_t> map_generation_;
  LayoutKind layout_ = LayoutKind::kChunked;
};

}  // namespace rstore

#endif  // RSTORE_CORE_STORE_CATALOG_H_

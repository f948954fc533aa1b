#ifndef RSTORE_CORE_STORE_CATALOG_H_
#define RSTORE_CORE_STORE_CATALOG_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/chunk.h"
#include "core/chunk_map.h"
#include "core/placement.h"
#include "version/dataset.h"

namespace rstore {

/// The application server's in-memory state (paper §2.4): the two lossy
/// projections of the key/version/chunk matrix — version->chunks and
/// key->chunks — plus every chunk's record list and map, the layout kind
/// queries follow, and the stored byte counts. The online partitioner
/// extends maps here without fetching a chunk (§4), and queries extract a
/// version's records from fetched bodies through these maps.
///
/// "We use in-memory hashmaps to store these mappings." The catalog is
/// never persisted and changes only through Publish: the write path builds
/// an Update beside it and publishes it once the chunks it describes have
/// landed, so a failed write leaves the catalog as it was. RStore::Reopen
/// publishes one Update built from its scan of the chunk table.
class StoreCatalog {
 public:
  /// One catalog change.
  struct Update {
    struct NewChunk {
      ChunkId id = 0;
      /// Flattened member keys, in order; map rows index into them.
      std::vector<CompositeKey> records;
      ChunkMap map;
    };
    std::vector<NewChunk> chunks;
    /// Maps of published chunks with rows appended for newer versions.
    std::map<ChunkId, ChunkMap> extended_maps;
    LayoutKind layout = LayoutKind::kChunked;
    /// Encoded bodies and uncompressed records of `chunks`.
    uint64_t chunk_bytes = 0;
    uint64_t record_bytes = 0;
  };

  /// Where a published record is stored: its chunk, and its index in that
  /// chunk's record list (its row in the chunk's map).
  struct RecordSlot {
    ChunkId chunk = 0;
    uint32_t index = 0;
  };

  StoreCatalog() = default;

  /// Applies `update`: registers each new chunk (its records under their
  /// keys, the chunk under its origin — its earliest record version — and
  /// under every version in its map), replaces each extended map and lists
  /// its chunk under the versions it gained, then sets the layout and adds
  /// the byte counts. Queries read the maps published here, so a write
  /// publishes only once its chunks and maps have landed, and never while
  /// an async query is in flight (RStore's async contract).
  void Publish(Update update);

  /// The map of a chunk holding `records`, built from `record_versions`
  /// (paper §4: "we recreate the chunk index from scratch ... possible by
  /// maintaining the required indexes around due to its small memory
  /// footprint"). Records absent from `record_versions` get no rows.
  static ChunkMap BuildMap(const std::vector<CompositeKey>& records,
                           const RecordVersionMap& record_versions);

  /// Chunks whose earliest record was added at `version` (sorted). The
  /// DELTA baseline's chain-replay retrieval fetches chunks by origin
  /// rather than membership.
  std::vector<ChunkId> ChunksOriginatedAt(VersionId version) const;

  size_t num_chunks() const { return chunks_.size(); }

  /// How the registered chunks answer queries (set by whoever partitions
  /// them; kChunked for an empty catalog).
  LayoutKind layout() const { return layout_; }

  /// Lossy projection 1: chunks holding records of `version` (sorted).
  std::vector<ChunkId> ChunksOfVersion(VersionId version) const;
  /// Lossy projection 2: chunks holding records of primary key `key`
  /// (sorted).
  std::vector<ChunkId> ChunksOfKey(const std::string& key) const;
  /// All chunk ids (for the layouts that must scan everything).
  std::vector<ChunkId> AllChunks() const;

  /// The flattened record list of one chunk, or nullptr.
  const std::vector<CompositeKey>* RecordsOfChunk(ChunkId id) const;
  /// The map of one chunk as last published, or nullptr. Queries extract
  /// records through it; the stored copy is written for the online
  /// partitioner's rewrite (§4) and for VerifyIntegrity, never read by a
  /// query.
  const ChunkMap* MapOfChunk(ChunkId id) const;
  /// Where record `ck` is stored, or nullptr if no chunk holds it.
  const RecordSlot* FindRecord(const CompositeKey& ck) const;

  /// |ChunksOfVersion(v)|: a version's span under the chunked layout (see
  /// RStore::VersionSpans for the others).
  uint64_t VersionSpan(VersionId version) const;

  /// Bytes of every published chunk body, and of its records uncompressed.
  uint64_t stored_chunk_bytes() const { return stored_chunk_bytes_; }
  uint64_t stored_record_bytes() const { return stored_record_bytes_; }

  /// Approximate heap footprint of the two projections, reported like the
  /// paper's index-size discussion (§2.4).
  uint64_t ProjectionMemoryBytes() const;

 private:
  struct ChunkEntry {
    std::vector<CompositeKey> records;
    ChunkMap map;
  };

  std::unordered_map<ChunkId, ChunkEntry> chunks_;
  std::unordered_map<CompositeKey, RecordSlot, CompositeKeyHash>
      record_slots_;
  // Projections: sorted chunk-id lists ("adjacency lists" in the paper).
  std::unordered_map<VersionId, std::vector<ChunkId>> version_chunks_;
  std::unordered_map<std::string, std::vector<ChunkId>> key_chunks_;
  std::unordered_map<VersionId, std::vector<ChunkId>> origin_chunks_;
  LayoutKind layout_ = LayoutKind::kChunked;
  uint64_t stored_chunk_bytes_ = 0;
  uint64_t stored_record_bytes_ = 0;
};

}  // namespace rstore

#endif  // RSTORE_CORE_STORE_CATALOG_H_

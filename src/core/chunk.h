#ifndef RSTORE_CORE_CHUNK_H_
#define RSTORE_CORE_CHUNK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/record.h"
#include "core/sub_chunk.h"

namespace rstore {

/// Chunk identifier: generated internally, "not intended to be semantically
/// meaningful" (paper §2.4).
using ChunkId = uint64_t;

/// KVS key under which a chunk is stored.
std::string ChunkKey(ChunkId id);

/// KVS key under which a chunk's map is stored, in the index table (chunks
/// and their maps live "in two distinct tables", paper §2.4).
std::string ChunkMapKey(ChunkId id);

/// The unit of storage in the backend KV store (paper §2.4): a set of
/// sub-chunks. Which of its records belong to which versions is the chunk's
/// map (ChunkMap), stored under its own key and held by the StoreCatalog,
/// from which queries read it; a chunk is only its body.
///
/// The chunk's *record list* is the flattened sequence of all sub-chunk
/// member keys, in sub-chunk order; the chunk map's bitmaps index into it.
///
/// Built and decoded chunks share one flat layout: the sub-chunk encodings
/// back to back (the wire bytes after the id and count), one table of where
/// each sub-chunk's pieces sit in them, and per-record arrays of keys and
/// parent links. Blobs are read in place. The tables hold offsets, never
/// pointers, so a chunk can be copied or moved freely, and a const chunk is
/// never mutated, so cache entries can be shared across threads.
class Chunk {
 public:
  Chunk() = default;
  explicit Chunk(ChunkId id) : id_(id) {}

  ChunkId id() const { return id_; }

  /// Appends a sub-chunk; returns the index of its first record in the
  /// flattened record list.
  uint32_t AddSubChunk(SubChunk sub_chunk);

  size_t num_sub_chunks() const { return sub_chunks_.size(); }
  /// A view of sub-chunk `s`, valid while this chunk is alive and unchanged.
  SubChunkView sub_chunk(size_t s) const;

  uint32_t record_count() const {
    return static_cast<uint32_t>(records_.size());
  }
  /// Flattened record list; chunk-map bitmap indices refer to it.
  const std::vector<CompositeKey>& records() const { return records_; }

  /// Payload of one record (searches the owning sub-chunk and reconstructs
  /// its delta chain). kNotFound if absent. A resolver is needed when the
  /// record is delta-encoded against a base outside this chunk.
  Result<std::string> ExtractPayload(
      const CompositeKey& ck, const PayloadResolver& resolver = nullptr) const;

  /// Payloads of the records at `record_indices` (as returned by the chunk
  /// map), decompressing each involved sub-chunk once. Results are grouped
  /// by sub-chunk, each group in request order.
  Result<std::vector<std::pair<CompositeKey, std::string>>> ExtractRecords(
      const std::vector<uint32_t>& record_indices,
      const PayloadResolver& resolver = nullptr) const;

  /// Total bytes of the sub-chunks' serialized forms — the value the packing
  /// algorithms compare against chunk capacity.
  uint64_t payload_bytes() const { return data_.size() - payload_begin_; }
  /// What a ChunkCache entry is charged against its byte budget: the heap
  /// footprint of the per-sub-chunk layout chunks had before the flat one
  /// (blobs, member keys, record index), so that cache budgets and hit
  /// rates do not move with the in-memory representation. A chunk holds no
  /// map, so none is charged.
  uint64_t ApproximateMemoryBytes() const;
  /// Sum of original record sizes, for compression-ratio reporting.
  uint64_t uncompressed_bytes() const;

  /// Encodes the chunk body (id + sub-chunks). The chunk map is encoded
  /// separately (ChunkMap::EncodeTo) and stored under its own KVS key in the
  /// index table, so the online partitioner can rewrite maps without
  /// fetching chunk payloads (paper §4).
  void EncodeTo(std::string* out) const;
  /// Decodes a whole chunk body, taking it over: its bytes become the
  /// chunk's, so a caller that owns the body moves it in and nothing is
  /// copied. Bytes past the last sub-chunk are corruption.
  static Status DecodeFrom(std::string body, Chunk* out);

  /// Internal-consistency check: re-parsing the sub-chunk encodings must
  /// give back exactly the sub-chunk table and the per-record arrays, with
  /// the encodings back to back up to the end of the bytes. Returns
  /// kCorruption with a description of the first violation.
  Status Validate() const;

 private:
  friend class ChunkTestPeer;

  /// The sub-chunk holding record `record` (which must be in range).
  size_t SubChunkOf(uint32_t record) const;

  ChunkId id_ = 0;
  /// The sub-chunk encodings back to back, starting at payload_begin_: a
  /// decoded chunk keeps its body's id and count in front of them.
  std::string data_;
  uint32_t payload_begin_ = 0;
  std::vector<SubChunkExtent> sub_chunks_;  // offsets into data_
  // Per record, in flattened order.
  std::vector<CompositeKey> records_;
  std::vector<SubChunkMember> members_;
};

/// Every record of `chunks` with its payload — the DELTA baseline's chain
/// replay, which decompresses every record of every delta object since
/// later deltas may be record-level-encoded against earlier records. A
/// record delta-encoded against a base in another chunk is resolved from
/// the records already replayed, so `chunks` must be in ascending id order:
/// ids ascend with origin version, so bases precede dependents.
Result<RecordPayloadMap> ReplayChunks(
    const std::vector<std::shared_ptr<const Chunk>>& chunks);

}  // namespace rstore

#endif  // RSTORE_CORE_CHUNK_H_

#ifndef RSTORE_CORE_CHUNK_MAP_H_
#define RSTORE_CORE_CHUNK_MAP_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "compress/bitmap.h"
#include "version/types.h"

namespace rstore {

/// The per-chunk slice M_Ci of the 3-D key/version/chunk mapping (paper
/// §2.4, Fig. 3): for every version that has records in this chunk, which of
/// the chunk's records belong to it.
///
/// Records are addressed by their index in the chunk's flattened record list
/// (all sub-chunk members in order); per-version membership is a compressed
/// bitmap over those indices ("the adjacency list in each chunk map file is
/// then converted to a bitmap, compressed and stored in the KVS", §3.1).
///
/// In memory the map is flat: the versions in ascending order, and one word
/// array holding each version's bitmap in turn. The wire format is a record
/// count followed by (version, bitmap) pairs in ascending version order,
/// each bitmap in Bitmap's encoding.
class ChunkMap {
 public:
  ChunkMap() = default;
  explicit ChunkMap(uint32_t record_count) : record_count_(record_count) {}

  uint32_t record_count() const { return record_count_; }

  /// Marks record `record_index` as belonging to `version`.
  void Add(VersionId version, uint32_t record_index);

  /// Appends the row of `version`, newer than every version the map holds,
  /// derived from the row of `from` (which the map must hold, with every
  /// record at `cleared`): its words copied, with the records at `cleared`
  /// removed. An empty row is not kept. Returns whether the row was added.
  bool AppendDerivedRow(VersionId version, VersionId from,
                        std::span<const uint32_t> cleared);

  /// Versions with at least one record in this chunk, ascending.
  const std::vector<VersionId>& Versions() const { return versions_; }

  bool HasVersion(VersionId version) const;

  /// Indices of this chunk's records that belong to `version`, ascending
  /// (empty if the version has none).
  std::vector<uint32_t> RecordsOf(VersionId version) const;

  void EncodeTo(std::string* out) const;
  /// Rejects versions that repeat or descend: EncodeTo only writes
  /// ascending ones.
  static Status DecodeFrom(Slice* input, ChunkMap* out);

  bool operator==(const ChunkMap& other) const {
    return record_count_ == other.record_count_ &&
           versions_ == other.versions_ && words_ == other.words_;
  }

 private:
  size_t words_per_version() const { return Bitmap::WordsFor(record_count_); }
  /// The bitmap of the version at `slot` in versions_.
  std::span<const uint64_t> WordsAt(size_t slot) const {
    return std::span<const uint64_t>(words_).subspan(
        slot * words_per_version(), words_per_version());
  }

  uint32_t record_count_ = 0;
  std::vector<VersionId> versions_;  // ascending
  std::vector<uint64_t> words_;      // versions_.size() bitmaps, in order
};

}  // namespace rstore

#endif  // RSTORE_CORE_CHUNK_MAP_H_

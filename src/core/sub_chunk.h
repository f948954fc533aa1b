#ifndef RSTORE_CORE_SUB_CHUNK_H_
#define RSTORE_CORE_SUB_CHUNK_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "compress/compressor.h"
#include "version/types.h"

namespace rstore {

/// Resolves the payload of a record stored elsewhere; needed to extract
/// members that are delta-encoded against an *external* base record (the
/// record-level compression of the DELTA baseline, where a version's updated
/// record deltas against its predecessor in an earlier chunk).
using PayloadResolver = std::function<Result<std::string>(const CompositeKey&)>;

/// One member's parent link, as decoded from a sub-chunk's member table.
struct SubChunkMember {
  /// parent sentinel marking a member based on a record outside its
  /// sub-chunk.
  static constexpr uint32_t kExternalParent = UINT32_MAX;

  /// Index (within the sub-chunk) of the member this one deltas against:
  /// 0 for the head, an earlier member otherwise, or kExternalParent.
  uint32_t parent = 0;
  /// For an external parent: offset of its composite-key encoding in the
  /// buffer holding the sub-chunk.
  uint32_t external_key_at = 0;

  bool operator==(const SubChunkMember&) const = default;
};

/// Where one sub-chunk's encoding sits in the buffer that holds it. Offsets
/// are from the buffer's start, so the table stays valid when the buffer is
/// moved or copied.
struct SubChunkExtent {
  uint32_t begin = 0;       // first byte of the encoding
  uint32_t blob_begin = 0;  // first byte of the compressed blob
  uint32_t end = 0;         // one past the blob, the encoding's last byte
  /// Index of the head member in the owner's member arrays.
  uint32_t first_member = 0;
  uint32_t member_count = 0;
  CompressionType compression = CompressionType::kNone;
  uint64_t uncompressed_bytes = 0;

  bool operator==(const SubChunkExtent&) const = default;
};

/// A read-only view of one sub-chunk: its members' keys and parent links,
/// and its blob, read in place from the buffer that holds the encoding.
/// SubChunk and Chunk both hand these out, so extraction is written once.
/// The view borrows from its owner and must not outlive it.
class SubChunkView {
 public:
  SubChunkView(const char* buffer, const SubChunkExtent& extent,
               const CompositeKey* keys, const SubChunkMember* members)
      : buffer_(buffer), extent_(extent), keys_(keys), members_(members) {}

  std::span<const CompositeKey> keys() const {
    return {keys_, extent_.member_count};
  }

  /// True if any member deltas against a record outside this sub-chunk
  /// (extraction then requires a resolver).
  bool HasExternalParents() const;

  /// Reconstructs every member payload, decompressing the blob once.
  Result<std::vector<std::string>> ExtractAllPayloads(
      const PayloadResolver& resolver = nullptr) const;
  /// The payload of one member; kNotFound if `ck` is not one.
  Result<std::string> ExtractPayload(
      const CompositeKey& ck, const PayloadResolver& resolver = nullptr) const;

 private:
  const char* buffer_;
  SubChunkExtent extent_;
  const CompositeKey* keys_;
  const SubChunkMember* members_;
};

/// A sub-chunk: up to k records sharing a primary key, stored compressed
/// together (paper §2.4, §3.4). Most sub-chunks hold a single record.
///
/// Members must be "connected" in the version tree; each non-head member is
/// delta-encoded against its parent record ("all the sibling records would
/// be delta-ed against their common parent", §3.4) and the whole blob is
/// then run through the configured block codec. The head member doubles as
/// the sub-chunk's representative composite key.
///
/// Wire format (inside a chunk):
///   varint member_count
///   per member: composite key, varint parent_index (self-index for head;
///               kExternalParent followed by the external parent's key)
///   byte compression, varint uncompressed_bytes
///   varint blob_size, blob = codec(concat of length-prefixed payload/delta)
///
/// A SubChunk holds its own encoding plus the decoded member table, the
/// same layout a Chunk keeps for all its sub-chunks at once.
class SubChunk {
 public:
  using PayloadResolver = rstore::PayloadResolver;

  /// One record going into a sub-chunk.
  struct Member {
    CompositeKey key;
    /// Index (into the member vector) of the record this one is delta-ed
    /// against; must equal the member's own index for the head (index 0),
    /// and reference an earlier member otherwise. Ignored when
    /// external_parent is set.
    uint32_t parent_index = 0;
    std::string payload;
    /// If set, the member is delta-encoded against this record, which lives
    /// OUTSIDE the sub-chunk; extraction then requires a PayloadResolver.
    std::optional<CompositeKey> external_parent;
    /// Build-time only: the external parent's payload (used to compute the
    /// delta; never stored).
    std::string external_parent_payload;
  };

  SubChunk() = default;

  /// Encodes `members` (head first) into a sub-chunk. Payload bytes are
  /// consumed. Fails on malformed parent references.
  static Result<SubChunk> Build(std::vector<Member> members,
                                CompressionType compression);

  /// Representative composite key (the head member's).
  const CompositeKey& id() const { return keys_[0]; }
  size_t num_records() const { return keys_.size(); }
  const std::vector<CompositeKey>& keys() const { return keys_; }
  bool Contains(const CompositeKey& ck) const;

  /// Bytes this sub-chunk occupies inside a chunk: the packing algorithms
  /// budget chunk capacity against this.
  uint64_t serialized_size() const { return encoded_.size(); }
  /// Sum of the original (uncompressed) payload sizes, for compression-ratio
  /// reporting (paper Fig. 10).
  uint64_t uncompressed_bytes() const { return extent_.uncompressed_bytes; }

  bool HasExternalParents() const { return view().HasExternalParents(); }
  Result<std::string> ExtractPayload(
      const CompositeKey& ck, const PayloadResolver& resolver = nullptr) const {
    return view().ExtractPayload(ck, resolver);
  }
  Result<std::vector<std::string>> ExtractAllPayloads(
      const PayloadResolver& resolver = nullptr) const {
    return view().ExtractAllPayloads(resolver);
  }

  void EncodeTo(std::string* out) const { out->append(encoded_); }
  static Status DecodeFrom(Slice* input, SubChunk* out);

 private:
  friend class Chunk;

  SubChunkView view() const {
    return SubChunkView(encoded_.data(), extent_, keys_.data(),
                        members_.data());
  }

  /// Parses the sub-chunk encoding at the front of `*input`, which must lie
  /// inside the buffer starting at `buffer`: appends the members' keys and
  /// parent links to `keys` and `members`, and describes the encoding's
  /// place in the buffer in `extent`. Every count and offset in the input
  /// is checked; a malformed encoding is kCorruption. Chunk decodes all its
  /// sub-chunks through this too.
  static Status Parse(const char* buffer, Slice* input,
                      std::vector<CompositeKey>* keys,
                      std::vector<SubChunkMember>* members,
                      SubChunkExtent* extent);

  std::string encoded_;
  std::vector<CompositeKey> keys_;
  std::vector<SubChunkMember> members_;
  SubChunkExtent extent_;
};

}  // namespace rstore

#endif  // RSTORE_CORE_SUB_CHUNK_H_

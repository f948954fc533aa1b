#ifndef RSTORE_COMPRESS_BITMAP_H_
#define RSTORE_COMPRESS_BITMAP_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace rstore {

/// A bitmap over positions [0, size) with a compressed wire format.
///
/// Chunk maps store, per version, which of the chunk's records belong to it
/// (paper §3.1: "the adjacency list in each chunk map file is then converted
/// to a bitmap, compressed and stored in the KVS"). In-memory this is a plain
/// word array for O(1) Set/Test; Serialize emits a WAH-style run-length
/// encoding — a varint stream alternating [run of identical words][literal
/// word count + words] — which collapses the long all-zero / all-one spans
/// typical of version membership.
class Bitmap {
 public:
  Bitmap() : size_(0) {}
  explicit Bitmap(size_t size) : size_(size), words_((size + 63) / 64, 0) {}

  size_t size() const { return size_; }

  void Set(size_t i);
  void Clear(size_t i);
  bool Test(size_t i) const;

  /// Number of set bits.
  size_t Count() const;

  /// Indices of all set bits, ascending.
  std::vector<uint32_t> ToVector() const { return SetBits(words_); }

  /// In-place union/intersection; both bitmaps must have equal size.
  void UnionWith(const Bitmap& other);
  void IntersectWith(const Bitmap& other);

  void SerializeTo(std::string* out) const {
    SerializeWords(size_, words_, out);
  }
  static Status DeserializeFrom(Slice* input, Bitmap* out);

  // The codec over caller-owned words. ChunkMap keeps all its per-version
  // bitmaps in one flat word array and goes through these, so the wire
  // format has one implementation. A bitmap of `size` bits has
  // WordsFor(size) words.
  static size_t WordsFor(uint64_t size) { return (size + 63) / 64; }
  /// Largest size DeserializeSize accepts: far above any legitimate bitmap
  /// (chunk maps cover at most a chunk's records) but far below memory
  /// exhaustion (64M bits, 8 MB of words).
  static constexpr uint64_t kMaxBits = 1ull << 26;
  /// Indices of the set bits of `words`, ascending, reserved by popcount.
  static std::vector<uint32_t> SetBits(std::span<const uint64_t> words);
  static void SerializeWords(uint64_t size, std::span<const uint64_t> words,
                             std::string* out);
  /// Reads a serialized bitmap's size. The size is untrusted, so sizes past
  /// the decoder's cap are corruption.
  static Status DeserializeSize(Slice* input, uint64_t* size);
  /// Reads the token stream that follows the size into `words`, which must
  /// be WordsFor(size) zeroed words. Bits at or past `size` are cleared.
  static Status DeserializeWords(Slice* input, uint64_t size,
                                 std::span<uint64_t> words);

  bool operator==(const Bitmap& other) const {
    return size_ == other.size_ && words_ == other.words_;
  }

 private:
  size_t size_;
  std::vector<uint64_t> words_;
};

}  // namespace rstore

#endif  // RSTORE_COMPRESS_BITMAP_H_

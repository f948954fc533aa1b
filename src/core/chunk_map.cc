#include "core/chunk_map.h"

#include <algorithm>

#include "common/coding.h"
#include "common/logging.h"

namespace rstore {

void ChunkMap::Add(VersionId version, uint32_t record_index) {
  RSTORE_DCHECK(record_index < record_count_);
  auto it = std::lower_bound(versions_.begin(), versions_.end(), version);
  const size_t slot = static_cast<size_t>(it - versions_.begin());
  const size_t width = words_per_version();
  if (it == versions_.end() || *it != version) {
    versions_.insert(it, version);
    words_.insert(words_.begin() + static_cast<ptrdiff_t>(slot * width),
                  width, 0);
  }
  words_[slot * width + (record_index >> 6)] |= 1ull << (record_index & 63);
}

bool ChunkMap::HasVersion(VersionId version) const {
  return std::binary_search(versions_.begin(), versions_.end(), version);
}

std::vector<uint32_t> ChunkMap::RecordsOf(VersionId version) const {
  auto it = std::lower_bound(versions_.begin(), versions_.end(), version);
  if (it == versions_.end() || *it != version) return {};
  return Bitmap::SetBits(
      WordsAt(static_cast<size_t>(it - versions_.begin())));
}

void ChunkMap::EncodeTo(std::string* out) const {
  PutVarint32(out, record_count_);
  PutVarint64(out, versions_.size());
  for (size_t slot = 0; slot < versions_.size(); ++slot) {
    PutVarint32(out, versions_[slot]);
    Bitmap::SerializeWords(record_count_, WordsAt(slot), out);
  }
}

Status ChunkMap::DecodeFrom(Slice* input, ChunkMap* out) {
  *out = ChunkMap();
  RSTORE_RETURN_IF_ERROR(GetVarint32(input, &out->record_count_));
  uint64_t count;
  RSTORE_RETURN_IF_ERROR(GetVarint64(input, &count));
  // Untrusted count: each version costs at least 2 encoded bytes.
  if (count > input->size()) {
    return Status::Corruption("chunk map version count exceeds input");
  }
  const size_t width = out->words_per_version();
  out->versions_.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    VersionId version;
    RSTORE_RETURN_IF_ERROR(GetVarint32(input, &version));
    if (i > 0 && version <= out->versions_.back()) {
      return Status::Corruption("chunk map versions not ascending");
    }
    uint64_t size;
    RSTORE_RETURN_IF_ERROR(Bitmap::DeserializeSize(input, &size));
    if (size != out->record_count_) {
      return Status::Corruption("chunk map bitmap size mismatch");
    }
    // One reservation for the whole map, capped at one maximal bitmap so
    // the untrusted count never sizes an allocation on its own; a larger
    // map grows as its bitmaps check out.
    if (i == 0) {
      out->words_.reserve(std::min<uint64_t>(
          count * width, Bitmap::WordsFor(Bitmap::kMaxBits)));
    }
    out->versions_.push_back(version);
    out->words_.resize(out->words_.size() + width, 0);
    RSTORE_RETURN_IF_ERROR(Bitmap::DeserializeWords(
        input, size,
        std::span<uint64_t>(out->words_).subspan(i * width, width)));
  }
  return Status::OK();
}

}  // namespace rstore

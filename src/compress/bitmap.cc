#include "compress/bitmap.h"

#include <bit>

#include "common/coding.h"
#include "common/logging.h"

namespace rstore {

void Bitmap::Set(size_t i) {
  RSTORE_DCHECK(i < size_);
  words_[i >> 6] |= (1ull << (i & 63));
}

void Bitmap::Clear(size_t i) {
  RSTORE_DCHECK(i < size_);
  words_[i >> 6] &= ~(1ull << (i & 63));
}

bool Bitmap::Test(size_t i) const {
  RSTORE_DCHECK(i < size_);
  return (words_[i >> 6] >> (i & 63)) & 1;
}

size_t Bitmap::Count() const {
  size_t count = 0;
  for (uint64_t w : words_) count += static_cast<size_t>(std::popcount(w));
  return count;
}

std::vector<uint32_t> Bitmap::SetBits(std::span<const uint64_t> words) {
  size_t count = 0;
  for (uint64_t w : words) count += static_cast<size_t>(std::popcount(w));
  std::vector<uint32_t> out;
  out.reserve(count);
  for (size_t wi = 0; wi < words.size(); ++wi) {
    uint64_t w = words[wi];
    while (w) {
      int bit = std::countr_zero(w);
      out.push_back(static_cast<uint32_t>(wi * 64 + static_cast<size_t>(bit)));
      w &= w - 1;
    }
  }
  return out;
}

void Bitmap::UnionWith(const Bitmap& other) {
  RSTORE_CHECK(size_ == other.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
}

void Bitmap::IntersectWith(const Bitmap& other) {
  RSTORE_CHECK(size_ == other.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
}

void Bitmap::SerializeWords(uint64_t size, std::span<const uint64_t> words,
                            std::string* out) {
  RSTORE_DCHECK(words.size() == WordsFor(size));
  PutVarint64(out, size);
  // Token stream: (count << 2 | kind). kind 0 = run of zero words,
  // kind 1 = run of all-one words, kind 2 = literal words (count follows
  // inline as fixed64 each).
  size_t i = 0;
  while (i < words.size()) {
    uint64_t w = words[i];
    if (w == 0 || w == ~0ull) {
      size_t j = i;
      while (j < words.size() && words[j] == w) ++j;
      uint64_t kind = (w == 0) ? 0 : 1;
      PutVarint64(out, ((j - i) << 2) | kind);
      i = j;
    } else {
      size_t j = i;
      while (j < words.size() && words[j] != 0 && words[j] != ~0ull) ++j;
      PutVarint64(out, ((j - i) << 2) | 2);
      for (size_t k = i; k < j; ++k) PutFixed64(out, words[k]);
      i = j;
    }
  }
}

Status Bitmap::DeserializeSize(Slice* input, uint64_t* size) {
  RSTORE_RETURN_IF_ERROR(GetVarint64(input, size));
  if (*size > kMaxBits) {
    return Status::Corruption("bitmap size implausibly large");
  }
  return Status::OK();
}

Status Bitmap::DeserializeWords(Slice* input, uint64_t size,
                                std::span<uint64_t> words) {
  RSTORE_DCHECK(words.size() == WordsFor(size));
  size_t filled = 0;
  while (filled < words.size()) {
    uint64_t token;
    RSTORE_RETURN_IF_ERROR(GetVarint64(input, &token));
    uint64_t count = token >> 2;
    uint64_t kind = token & 3;
    if (count > words.size() - filled) {
      return Status::Corruption("bitmap: word overrun");
    }
    switch (kind) {
      case 0:
        filled += count;
        break;
      case 1:
        for (uint64_t k = 0; k < count; ++k) words[filled++] = ~0ull;
        break;
      case 2:
        for (uint64_t k = 0; k < count; ++k) {
          uint64_t w;
          RSTORE_RETURN_IF_ERROR(GetFixed64(input, &w));
          words[filled++] = w;
        }
        break;
      default:
        return Status::Corruption("bitmap: bad token kind");
    }
  }
  // Trailing bits beyond `size` in the last word must be zero for the
  // equality operator to be meaningful.
  if (size % 64 != 0 && !words.empty()) {
    words.back() &= (1ull << (size % 64)) - 1;
  }
  return Status::OK();
}

Status Bitmap::DeserializeFrom(Slice* input, Bitmap* out) {
  uint64_t size;
  RSTORE_RETURN_IF_ERROR(DeserializeSize(input, &size));
  Bitmap result(size);
  RSTORE_RETURN_IF_ERROR(DeserializeWords(input, size, result.words_));
  *out = std::move(result);
  return Status::OK();
}

}  // namespace rstore

#include "compress/delta_codec.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/coding.h"

namespace rstore {
namespace delta_codec {

namespace {

constexpr size_t kAnchor = 8;     // bytes hashed per anchor
constexpr size_t kMinCopy = 12;   // below this a COPY costs more than ADD

inline uint64_t Hash8(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v * 0x9e3779b97f4a7c15ull;
}

void EmitAdd(const unsigned char* data, size_t start, size_t end,
             std::string* out) {
  if (end <= start) return;
  size_t len = end - start;
  PutVarint64(out, (len << 1) | 0);
  out->append(reinterpret_cast<const char*>(data + start), len);
}

/// The base's anchor index: open addressing with linear probing over the
/// anchors' 64-bit hashes, at most half full. The first anchor inserted per
/// hash wins. The slot array is kept per thread across calls (Encode runs
/// once per delta-coded record) and only the prefix a call uses is cleared.
class AnchorIndex {
 public:
  /// Empties the index and sizes it for `anchors` insertions.
  void Reset(size_t anchors) {
    int bits = 4;
    while ((size_t{1} << bits) < 2 * anchors) ++bits;
    const size_t capacity = size_t{1} << bits;
    if (slots_.size() < capacity) slots_.resize(capacity);
    std::fill_n(slots_.begin(), capacity, Slot{});
    shift_ = 64 - bits;
    mask_ = capacity - 1;
  }

  void Insert(uint64_t hash, uint32_t pos) {
    for (size_t s = hash >> shift_;; s = (s + 1) & mask_) {
      Slot& slot = slots_[s];
      if (slot.pos_plus_one == 0) {
        slot = Slot{hash, pos + 1};
        return;
      }
      if (slot.hash == hash) return;
    }
  }

  /// The position of the first anchor inserted with `hash`, or -1.
  int64_t Find(uint64_t hash) const {
    for (size_t s = hash >> shift_;; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (slot.pos_plus_one == 0) return -1;
      if (slot.hash == hash) return slot.pos_plus_one - 1;
    }
  }

 private:
  struct Slot {
    uint64_t hash = 0;
    uint32_t pos_plus_one = 0;  // 0 marks an empty slot
  };

  std::vector<Slot> slots_;
  int shift_ = 60;
  size_t mask_ = 15;
};

}  // namespace

void Encode(Slice base, Slice target, std::string* delta) {
  delta->clear();
  PutVarint64(delta, target.size());
  if (target.empty()) return;

  const unsigned char* b = reinterpret_cast<const unsigned char*>(base.data());
  const unsigned char* t =
      reinterpret_cast<const unsigned char*>(target.data());
  const size_t bn = base.size();
  const size_t tn = target.size();

  if (bn < kAnchor) {
    EmitAdd(t, 0, tn, delta);
    return;
  }

  // Index every 4th anchor of the base (dense enough for record-sized
  // payloads, 4x cheaper to build).
  thread_local AnchorIndex index;
  index.Reset((bn - kAnchor) / 4 + 1);
  for (size_t i = 0; i + kAnchor <= bn; i += 4) {
    index.Insert(Hash8(b + i), static_cast<uint32_t>(i));
  }

  size_t add_start = 0;
  size_t i = 0;
  while (i + kAnchor <= tn) {
    const int64_t found = index.Find(Hash8(t + i));
    bool matched = false;
    if (found >= 0) {
      size_t bp = static_cast<size_t>(found);
      if (std::memcmp(b + bp, t + i, kAnchor) == 0) {
        // Extend forward.
        size_t fwd = kAnchor;
        while (bp + fwd < bn && i + fwd < tn && b[bp + fwd] == t[i + fwd]) {
          ++fwd;
        }
        // Extend backward into the pending ADD region.
        size_t back = 0;
        while (bp > back && i > add_start + back && b[bp - back - 1] == t[i - back - 1]) {
          ++back;
        }
        size_t copy_len = fwd + back;
        if (copy_len >= kMinCopy) {
          EmitAdd(t, add_start, i - back, delta);
          PutVarint64(delta, (copy_len << 1) | 1);
          PutVarint64(delta, bp - back);
          i += fwd;
          add_start = i;
          matched = true;
        }
      }
    }
    if (!matched) ++i;
  }
  EmitAdd(t, add_start, tn, delta);
}

Status Apply(Slice base, Slice delta, std::string* target) {
  target->clear();
  Slice input = delta;
  uint64_t expected;
  RSTORE_RETURN_IF_ERROR(GetVarint64(&input, &expected));
  // Untrusted header: bound the up-front allocation.
  target->reserve(std::min<uint64_t>(expected, 1u << 20));
  while (!input.empty()) {
    uint64_t token;
    RSTORE_RETURN_IF_ERROR(GetVarint64(&input, &token));
    uint64_t len = token >> 1;
    if ((token & 1) == 0) {
      if (input.size() < len) {
        return Status::Corruption("delta: truncated ADD data");
      }
      target->append(input.data(), len);
      input.RemovePrefix(len);
    } else {
      uint64_t offset;
      RSTORE_RETURN_IF_ERROR(GetVarint64(&input, &offset));
      if (offset + len > base.size()) {
        return Status::Corruption("delta: COPY out of base range");
      }
      target->append(base.data() + offset, len);
    }
  }
  if (target->size() != expected) {
    return Status::Corruption("delta: size mismatch after apply");
  }
  return Status::OK();
}

}  // namespace delta_codec
}  // namespace rstore

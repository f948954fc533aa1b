#include "compress/lz_codec.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <vector>

#include "common/coding.h"

namespace rstore {
namespace lz {

namespace {

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxDistance = 1u << 20;  // 1 MB window: chunks are ~1 MB.
constexpr int kHashBits = 16;
constexpr int kMaxChainProbes = 32;

inline uint32_t Hash4(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

inline size_t MatchLength(const unsigned char* a, const unsigned char* b,
                          const unsigned char* end) {
  const unsigned char* start = b;
  // Eight bytes per step; the first differing byte in memory order ends
  // the match. `a` precedes `b`, so both reads stay inside the input.
  while (end - b >= 8) {
    uint64_t x;
    uint64_t y;
    std::memcpy(&x, a, 8);
    std::memcpy(&y, b, 8);
    if (x != y) {
      const uint64_t diff = x ^ y;
      const int bits = std::endian::native == std::endian::little
                           ? std::countr_zero(diff)
                           : std::countl_zero(diff);
      return static_cast<size_t>(b - start) + static_cast<size_t>(bits / 8);
    }
    a += 8;
    b += 8;
  }
  while (b < end && *a == *b) {
    ++a;
    ++b;
  }
  return static_cast<size_t>(b - start);
}

void EmitLiterals(const unsigned char* base, size_t start, size_t end,
                  std::string* out) {
  if (end <= start) return;
  size_t len = end - start;
  PutVarint64(out, (len << 1) | 0);
  out->append(reinterpret_cast<const char*>(base + start), len);
}

/// The match finder's tables, kept per thread across calls: Compress runs
/// once per sub-chunk, and allocating and zeroing the 256 KB head each time
/// cost more than compressing a small sub-chunk. Entries hold
/// `offset + pos + 1`, where `offset` grows by each call's input size, so
/// every entry an earlier call left behind is <= the current offset and
/// reads as empty. The head is cleared only when the offset would wrap.
struct MatchTables {
  std::vector<uint32_t> head = std::vector<uint32_t>(1u << kHashBits, 0);
  std::vector<uint32_t> prev;  // chain links, grown to the largest input
  uint32_t offset = 0;
};

MatchTables& ThreadMatchTables() {
  thread_local MatchTables tables;
  return tables;
}

}  // namespace

void AdvanceTableOffsetForTesting(uint32_t offset) {
  MatchTables& tables = ThreadMatchTables();
  // Raising the offset only ages more entries out; lowering it could revive
  // stale ones.
  tables.offset = std::max(tables.offset, offset);
}

void Compress(Slice input, std::string* output) {
  output->clear();
  PutVarint64(output, input.size());
  if (input.empty()) return;

  const unsigned char* data =
      reinterpret_cast<const unsigned char*>(input.data());
  const size_t n = input.size();
  const unsigned char* end = data + n;

  if (n < kMinMatch + 4) {
    EmitLiterals(data, 0, n, output);
    return;
  }

  // head[h] = most recent position with hash h; prev[i] = previous position
  // in i's chain. Positions are stored as base + pos + 1, so any value
  // <= base means "empty" (see MatchTables).
  MatchTables& tables = ThreadMatchTables();
  if (n > std::numeric_limits<uint32_t>::max() - tables.offset) {
    std::fill(tables.head.begin(), tables.head.end(), 0);
    tables.offset = 0;
  }
  if (tables.prev.size() < n) tables.prev.resize(n);
  const uint32_t base = tables.offset;
  tables.offset += static_cast<uint32_t>(n);
  uint32_t* head = tables.head.data();
  uint32_t* prev = tables.prev.data();

  size_t literal_start = 0;
  size_t i = 0;
  const size_t limit = n - kMinMatch;

  auto insert = [&](size_t pos) {
    uint32_t h = Hash4(data + pos);
    prev[pos] = head[h];
    head[h] = base + static_cast<uint32_t>(pos + 1);
  };

  auto find_match = [&](size_t pos, size_t* match_pos) -> size_t {
    uint32_t h = Hash4(data + pos);
    uint32_t cand = head[h];
    size_t best_len = 0;
    int probes = kMaxChainProbes;
    while (cand > base && probes-- > 0) {
      size_t c = cand - base - 1;
      if (pos - c > kMaxDistance) break;
      size_t len = MatchLength(data + c, data + pos, end);
      if (len > best_len) {
        best_len = len;
        *match_pos = c;
      }
      cand = prev[c];
    }
    return best_len;
  };

  while (i <= limit) {
    size_t match_pos = 0;
    size_t len = find_match(i, &match_pos);
    if (len >= kMinMatch) {
      // Lazy evaluation: if the next position has a strictly longer match,
      // emit this byte as a literal and take the later match instead.
      if (i + 1 <= limit) {
        size_t next_pos = 0;
        insert(i);
        size_t next_len = find_match(i + 1, &next_pos);
        if (next_len > len + 1) {
          ++i;
          continue;  // i-1..i stay pending as literals
        }
        EmitLiterals(data, literal_start, i, output);
        PutVarint64(output, (len << 1) | 1);
        PutVarint64(output, i - match_pos);
        // Index positions inside the match (sparsely for long matches).
        size_t match_end = i + len;
        size_t step = len > 64 ? 8 : 1;
        for (size_t p = i + 1; p + kMinMatch <= n && p < match_end;
             p += step) {
          insert(p);
        }
        i = match_end;
        literal_start = i;
        continue;
      }
      EmitLiterals(data, literal_start, i, output);
      PutVarint64(output, (len << 1) | 1);
      PutVarint64(output, i - match_pos);
      i += len;
      literal_start = i;
      continue;
    }
    insert(i);
    ++i;
  }
  EmitLiterals(data, literal_start, n, output);
}

Status Decompress(Slice input, std::string* output) {
  output->clear();
  uint64_t expected;
  RSTORE_RETURN_IF_ERROR(GetVarint64(&input, &expected));
  // The header size is untrusted; cap it (a frame legitimately larger than
  // this would be split upstream — chunks are ~1 MB) and reserve
  // conservatively so a lying header cannot trigger a huge allocation or an
  // unbounded RLE expansion loop.
  constexpr uint64_t kMaxFrameBytes = 1ull << 28;
  if (expected > kMaxFrameBytes) {
    return Status::Corruption("lz: implausible frame size");
  }
  output->reserve(std::min<uint64_t>(expected, 1u << 20));
  while (!input.empty()) {
    uint64_t token;
    RSTORE_RETURN_IF_ERROR(GetVarint64(&input, &token));
    uint64_t len = token >> 1;
    if ((token & 1) == 0) {
      if (input.size() < len) return Status::Corruption("lz: truncated literals");
      output->append(input.data(), len);
      input.RemovePrefix(len);
    } else {
      uint64_t distance;
      RSTORE_RETURN_IF_ERROR(GetVarint64(&input, &distance));
      if (distance == 0 || distance > output->size()) {
        return Status::Corruption("lz: match distance out of range");
      }
      if (output->size() + len > expected) {
        return Status::Corruption("lz: output overrun");
      }
      // Byte-at-a-time copy: overlapping matches (distance < len) are the
      // RLE case and must replicate already-written bytes.
      size_t src = output->size() - distance;
      for (uint64_t k = 0; k < len; ++k) {
        output->push_back((*output)[src + k]);
      }
    }
  }
  if (output->size() != expected) {
    return Status::Corruption("lz: size mismatch after decompress");
  }
  return Status::OK();
}

Result<uint64_t> PeekUncompressedSize(Slice input) {
  uint64_t size;
  Status s = GetVarint64(&input, &size);
  if (!s.ok()) return s;
  return size;
}

}  // namespace lz
}  // namespace rstore

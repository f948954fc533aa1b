#ifndef RSTORE_COMPRESS_LZ_CODEC_H_
#define RSTORE_COMPRESS_LZ_CODEC_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"

namespace rstore {

/// A self-contained LZ77-style byte compressor.
///
/// RStore stores sub-chunks "in a compressed fashion" (paper §2.4); the paper
/// uses an off-the-shelf tool, this repo implements the equivalent from
/// scratch so the whole substrate is buildable offline. The format is a
/// varint-framed token stream:
///
///   [varint uncompressed_size] then tokens until exhausted:
///     literal run: varint (len << 1 | 0), followed by len raw bytes
///     match:       varint (len << 1 | 1), varint distance  (len >= 4)
///
/// Match finding uses a 4-byte hash table with chained probing, greedy with
/// one-byte lazy evaluation — roughly LZ4-class ratios on JSON text, which is
/// what the compression-ratio experiments (paper Fig. 10) need.
namespace lz {

/// Compresses `input`, appending to `*output` (which is cleared first).
/// Never fails; incompressible data degrades to one literal run with ~1.01x
/// expansion plus the header. The match tables are reused per thread across
/// calls, so the encoder takes no locks and allocates only on a thread's
/// first call and for an input larger than any before it on that thread;
/// the output depends on `input` alone.
void Compress(Slice input, std::string* output);

/// Test-only: raises the calling thread's match-table position offset to at
/// least `offset`, so that a test can drive Compress into the branch that
/// clears the tables before positions would wrap.
void AdvanceTableOffsetForTesting(uint32_t offset);

/// Decompresses a buffer produced by Compress. Returns kCorruption on any
/// malformed framing (bad varint, out-of-range match, size mismatch).
Status Decompress(Slice input, std::string* output);

/// Uncompressed size recorded in the frame header (cheap peek).
Result<uint64_t> PeekUncompressedSize(Slice input);

}  // namespace lz
}  // namespace rstore

#endif  // RSTORE_COMPRESS_LZ_CODEC_H_

#ifndef RSTORE_COMPRESS_DELTA_CODEC_H_
#define RSTORE_COMPRESS_DELTA_CODEC_H_

#include <string>

#include "common/slice.h"
#include "common/status.h"

namespace rstore {

/// Byte-level delta encoding between two record payloads.
///
/// Inside a sub-chunk, sibling record versions are "delta-ed against their
/// common parent" (paper §3.4): instead of storing each version in full we
/// store COPY(base_offset, len) / ADD(bytes) instructions that rebuild the
/// target from the base. Two versions of a large JSON document that differ
/// in one attribute then cost O(change), which is what makes sub-chunk
/// compression ratios track the update percentage Pd (paper Fig. 10).
///
/// Encoding: [varint target_size] then ops:
///   COPY: varint (len << 1 | 1), varint base_offset
///   ADD:  varint (len << 1 | 0), len raw bytes
///
/// The encoder indexes the base with 8-byte anchors and extends matches both
/// forward and backward, a simplified bsdiff/xdelta scheme.
namespace delta_codec {

/// Produces a delta such that Apply(base, delta) == target. Appends to
/// `*delta` (cleared first). Worst case (nothing shared) the delta is the
/// target plus a few bytes of framing. The anchor index is reused per
/// thread across calls, so the encoder takes no locks; the output depends
/// on `base` and `target` alone.
void Encode(Slice base, Slice target, std::string* delta);

/// Reconstructs the target from the base and a delta produced by Encode.
Status Apply(Slice base, Slice delta, std::string* target);

}  // namespace delta_codec
}  // namespace rstore

#endif  // RSTORE_COMPRESS_DELTA_CODEC_H_

#ifndef RSTORE_CORE_PLACEMENT_H_
#define RSTORE_CORE_PLACEMENT_H_

#include <cstdint>
#include <vector>

#include "core/options.h"
#include "version/dataset.h"

namespace rstore {

/// The unit the partitioning algorithms place into chunks: a sub-chunk
/// (paper §3.4 treats sub-chunks as records; with k = 1 an item is exactly
/// one record).
struct PlacementItem {
  /// The sub-chunk's representative composite key.
  CompositeKey id;
  /// Version where the representative originates (placement-time home for
  /// the traversal algorithms).
  VersionId origin_version = kInvalidVersion;
  /// Sorted union of the member records' version sets: the versions whose
  /// retrieval must touch whatever chunk this item lands in.
  std::vector<VersionId> versions;
  /// Serialized size, charged against chunk capacity.
  uint64_t bytes = 0;
};

/// How the stored layout answers queries; the baselines of paper §2.2 have
/// fundamentally different retrieval rules than the chunked design.
enum class LayoutKind {
  /// Chunked layout with projection indexes (RStore proper; also the
  /// single-address-space baseline, which is the degenerate one-record-per-
  /// chunk case).
  kChunked,
  /// Per-version delta objects: reconstructing V fetches every object on
  /// the root->V path.
  kDeltaChain,
  /// One chunk per primary key: full-version retrieval fetches everything.
  kSubChunkPerKey,
};

/// Output of a partitioning algorithm: which items go in which chunk.
/// Chunk c holds the items whose indices are in `chunks[c]`; item order
/// within a chunk is preserved into the physical chunk layout.
struct Partitioning {
  LayoutKind layout = LayoutKind::kChunked;
  std::vector<std::vector<uint32_t>> chunks;

  uint64_t num_chunks() const { return chunks.size(); }
  uint64_t num_items() const {
    uint64_t n = 0;
    for (const auto& c : chunks) n += c.size();
    return n;
  }
};

/// Shared bin-filling helper enforcing the fixed-chunk-size assumption
/// (paper §2.5): chunks target `capacity` bytes with up to
/// `overflow_fraction` tolerated, and a chunk never starts a new item once
/// at or beyond capacity.
class ChunkPacker {
 public:
  ChunkPacker(uint64_t capacity, double overflow_fraction);

  /// Appends an item to the current chunk, closing it first if the item
  /// would not fit. An item larger than the hard limit gets a chunk of its
  /// own.
  void Add(uint32_t item_index, uint64_t bytes);

  /// Forces the next Add into a fresh chunk (used at version boundaries by
  /// BOTTOM-UP, paper §3.2: "the chunking process at any given version
  /// starts filling a new chunk").
  void StartNewChunk();

  /// Returns the accumulated partitioning. If `merge_partials` is set,
  /// adjacent chunks are merged in emission order: each chunk joins the one
  /// before it when that one is under capacity and the two fit together, so
  /// full chunks pass through as barriers — "the partial chunks that may get
  /// created at the end of every chunking step are merged at the end to
  /// reduce fragmentation" (§3.2).
  Partitioning Finish(bool merge_partials);

 private:
  struct Bin {
    std::vector<uint32_t> items;
    uint64_t bytes = 0;
  };

  uint64_t capacity_;
  uint64_t hard_limit_;
  std::vector<Bin> bins_;
  bool force_new_ = true;
};

/// Total version span of a partitioning: sum over versions of the number of
/// chunks that must be retrieved to reconstruct that version — the paper's
/// headline quality metric (Figs. 8-10). For kDeltaChain the span of V is
/// the chunk count along root->V; for kSubChunkPerKey it is the total chunk
/// count for every version.
uint64_t TotalVersionSpan(const Partitioning& partitioning,
                          const std::vector<PlacementItem>& items,
                          const VersionGraph& graph);

/// Per-version spans (same semantics), indexed by VersionId.
std::vector<uint64_t> PerVersionSpans(const Partitioning& partitioning,
                                      const std::vector<PlacementItem>& items,
                                      const VersionGraph& graph);

}  // namespace rstore

#endif  // RSTORE_CORE_PLACEMENT_H_

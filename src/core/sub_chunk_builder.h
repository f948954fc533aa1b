#ifndef RSTORE_CORE_SUB_CHUNK_BUILDER_H_
#define RSTORE_CORE_SUB_CHUNK_BUILDER_H_

#include <vector>

#include "common/result.h"
#include "core/options.h"
#include "core/placement.h"
#include "core/record.h"
#include "core/sub_chunk.h"
#include "version/dataset.h"

namespace rstore {

/// Output of sub-chunk construction: the encoded sub-chunks and, parallel to
/// them, the placement items the partitioning algorithms operate on
/// ("treating the sub-chunks as records", paper §3.4).
struct SubChunkBuildResult {
  std::vector<SubChunk> sub_chunks;
  std::vector<PlacementItem> items;

  uint64_t total_compressed_bytes() const;
  uint64_t total_uncompressed_bytes() const;
  /// uncompressed / compressed, the ratio reported in paper Fig. 10.
  double compression_ratio() const;
};

/// Groups records into sub-chunks of at most Options::max_sub_chunk_records
/// (k) records per primary key and encodes them (paper §2.5 Case 2 / §3.4 /
/// Algorithm 5).
///
/// Within a primary key, the record versions form a forest: record 〈K,Vc〉's
/// parent is the record 〈K,Vp〉 it superseded (the matching ∆⁻ entry of
/// version Vc's delta). Sub-chunks are connected subtrees of that forest —
/// enforcing the paper's constraint that grouped records "form a connected
/// subgraph of the version tree" — carved greedily bottom-up: child
/// components accumulate into their parent, the largest child component is
/// cut off whenever the accumulated size would exceed k, and a component
/// reaching exactly k is emitted immediately. Each non-head member is
/// delta-encoded against its record parent.
///
/// `dataset` must be a version tree. Every added composite key in the
/// dataset must have a payload in `payloads`, and its versions in
/// `record_versions` (a drain passes only its batch's new records).
///
/// Keys are carved in blocks by CarveWorkers(records, ingest_shards, cores)
/// threads; the output is byte-identical at every thread count.
Result<SubChunkBuildResult> BuildSubChunks(const VersionedDataset& dataset,
                                           const RecordPayloadMap& payloads,
                                           const RecordVersionMap& record_versions,
                                           const Options& options);

/// Records each carve worker must have before another thread pays for its
/// start-up. Measured on a shared 4-core VM (Release): a perfbench drain of
/// about 1,535 records spent 9.9–10.1 ms of CPU carving on 3 workers and
/// 6.7–6.9 ms on the calling thread, while perfbench's 19,950-record bulk
/// input took 99 ms wall (177 ms CPU) on 3 threads against 162 ms on one,
/// and a 100,000-record × 1 KB version 0.53 s on 4 threads against 1.39 s.
constexpr size_t kCarveGrainRecords = 4096;

/// Worker threads for carving `records` records: min(ingest_shards (0 means
/// `cores`), cores, records / kCarveGrainRecords), and at least one, which
/// is the calling thread.
unsigned CarveWorkers(size_t records, uint32_t ingest_shards, unsigned cores);

}  // namespace rstore

#endif  // RSTORE_CORE_SUB_CHUNK_BUILDER_H_

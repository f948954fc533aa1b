#ifndef RSTORE_CORE_OPTIONS_H_
#define RSTORE_CORE_OPTIONS_H_

#include <cstdint>
#include <string>

#include "compress/compressor.h"

namespace rstore {

/// The partitioning algorithms of paper §3, plus the §2.2 baselines.
enum class PartitionAlgorithm {
  /// §3.2: bottom-up traversal of the version tree, chunking records by the
  /// number of consecutive versions they share. The paper's best performer.
  kBottomUp,
  /// §3.1: min-hash shingles over each record's version set, sorted
  /// lexicographically.
  kShingle,
  /// §3.3: greedy depth-first traversal.
  kDepthFirst,
  /// §3.3: greedy breadth-first traversal (always <= DepthFirst in quality,
  /// kept as the paper's ablation).
  kBreadthFirst,
  /// §2.2 baseline: per-version delta objects, git-style. Version retrieval
  /// replays the whole root-to-version chain. Each updated record is stored
  /// as a delta against the record it supersedes, in an earlier delta
  /// object (the record-level compression, the c*d factor, of the paper's
  /// Table 1), which is why retrieval must decompress the whole chain.
  kDeltaBaseline,
  /// §2.2 baseline: one group per primary key ("sub-chunk approach").
  /// Version retrieval must touch every group.
  kSubChunkBaseline,
  /// §2.2 baseline: every record stored individually under its composite
  /// key ("single address space").
  kSingleAddressSpace,
};

const char* PartitionAlgorithmName(PartitionAlgorithm algorithm);

/// How queries behave when the backend cannot serve some chunks (replicas
/// down, retries exhausted, requests timed out).
enum class ReadMode {
  /// Any unfetchable chunk fails the whole query (the default: queries are
  /// exact or they are errors).
  kStrict,
  /// GetVersion/GetRange return the records of every chunk that could be
  /// fetched and report the rest in the QueryDegradation out-param and the
  /// missing_chunks stat. Point and history queries stay strict.
  kBestEffort,
};

/// Tuning knobs of the RStore layer (paper §2.4-§2.5). The defaults mirror
/// the paper's main configuration: 1 MB chunks, 25 % allowed overflow, no
/// record-level compression (k = 1), BOTTOM-UP partitioning.
struct Options {
  PartitionAlgorithm algorithm = PartitionAlgorithm::kBottomUp;

  /// Target chunk size C. "we chose this chunk size since it provides a good
  /// balance between the number of queries and amount of data retrieved"
  /// (§5.2, 1 MB).
  uint64_t chunk_capacity_bytes = 1 << 20;

  /// Fixed chunk size assumption: "variations of upto 25% allowed" (§2.5).
  double chunk_overflow_fraction = 0.25;

  /// Max records with the same primary key compressed together in one
  /// sub-chunk (k of §2.5 Case 2). k = 1 disables record-level compression.
  uint32_t max_sub_chunk_records = 1;

  /// Subtree size limit β for BOTTOM-UP (§3.2.1). 0 = unlimited.
  uint32_t subtree_limit = 0;

  /// Number of min-hash functions l for the shingle partitioner (§3.1).
  uint32_t shingle_count = 4;

  /// Codec applied to sub-chunk payload blobs.
  CompressionType compression = CompressionType::kLZ;

  /// Commits accumulate in the delta store and are partitioned in batches of
  /// this many versions (§4, "batch size").
  uint32_t online_batch_size = 64;

  /// Byte budget of the decoded-chunk cache on the read path. 0 (the
  /// default) disables caching entirely: every query fetches its chunks from
  /// the backend, matching the paper's evaluated prototype. When positive,
  /// the store builds its own 8-shard ChunkCache of this capacity at Open
  /// and all query classes consult it before issuing MultiGets.
  uint64_t cache_capacity_bytes = 0;

  /// Maximum thread count for sub-chunk carving and compression, the one
  /// CPU-heavy step of the write path (BuildSubChunks). 1 (the default)
  /// keeps the serial paper prototype; 0 means one thread per core, and
  /// larger values are capped at the core count. A write also gets at most
  /// one thread per kCarveGrainRecords (4,096) records, so a batch under
  /// twice that, such as a typical drain, carves on the calling thread. The
  /// partitioning decision and the chunk writes stay serial, so stored bytes
  /// are identical at every value.
  uint32_t ingest_shards = 1;

  /// Degradation policy for queries over a partially available backend
  /// (see ReadMode). Strict by default.
  ReadMode read_mode = ReadMode::kStrict;

  /// KVS table names: chunks and indexes live "in two distinct tables"
  /// (§2.4).
  std::string chunk_table = "rstore_chunks";
  std::string index_table = "rstore_index";
};

}  // namespace rstore

#endif  // RSTORE_CORE_OPTIONS_H_

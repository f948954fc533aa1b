#ifndef RSTORE_CORE_REPORT_H_
#define RSTORE_CORE_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/rstore.h"

namespace rstore {

/// An operator-facing snapshot of a store's layout health: storage
/// breakdown, compression, index footprint, chunk fill levels, and the
/// distribution of per-version spans (the §2.5 retrieval-cost metric). Used
/// by the CLI shell's `report` command and handy when tuning the Options
/// knobs against a live workload.
struct StoreReport {
  uint32_t num_versions = 0;
  uint64_t num_chunks = 0;

  /// Bytes of chunk bodies in the backend vs. the raw record bytes they
  /// encode.
  uint64_t chunk_bytes = 0;
  uint64_t uncompressed_record_bytes = 0;
  double compression_ratio = 1.0;
  /// Bytes of the index table: chunk maps, the graph key and any branch
  /// and tag keys. The projections live only in memory.
  uint64_t index_table_bytes = 0;
  /// In-memory footprint of the two lossy projections.
  uint64_t projection_memory_bytes = 0;

  /// Per-version span distribution.
  uint64_t total_span = 0;
  double avg_span = 0;
  uint64_t max_span = 0;
  /// Span histogram: buckets [0], [1-2], [3-5], [6-10], [11-25], [26-100],
  /// [101+], counting versions.
  std::vector<uint64_t> span_histogram;

  /// Average chunk fill relative to the configured capacity (fixed-chunk-
  /// size assumption health: the paper expects chunks "rarely more than
  /// 5-10% overfull" and mostly near capacity).
  double avg_chunk_fill = 0;
  uint64_t overfull_chunks = 0;

  /// Generic per-layer counter blocks (e.g. the chunk cache); ToString
  /// renders each as "<layer>: name=value ..." so new layers show up in
  /// reports without bespoke fields or printing code.
  struct LayerCounters {
    std::string layer;
    std::vector<std::pair<std::string, uint64_t>> counters;
  };
  std::vector<LayerCounters> layers;

  /// Multi-line human-readable rendering.
  std::string ToString() const;
};

/// Gathers a report from the store and its backend. Costs one scan of each
/// table; no chunk payload decoding.
Result<StoreReport> BuildStoreReport(const RStore& store, KVStore* backend);

}  // namespace rstore

#endif  // RSTORE_CORE_REPORT_H_

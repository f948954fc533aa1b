#include "core/report.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/string_util.h"

namespace rstore {

namespace {

size_t SpanBucket(uint64_t span) {
  if (span == 0) return 0;
  if (span <= 2) return 1;
  if (span <= 5) return 2;
  if (span <= 10) return 3;
  if (span <= 25) return 4;
  if (span <= 100) return 5;
  return 6;
}

const char* kBucketLabels[] = {"0", "1-2", "3-5", "6-10", "11-25", "26-100",
                               "101+"};

}  // namespace

Result<StoreReport> BuildStoreReport(const RStore& store, KVStore* backend) {
  StoreReport report;
  report.num_versions = store.num_versions();
  report.num_chunks = store.catalog().num_chunks();
  report.compression_ratio = store.CompressionRatio();
  report.projection_memory_bytes = store.catalog().ProjectionMemoryBytes();

  const Options& options = store.options();
  Status s = backend->Scan(options.chunk_table, [&](Slice, Slice value) {
    report.chunk_bytes += value.size();
    if (value.size() >
        options.chunk_capacity_bytes +
            static_cast<uint64_t>(options.chunk_capacity_bytes *
                                  options.chunk_overflow_fraction)) {
      ++report.overfull_chunks;
    }
  });
  RSTORE_RETURN_IF_ERROR(s);
  s = backend->Scan(options.index_table, [&](Slice, Slice value) {
    report.index_table_bytes += value.size();
  });
  RSTORE_RETURN_IF_ERROR(s);

  report.uncompressed_record_bytes = static_cast<uint64_t>(
      report.compression_ratio * static_cast<double>(report.chunk_bytes));

  report.span_histogram.assign(7, 0);
  for (uint64_t span : store.VersionSpans()) {
    report.total_span += span;
    report.max_span = std::max(report.max_span, span);
    ++report.span_histogram[SpanBucket(span)];
  }
  report.avg_span = report.num_versions == 0
                        ? 0
                        : static_cast<double>(report.total_span) /
                              report.num_versions;
  report.avg_chunk_fill =
      report.num_chunks == 0
          ? 0
          : static_cast<double>(report.chunk_bytes) /
                (static_cast<double>(report.num_chunks) *
                 static_cast<double>(options.chunk_capacity_bytes));

  if (const ChunkCache* cache = store.chunk_cache()) {
    ChunkCacheStats cs = cache->stats();
    StoreReport::LayerCounters layer;
    layer.layer = "chunk cache";
    layer.counters = {
        {"hits", cs.hits},
        {"misses", cs.misses},
        {"hit_rate_pct", static_cast<uint64_t>(cs.hit_rate() * 100.0 + 0.5)},
        {"evictions", cs.evictions},
        {"entries", cs.entries},
        {"bytes", cs.charged_bytes},
        {"capacity", cs.capacity_bytes},
    };
    report.layers.push_back(std::move(layer));
  }

  // Fold the process-wide registry counters in, one layer block per
  // subsystem token ("rstore_kvs_bytes_read_total" -> layer "metrics/kvs",
  // counter "bytes_read_total"). Note these are process-wide totals: with
  // several stores in one process the blocks aggregate across all of them.
  MetricsSnapshot snapshot = MetricsRegistry::Default().Snapshot();
  std::vector<StoreReport::LayerCounters> metric_layers;
  constexpr char kPrefix[] = "rstore_";
  for (const auto& [name, value] : snapshot.counters) {
    if (name.rfind(kPrefix, 0) != 0) continue;
    const size_t subsystem_start = sizeof(kPrefix) - 1;
    const size_t subsystem_end = name.find('_', subsystem_start);
    if (subsystem_end == std::string::npos) continue;
    const std::string layer_name =
        "metrics/" + name.substr(subsystem_start,
                                 subsystem_end - subsystem_start);
    if (metric_layers.empty() || metric_layers.back().layer != layer_name) {
      // Snapshot counters are sorted by name, so a subsystem's counters are
      // contiguous: a new layer starts exactly when the prefix changes.
      metric_layers.push_back(StoreReport::LayerCounters{layer_name, {}});
    }
    metric_layers.back().counters.emplace_back(
        name.substr(subsystem_end + 1), value);
  }
  for (StoreReport::LayerCounters& layer : metric_layers) {
    report.layers.push_back(std::move(layer));
  }
  return report;
}

std::string StoreReport::ToString() const {
  std::string out;
  out += StringPrintf("versions:          %u\n", num_versions);
  out += StringPrintf("chunks:            %llu (%s stored, %.2fx compression, "
                      "avg fill %.0f%%, %llu overfull)\n",
                      (unsigned long long)num_chunks,
                      HumanBytes(chunk_bytes).c_str(), compression_ratio,
                      avg_chunk_fill * 100.0,
                      (unsigned long long)overfull_chunks);
  out += StringPrintf("index table:       %s on backend, %s in memory\n",
                      HumanBytes(index_table_bytes).c_str(),
                      HumanBytes(projection_memory_bytes).c_str());
  out += StringPrintf("version span:      total %llu, avg %.1f, max %llu\n",
                      (unsigned long long)total_span, avg_span,
                      (unsigned long long)max_span);
  out += "span histogram:    ";
  for (size_t i = 0; i < span_histogram.size(); ++i) {
    if (span_histogram[i] == 0) continue;
    out += StringPrintf("[%s]=%llu ", kBucketLabels[i],
                        (unsigned long long)span_histogram[i]);
  }
  out += "\n";
  for (const LayerCounters& layer : layers) {
    out += StringPrintf("%-18s ", (layer.layer + ":").c_str());
    for (size_t i = 0; i < layer.counters.size(); ++i) {
      out += StringPrintf("%s%s=%llu", i == 0 ? "" : " ",
                          layer.counters[i].first.c_str(),
                          (unsigned long long)layer.counters[i].second);
    }
    out += "\n";
  }
  return out;
}

}  // namespace rstore

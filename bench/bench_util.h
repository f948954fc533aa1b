#ifndef RSTORE_BENCH_BENCH_UTIL_H_
#define RSTORE_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/partitioner.h"
#include "core/placement.h"
#include "core/rstore.h"
#include "core/sub_chunk_builder.h"
#include "kvstore/cluster.h"
#include "workload/dataset_generator.h"

namespace rstore {
namespace bench {

/// True when RSTORE_BENCH_SMOKE is set (and not "0"): benches shrink their
/// datasets/iteration counts so the whole binary finishes in seconds. CI
/// uses this to validate that every bench still runs and emits parseable
/// BENCH_*.json; the numbers themselves are meaningless in smoke mode.
inline bool SmokeMode() {
  const char* env = std::getenv("RSTORE_BENCH_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// Machine-readable companion to a bench's human output: flat metric-name ->
/// value pairs written as BENCH_<name>.json in the working directory, the
/// per-PR perf trajectory CI tracks. Add() as results materialize, Write()
/// once at the end of main.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  void Add(const std::string& metric, double value) {
    entries_.emplace_back(metric, std::isfinite(value) ? value : 0.0);
  }

  void Write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return;
    }
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      out += StringPrintf("%s\n  \"%s\": %.17g", i == 0 ? "" : ",",
                          entries_[i].first.c_str(), entries_[i].second);
    }
    out += "\n}\n";
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", path.c_str());
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, double>> entries_;
};

/// Chunk capacity preserving the paper's regime: ~1 MB chunks against
/// ~10 MB versions means roughly 10+ chunks per full version, so scale the
/// capacity to a tenth of the (approximate) version size.
inline uint64_t ScaledChunkCapacity(const workload::GeneratedDataset& gen) {
  uint64_t version_bytes =
      gen.stats.avg_records_per_version *
      (gen.stats.unique_records
           ? gen.stats.unique_record_bytes / gen.stats.unique_records
           : 200);
  return std::max<uint64_t>(4096, version_bytes / 10);
}

struct SpanResult {
  uint64_t total_span = 0;
  uint64_t num_chunks = 0;
  double partition_seconds = 0;
  double compression_ratio = 1.0;
  std::vector<uint64_t> per_version;
};

/// Sub-chunks + partitions `gen` with `algorithm`, returning span metrics.
/// `options` carries k / beta / capacity; options.algorithm is overridden.
inline SpanResult RunPartitioning(const workload::GeneratedDataset& gen,
                                  PartitionAlgorithm algorithm,
                                  Options options) {
  options.algorithm = algorithm;
  RecordVersionMap record_versions = gen.dataset.BuildRecordVersionMap();
  auto built =
      BuildSubChunks(gen.dataset, gen.payloads, record_versions, options);
  if (!built.ok()) {
    std::fprintf(stderr, "sub-chunking failed: %s\n",
                 built.status().ToString().c_str());
    std::exit(1);
  }
  auto partitioner = CreatePartitioner(algorithm);
  PartitionInput input;
  input.dataset = &gen.dataset;
  input.items = &built->items;
  input.options = &options;
  Stopwatch timer;
  auto partitioning = partitioner->Partition(input);
  SpanResult result;
  result.partition_seconds = timer.ElapsedSeconds();
  if (!partitioning.ok()) {
    std::fprintf(stderr, "partitioning failed: %s\n",
                 partitioning.status().ToString().c_str());
    std::exit(1);
  }
  result.per_version =
      PerVersionSpans(*partitioning, built->items, gen.dataset.graph);
  for (uint64_t span : result.per_version) result.total_span += span;
  result.num_chunks = partitioning->num_chunks();
  result.compression_ratio = built->compression_ratio();
  return result;
}

/// Opens an RStore over a fresh simulated cluster and bulk-loads `gen`.
struct LoadedStore {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<RStore> store;
};

inline LoadedStore LoadStore(const workload::GeneratedDataset& gen,
                             PartitionAlgorithm algorithm, Options options,
                             uint32_t num_nodes) {
  options.algorithm = algorithm;
  LoadedStore out;
  ClusterOptions cluster_options;
  cluster_options.num_nodes = num_nodes;
  out.cluster = std::make_unique<Cluster>(cluster_options);
  auto store = RStore::Open(out.cluster.get(), options);
  if (!store.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 store.status().ToString().c_str());
    std::exit(1);
  }
  out.store = std::move(store).value();
  Status s = out.store->BulkLoad(gen.dataset, gen.payloads);
  if (!s.ok()) {
    std::fprintf(stderr, "bulk load failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  return out;
}

}  // namespace bench
}  // namespace rstore

#endif  // RSTORE_BENCH_BENCH_UTIL_H_

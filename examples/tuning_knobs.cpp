// Demonstrates the tuning knobs of paper §2.4: the same synthetic workload
// is stored under every partitioning algorithm (and the §2.2 baselines), and
// the resulting storage / retrieval trade-offs are printed side by side —
// the "adapting to a specific data and query workload" story.
//
//   $ ./build/examples/tuning_knobs

#include <cstdio>

#include "common/string_util.h"
#include "core/rstore.h"
#include "kvstore/cluster.h"
#include "workload/dataset_generator.h"
#include "workload/query_workload.h"

using namespace rstore;
using namespace rstore::workload;

int main() {
  // A moderately branched collection: 120 versions of ~400 records.
  DatasetConfig config;
  config.name = "tuning-demo";
  config.num_versions = 120;
  config.records_per_version = 400;
  config.update_fraction = 0.08;
  config.branch_probability = 0.15;
  config.record_size_bytes = 400;
  config.pd = 0.05;
  GeneratedDataset gen = GenerateDataset(config);
  std::printf("workload: %u versions, %llu unique records (%s)\n\n",
              config.num_versions,
              (unsigned long long)gen.stats.unique_records,
              HumanBytes(gen.stats.unique_record_bytes).c_str());

  struct Setting {
    const char* label;
    PartitionAlgorithm algorithm;
    uint32_t k;
  };
  const Setting settings[] = {
      {"BOTTOM-UP k=1", PartitionAlgorithm::kBottomUp, 1},
      {"BOTTOM-UP k=8", PartitionAlgorithm::kBottomUp, 8},
      {"SHINGLE   k=8", PartitionAlgorithm::kShingle, 8},
      {"DFS       k=8", PartitionAlgorithm::kDepthFirst, 8},
      {"DELTA (git-style)", PartitionAlgorithm::kDeltaBaseline, 1},
      {"SUBCHUNK (per-key)", PartitionAlgorithm::kSubChunkBaseline, 1000000},
      {"SINGLE-ADDRESS", PartitionAlgorithm::kSingleAddressSpace, 1},
  };

  std::printf("%-20s %10s %10s | %12s %12s %12s\n", "Setting", "storage",
              "#chunks", "Q1 chunks", "Q3 chunks", "Q1 sim-ms");
  for (const Setting& setting : settings) {
    ClusterOptions cluster_options;
    cluster_options.num_nodes = 4;
    Cluster cluster(cluster_options);
    Options options;
    options.algorithm = setting.algorithm;
    options.chunk_capacity_bytes = 32 << 10;
    options.max_sub_chunk_records = setting.k;
    auto store = RStore::Open(&cluster, options);
    if (!store.ok() ||
        !(*store)->BulkLoad(gen.dataset, gen.payloads).ok()) {
      std::fprintf(stderr, "%s: load failed\n", setting.label);
      return 1;
    }
    uint64_t storage = 0;
    (void)cluster.Scan(options.chunk_table,
                       [&](Slice, Slice v) { storage += v.size(); });

    QueryWorkloadGenerator qgen(&gen.dataset, 17);
    QueryStats q1;
    for (const Query& q : qgen.FullVersionQueries(10)) {
      if (!(*store)->GetVersion(q.version, &q1).ok()) return 1;
    }
    QueryStats q3;
    for (const Query& q : qgen.EvolutionQueries(10)) {
      if (!(*store)->GetHistory(q.key, &q3).ok()) return 1;
    }
    std::printf("%-20s %10s %10llu | %12.1f %12.1f %12.2f\n", setting.label,
                HumanBytes(storage).c_str(),
                (unsigned long long)(*store)->NumChunks(),
                q1.chunks_fetched / 10.0, q3.chunks_fetched / 10.0,
                q1.simulated_micros / 1000.0 / 10.0);
  }
  std::printf(
      "\nReading the table: BOTTOM-UP k>1 wins the mixed workload; SUBCHUNK "
      "wins pure history scans (Q3) at the cost of catastrophic checkouts; "
      "DELTA is compact but pays long chains; SINGLE-ADDRESS pays one round "
      "trip per record.\n");

  // The read-path cache knob: the same BOTTOM-UP store re-run with a chunk
  // cache, replaying the Q1 sweep twice. The cold pass pays the backend
  // once; the warm pass is served from memory (Options::cache_capacity_bytes
  // = 0 keeps it off, matching the paper's prototype).
  std::printf("\n%-20s %10s %12s %12s %8s\n", "Cache capacity", "hit rate",
              "cold sim-ms", "warm sim-ms", "entries");
  for (uint64_t capacity :
       {uint64_t{0}, uint64_t{2} << 20, uint64_t{16} << 20}) {
    ClusterOptions cluster_options;
    cluster_options.num_nodes = 4;
    Cluster cluster(cluster_options);
    Options options;
    options.chunk_capacity_bytes = 32 << 10;
    options.max_sub_chunk_records = 8;
    options.cache_capacity_bytes = capacity;
    auto store = RStore::Open(&cluster, options);
    if (!store.ok() ||
        !(*store)->BulkLoad(gen.dataset, gen.payloads).ok()) {
      return 1;
    }
    QueryWorkloadGenerator qgen(&gen.dataset, 17);
    auto queries = qgen.FullVersionQueries(10);
    QueryStats cold, warm;
    for (const Query& q : queries) {
      if (!(*store)->GetVersion(q.version, &cold).ok()) return 1;
    }
    for (const Query& q : queries) {
      if (!(*store)->GetVersion(q.version, &warm).ok()) return 1;
    }
    const ChunkCache* cache = (*store)->chunk_cache();
    std::printf("%-20s %9.1f%% %12.2f %12.2f %8llu\n",
                capacity == 0 ? "off" : HumanBytes(capacity).c_str(),
                cache == nullptr ? 0.0 : cache->stats().hit_rate() * 100.0,
                cold.simulated_micros / 1000.0 / 10.0,
                warm.simulated_micros / 1000.0 / 10.0,
                cache == nullptr
                    ? 0ull
                    : (unsigned long long)cache->stats().entries);
  }
  std::printf(
      "\nA cache holding the working set turns repeated checkouts into "
      "memory reads; an undersized one degrades gracefully to the uncached "
      "cost.\n");
  return 0;
}

// Ingest-path benchmark: commit throughput and batch processing cost as the
// online batch size varies (§4: "a smaller batch size would result in faster
// partitioning, however the quality of partitioning degrades"). Also shows
// the write-store footprint between batches and the layout-quality price
// already quantified in Fig. 13.

#include <cstdio>
#include <unordered_map>

#include "bench_util.h"
#include "common/string_util.h"
#include "workload/dataset_catalog.h"

namespace {

using namespace rstore;
using namespace rstore::workload;
using namespace rstore::bench;

}  // namespace

int main() {
  auto config = *CatalogConfig("B1");
  GeneratedDataset gen = GenerateDataset(config);
  uint32_t versions = gen.dataset.graph.size();
  if (SmokeMode()) versions = std::min<uint32_t>(versions, 24);
  std::printf("=== Ingest throughput vs online batch size (dataset B1, "
              "%u versions, BOTTOM-UP) ===\n\n",
              versions);
  std::printf("%-8s %14s %14s %14s %12s\n", "Batch", "commits/s",
              "ingest total", "total span", "#chunks");

  BenchReport report("ingest");
  for (uint32_t batch : {1u, 8u, 32u, 128u, versions}) {
    MemoryStore backend;
    Options options;
    options.chunk_capacity_bytes = ScaledChunkCapacity(gen);
    options.max_sub_chunk_records = 1;
    options.compression = CompressionType::kNone;
    options.online_batch_size = batch;
    auto store = RStore::Open(&backend, options);
    if (!store.ok()) return 1;

    Stopwatch timer;
    for (VersionId v = 0; v < versions; ++v) {
      CommitDelta delta;
      const VersionDelta& d = gen.dataset.deltas[v];
      std::unordered_map<std::string, bool> added;
      for (const CompositeKey& ck : d.added) {
        added[ck.key] = true;
        delta.upserts.push_back(Record{ck, gen.payloads.at(ck)});
      }
      for (const CompositeKey& ck : d.removed) {
        if (!added.count(ck.key)) delta.deletes.push_back(ck.key);
      }
      VersionId parent =
          v == 0 ? kInvalidVersion : gen.dataset.graph.PrimaryParent(v);
      auto r = (*store)->Commit(parent, std::move(delta));
      if (!r.ok()) {
        std::fprintf(stderr, "commit failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
    }
    if (!(*store)->Flush().ok()) return 1;
    double seconds = timer.ElapsedSeconds();
    std::printf("%-8u %14.0f %13.2fs %14llu %12llu\n", batch,
                versions / seconds, seconds,
                (unsigned long long)(*store)->TotalVersionSpan(),
                (unsigned long long)(*store)->NumChunks());
    const std::string prefix = StringPrintf("batch_%u_", batch);
    report.Add(prefix + "commits_per_sec", versions / seconds);
    report.Add(prefix + "total_span",
               static_cast<double>((*store)->TotalVersionSpan()));
  }
  // --- Weak scaling: one large version, records/sec vs ingest_shards ---
  //
  // ingest_shards fans sub-chunk carving and compression out across worker
  // threads while every chunk is still written from the calling thread in
  // partition order, so the wall-clock records/sec should scale with shard
  // count while the simulated backend charge stays byte-for-byte identical
  // to serial ingest. The *_sim_micros metrics encode that invariant: they
  // are deterministic, gate at the 25% sim tier, and must agree across
  // every shard count.
  DatasetConfig scaling_config;
  scaling_config.name = "weak-scaling";
  scaling_config.num_versions = 1;
  scaling_config.records_per_version = SmokeMode() ? 12000 : 100000;
  scaling_config.record_size_bytes = 1000;
  GeneratedDataset big = GenerateDataset(scaling_config);
  const uint64_t records = big.stats.avg_records_per_version;
  std::printf(
      "\n=== Weak scaling: sharded ingest of one %llu-record version ===\n\n",
      (unsigned long long)records);
  std::printf("%-8s %16s %14s %12s %10s\n", "Shards", "records/s", "ingest",
              "sim micros", "speedup");

  double serial_seconds = 0;
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    ClusterOptions cluster_options;
    Cluster cluster(cluster_options);
    Options options;
    options.chunk_capacity_bytes = ScaledChunkCapacity(big);
    options.compression = CompressionType::kLZ;
    options.ingest_shards = shards;
    auto store = RStore::Open(&cluster, options);
    if (!store.ok()) return 1;
    Stopwatch timer;
    if (!(*store)->BulkLoad(big.dataset, big.payloads).ok()) return 1;
    if (!(*store)->Flush().ok()) return 1;
    double seconds = timer.ElapsedSeconds();
    if (shards == 1) serial_seconds = seconds;
    const uint64_t sim_micros = cluster.stats().simulated_micros;
    std::printf("%-8u %16.0f %13.2fs %12llu %9.2fx\n", shards,
                records / seconds, seconds, (unsigned long long)sim_micros,
                serial_seconds / seconds);
    const std::string prefix = StringPrintf("shards_%u_", shards);
    report.Add(prefix + "records_per_sec", records / seconds);
    report.Add(prefix + "sim_micros", static_cast<double>(sim_micros));
    if (shards == 4) {
      report.Add("speedup_4_shards", serial_seconds / seconds);
    }
  }
  report.Write();
  std::printf(
      "\nShape: tiny batches re-run the partitioner constantly (slow ingest, "
      "worse span); large batches amortize it and approach offline layout "
      "quality. Weak scaling: records/sec grows with ingest_shards while "
      "the simulated backend charge stays identical to serial.\n");
  return 0;
}

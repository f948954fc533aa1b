// Time-travel auditing over a long-running collection: bulk-load a
// generated history, then answer "as-of" questions — what did the collection
// look like at version X, when did a record change, and what is the cost
// profile of those queries. Also demonstrates surviving a backend node
// failure through replication.
//
//   $ ./build/examples/time_travel_audit

#include <cstdio>

#include "common/string_util.h"
#include "core/rstore.h"
#include "kvstore/cluster.h"
#include "workload/dataset_generator.h"

using namespace rstore;
using namespace rstore::workload;

int main() {
  DatasetConfig config;
  config.name = "audit-trail";
  config.num_versions = 200;
  config.records_per_version = 600;
  config.update_fraction = 0.05;
  config.zipf_updates = true;  // few hot documents, many cold ones
  config.record_size_bytes = 300;
  GeneratedDataset gen = GenerateDataset(config);

  ClusterOptions cluster_options;
  cluster_options.num_nodes = 6;
  cluster_options.replication_factor = 3;
  Cluster cluster(cluster_options);
  Options options;
  options.algorithm = PartitionAlgorithm::kBottomUp;
  options.chunk_capacity_bytes = 16 << 10;
  options.max_sub_chunk_records = 6;
  auto store = RStore::Open(&cluster, options);
  if (!store.ok() || !(*store)->BulkLoad(gen.dataset, gen.payloads).ok()) {
    std::fprintf(stderr, "load failed\n");
    return 1;
  }
  RStore& db = **store;
  std::printf("loaded %u versions, %llu unique records into a 6-node "
              "cluster (rf=3)\n",
              db.num_versions(),
              (unsigned long long)gen.stats.unique_records);

  // As-of queries at three points in history.
  for (VersionId v : {VersionId{10}, VersionId{100}, VersionId{199}}) {
    QueryStats stats;
    auto snapshot = db.GetVersion(v, &stats);
    if (!snapshot.ok()) return 1;
    std::printf("as-of v%-4u: %4zu records, %3llu chunks, %6.2f ms simulated\n",
                v, snapshot->size(),
                (unsigned long long)stats.chunks_fetched,
                stats.simulated_micros / 1000.0);
  }

  // Find the most-edited document (Zipf makes one key hot) and walk its
  // changes.
  std::string hottest;
  size_t hottest_changes = 0;
  for (const VersionDelta& delta : db.dataset().deltas) {
    for (const CompositeKey& ck : delta.added) {
      auto history_size = db.catalog().ChunksOfKey(ck.key).size();
      if (history_size > hottest_changes) {
        hottest_changes = history_size;
        hottest = ck.key;
      }
    }
  }
  auto history = *db.GetHistory(hottest);
  std::printf("\nhottest document %s changed %zu times; first at V%u, last "
              "at V%u\n",
              hottest.c_str(), history.size(), history.front().key.version,
              history.back().key.version);

  // "Which version introduced this change?" — binary search over history by
  // origin version, then a point query to confirm visibility.
  const Record& change = history[history.size() / 2];
  auto visible = db.GetRecord(hottest, change.key.version);
  std::printf("change introduced at V%u is %s at that version\n",
              change.key.version,
              visible.ok() && visible->key == change.key ? "visible"
                                                         : "NOT visible");

  // Kill a node mid-audit: replication keeps every query answerable.
  cluster.SetNodeAlive(0, false);
  QueryStats stats;
  auto after_failure = db.GetVersion(150, &stats);
  std::printf("\nafter killing node 0: as-of v150 still returns %zu records "
              "(%llu chunks)\n",
              after_failure->size(),
              (unsigned long long)stats.chunks_fetched);

  std::printf("index memory: %s for %llu chunks (paper: projections fit in "
              "main memory)\n",
              HumanBytes(db.catalog().ProjectionMemoryBytes()).c_str(),
              (unsigned long long)db.NumChunks());
  return 0;
}

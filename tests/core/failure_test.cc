// RStore-level failure behaviour: backend outages and partial data loss must
// surface as loud errors, never as silently wrong query results.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "common/flight_recorder.h"
#include "core/rstore.h"
#include "core_test_util.h"
#include "kvstore/cluster.h"

namespace rstore {
namespace {

using testing::ExampleData;
using testing::MakeChain;

Options SmallOptions() {
  Options options;
  options.algorithm = PartitionAlgorithm::kBottomUp;
  options.chunk_capacity_bytes = 600;
  return options;
}

TEST(FailureTest, UnreplicatedNodeLossFailsQueriesLoudly) {
  ExampleData data = MakeChain(20, 10, 3);
  ClusterOptions cluster_options;
  cluster_options.num_nodes = 4;
  cluster_options.replication_factor = 1;  // no redundancy
  Cluster cluster(cluster_options);
  auto store = RStore::Open(&cluster, SmallOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());

  cluster.SetNodeAlive(1, false);
  // Some versions' chunks lived on node 1: those queries must error.
  int failures = 0;
  for (VersionId v = 0; v < 20; ++v) {
    auto r = (*store)->GetVersion(v);
    if (!r.ok()) {
      ++failures;
      EXPECT_TRUE(r.status().IsIOError() || r.status().IsCorruption())
          << r.status().ToString();
    } else {
      // Whatever still answers must be complete and correct.
      EXPECT_EQ(r->size(), data.dataset.MaterializeVersion(v).size());
    }
  }
  EXPECT_GT(failures, 0);
}

TEST(FailureTest, ReplicatedStoreMasksSingleNodeLoss) {
  ExampleData data = MakeChain(20, 10, 3);
  ClusterOptions cluster_options;
  cluster_options.num_nodes = 4;
  cluster_options.replication_factor = 3;
  Cluster cluster(cluster_options);
  auto store = RStore::Open(&cluster, SmallOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());

  cluster.SetNodeAlive(0, false);
  cluster.SetNodeAlive(3, false);  // rf=3 tolerates two failures
  for (VersionId v = 0; v < 20; ++v) {
    auto r = (*store)->GetVersion(v);
    ASSERT_TRUE(r.ok()) << "V" << v << ": " << r.status().ToString();
    EXPECT_EQ(r->size(), data.dataset.MaterializeVersion(v).size());
  }
}

TEST(FailureTest, CommitFailsWhenAllReplicasDown) {
  ClusterOptions cluster_options;
  cluster_options.num_nodes = 1;
  Cluster cluster(cluster_options);
  Options options = SmallOptions();
  options.online_batch_size = 1;  // flush immediately
  auto store = RStore::Open(&cluster, options);
  ASSERT_TRUE(store.ok());
  cluster.SetNodeAlive(0, false);
  CommitDelta delta;
  delta.upserts.push_back({{"k", 0}, "v"});
  auto r = (*store)->Commit(kInvalidVersion, std::move(delta));
  EXPECT_FALSE(r.ok());
}

// Best-effort mode: the same outage that fails strict queries loudly now
// degrades gracefully — queries return every record the cluster can still
// serve and name the chunks they could not fetch.
TEST(FailureTest, BestEffortReadsReturnPartialResultsWithReport) {
  ExampleData data = MakeChain(20, 10, 3);
  ClusterOptions cluster_options;
  cluster_options.num_nodes = 4;
  cluster_options.replication_factor = 1;  // no redundancy
  Cluster cluster(cluster_options);
  Options options = SmallOptions();
  options.read_mode = ReadMode::kBestEffort;
  auto store = RStore::Open(&cluster, options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());

  cluster.SetNodeAlive(1, false);
  QueryStats stats;
  int degraded = 0, shorter = 0;
  for (VersionId v = 0; v < 20; ++v) {
    QueryDegradation report;
    auto r = (*store)->GetVersion(v, &stats, nullptr, &report);
    ASSERT_TRUE(r.ok()) << "V" << v << ": " << r.status().ToString();
    const size_t full = data.dataset.MaterializeVersion(v).size();
    EXPECT_LE(r->size(), full);
    if (report.degraded()) {
      ++degraded;
      EXPECT_EQ(report.messages.size(), report.missing_chunks.size());
      if (r->size() < full) ++shorter;
      // Whatever was returned is correct, just incomplete.
      for (const Record& rec : *r) {
        EXPECT_EQ(rec.payload, data.payloads.at(rec.key));
      }
    } else {
      EXPECT_EQ(r->size(), full);
    }
  }
  EXPECT_GT(degraded, 0);
  EXPECT_GT(shorter, 0);
  EXPECT_GT(stats.missing_chunks, 0u);

  // Range queries degrade the same way.
  QueryDegradation range_report;
  auto range = (*store)->GetRange(19, "key1000", "key1009", nullptr, nullptr,
                                  &range_report);
  ASSERT_TRUE(range.ok()) << range.status().ToString();

  // Recovery heals: reports come back empty and results complete.
  cluster.SetNodeAlive(1, true);
  for (VersionId v = 0; v < 20; ++v) {
    QueryDegradation report;
    auto r = (*store)->GetVersion(v, nullptr, nullptr, &report);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(report.degraded());
    EXPECT_EQ(r->size(), data.dataset.MaterializeVersion(v).size());
  }
}

// A caller may reuse one best-effort report across queries. The report
// gathers every query's casualties, but each query's flight record lists
// only its own: as many messages as the chunks it missed.
TEST(FailureTest, ReusedReportRecordsEachQuerysOwnCasualties) {
  ExampleData data = MakeChain(20, 10, 3);
  ClusterOptions cluster_options;
  cluster_options.num_nodes = 4;
  cluster_options.replication_factor = 1;
  Cluster cluster(cluster_options);
  Options options = SmallOptions();
  options.read_mode = ReadMode::kBestEffort;
  auto store = RStore::Open(&cluster, options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());

  cluster.SetNodeAlive(0, false);
  QueryDegradation report;
  uint64_t missed = 0;
  for (int query = 0; query < 2; ++query) {
    SCOPED_TRACE("query " + std::to_string(query));
    QueryStats stats;
    auto got = (*store)->GetVersion(19, &stats, nullptr, &report);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_GT(stats.missing_chunks, 0u);
    missed += stats.missing_chunks;
    const std::vector<FlightRecord> recent = FlightRecorder::Default().Recent();
    ASSERT_FALSE(recent.empty());
    const FlightRecord& record = recent.front();  // newest first
    EXPECT_EQ(record.name, "get_version");
    EXPECT_EQ(record.missing_chunks, stats.missing_chunks);
    EXPECT_EQ(record.degradation.size(), stats.missing_chunks);
  }
  EXPECT_EQ(report.missing_chunks.size(), missed);
  EXPECT_EQ(report.messages.size(), missed);
}

// A chunk that arrives but does not decode fails even a best-effort query,
// and the failed query leaves no trace: chunks on the dead node were marked
// missing and others decoded before the corrupt one was reached, yet the
// caller's report stays empty and nothing enters the cache, sync or async.
TEST(FailureTest, CorruptChunkFailsBestEffortQueryWithoutReportOrCaching) {
  ExampleData data = MakeChain(20, 60, 3);
  ClusterOptions cluster_options;
  cluster_options.num_nodes = 4;
  cluster_options.replication_factor = 1;
  Cluster cluster(cluster_options);
  Options options = SmallOptions();
  options.read_mode = ReadMode::kBestEffort;
  options.cache_capacity_bytes = 1 << 20;
  auto store = RStore::Open(&cluster, options);
  ASSERT_TRUE(store.ok());
  RStore& db = **store;
  ASSERT_TRUE(db.BulkLoad(data.dataset, data.payloads).ok());

  // Chunks are fetched and decoded in id order. Take a node down such that
  // the last of version 19's chunks a live node serves has, below it, one
  // chunk on the dead node and one that decodes; then garble that last one.
  const std::vector<ChunkId> ids = db.catalog().ChunksOfVersion(19);
  auto readable = [&](ChunkId id) {
    return cluster.Get(options.chunk_table, ChunkKey(id)).ok();
  };
  auto corrupt = ids.rend();
  for (uint32_t node = 0; node < cluster_options.num_nodes; ++node) {
    cluster.SetNodeAlive(node, false);
    corrupt = std::find_if(ids.rbegin(), ids.rend(), readable);
    if (corrupt != ids.rend() &&
        std::any_of(std::next(corrupt), ids.rend(), readable) &&
        !std::all_of(std::next(corrupt), ids.rend(), readable)) {
      break;
    }
    corrupt = ids.rend();
    cluster.SetNodeAlive(node, true);
  }
  ASSERT_NE(corrupt, ids.rend());
  ASSERT_TRUE(cluster.Put(options.chunk_table, ChunkKey(*corrupt), "bad").ok());

  QueryDegradation report;
  auto sync = db.GetVersion(19, nullptr, nullptr, &report);
  EXPECT_TRUE(sync.status().IsCorruption()) << sync.status().ToString();
  EXPECT_FALSE(report.degraded());

  Executor executor;
  Future<AsyncQueryResult> async = db.GetVersionAsync(&executor, 19);
  executor.RunUntilIdle();
  EXPECT_TRUE(async.value().status.IsCorruption());
  EXPECT_FALSE(async.value().degradation.degraded());
  EXPECT_EQ(db.chunk_cache()->stats().insertions, 0u);
}

// Point and history queries have no partial form: best-effort mode leaves
// them strict (a point lookup is either the record or an error).
TEST(FailureTest, PointAndHistoryQueriesStayStrictInBestEffortMode) {
  ExampleData data = MakeChain(20, 10, 3);
  ClusterOptions cluster_options;
  cluster_options.num_nodes = 4;
  cluster_options.replication_factor = 1;
  Cluster cluster(cluster_options);
  Options options = SmallOptions();
  options.read_mode = ReadMode::kBestEffort;
  auto store = RStore::Open(&cluster, options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());

  cluster.SetNodeAlive(1, false);
  int failures = 0;
  for (int k = 0; k < 10; ++k) {
    const std::string key = "key" + std::to_string(1000 + k);
    for (VersionId v = 0; v < 20; v += 4) {
      auto point = (*store)->GetRecord(key, v);
      if (!point.ok() && !point.status().IsNotFound()) {
        ++failures;
        EXPECT_TRUE(point.status().IsIOError() ||
                    point.status().IsCorruption())
            << point.status().ToString();
      }
    }
    // A key's history spans chunks across the whole version range, so the
    // dead node's share is almost surely needed — and must fail loudly.
    auto history = (*store)->GetHistory(key);
    if (!history.ok()) {
      ++failures;
      EXPECT_TRUE(history.status().IsIOError() ||
                  history.status().IsCorruption())
          << history.status().ToString();
    }
  }
  EXPECT_GT(failures, 0);
}

// Regression: a commit flushed while a replica was down used to lose those
// chunk writes on that replica silently — after the other replica died, the
// "recovered" node served a store with holes. Hinted handoff backfills the
// recovering replica, so the full version must survive the second outage.
TEST(FailureTest, CommitDuringReplicaOutageIsHealedByHintedHandoff) {
  ClusterOptions cluster_options;
  cluster_options.num_nodes = 2;
  cluster_options.replication_factor = 2;
  Cluster cluster(cluster_options);
  Options options = SmallOptions();
  options.online_batch_size = 1;  // flush each commit immediately
  auto store = RStore::Open(&cluster, options);
  ASSERT_TRUE(store.ok());

  CommitDelta base;
  for (int k = 0; k < 8; ++k) {
    base.upserts.push_back(
        {{"doc" + std::to_string(k), 0}, "base" + std::to_string(k)});
  }
  auto v0 = (*store)->Commit(kInvalidVersion, std::move(base));
  ASSERT_TRUE(v0.ok());

  // Node 0 is down while the second commit's chunks are written.
  cluster.SetNodeAlive(0, false);
  CommitDelta update;
  update.upserts.push_back({{"doc3", 0}, "updated"});
  auto v1 = (*store)->Commit(*v0, std::move(update));
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE((*store)->Flush().ok());

  // Recovery replays the hints; then the *other* replica dies.
  cluster.SetNodeAlive(0, true);
  EXPECT_EQ(cluster.PendingHints(0), 0u);
  cluster.SetNodeAlive(1, false);

  auto records = (*store)->GetVersion(*v1);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_EQ(records->size(), 8u);
  bool found_updated = false;
  for (const Record& rec : *records) {
    if (rec.key.key == "doc3") {
      found_updated = true;
      EXPECT_EQ(rec.payload, "updated");
    }
  }
  EXPECT_TRUE(found_updated);
  EXPECT_GT(cluster.stats().handoff_replays, 0u);
}

TEST(FailureTest, QueriesOnUnknownVersionsRejected) {
  ExampleData data = MakeChain(5, 5, 1);
  ClusterOptions cluster_options;
  Cluster cluster(cluster_options);
  auto store = RStore::Open(&cluster, SmallOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());
  EXPECT_TRUE((*store)->GetVersion(99).status().IsInvalidArgument());
  EXPECT_TRUE(
      (*store)->GetRange(99, "a", "z").status().IsInvalidArgument());
  EXPECT_TRUE((*store)->GetRecord("key1000", 99).status().IsInvalidArgument());
  // Inverted range.
  EXPECT_TRUE((*store)->GetRange(1, "z", "a").status().IsInvalidArgument());
  // Unknown key history: empty result, not an error.
  auto history = (*store)->GetHistory("no-such-key");
  ASSERT_TRUE(history.ok());
  EXPECT_TRUE(history->empty());
}

}  // namespace
}  // namespace rstore

// Tests for the online ingest path (§4): delta store batching, chunk-map
// rewrites across batches, repartitioning, and online-vs-offline parity.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/rstore.h"
#include "core_test_util.h"
#include "kvstore/memory_store.h"
#include "workload/dataset_generator.h"

namespace rstore {
namespace {

using testing::ExampleData;
using testing::MakeChain;

Options SmallOptions(uint32_t batch) {
  Options options;
  options.algorithm = PartitionAlgorithm::kBottomUp;
  options.chunk_capacity_bytes = 600;
  options.online_batch_size = batch;
  return options;
}

/// Commits every version of `data` into `store` in generation order.
void CommitAll(RStore* store, const ExampleData& data) {
  for (VersionId v = 0; v < data.dataset.graph.size(); ++v) {
    CommitDelta delta;
    std::map<std::string, bool> added;
    for (const CompositeKey& ck : data.dataset.deltas[v].added) {
      added[ck.key] = true;
      delta.upserts.push_back(Record{ck, data.payloads.at(ck)});
    }
    for (const CompositeKey& ck : data.dataset.deltas[v].removed) {
      if (!added.count(ck.key)) delta.deletes.push_back(ck.key);
    }
    VersionId parent =
        v == 0 ? kInvalidVersion : data.dataset.graph.PrimaryParent(v);
    auto r = store->Commit(parent, std::move(delta));
    ASSERT_TRUE(r.ok()) << v << ": " << r.status().ToString();
    ASSERT_EQ(*r, v);
  }
}

std::map<std::string, std::string> ExpectedVersion(const ExampleData& data,
                                                   VersionId v) {
  std::map<std::string, std::string> out;
  for (const CompositeKey& ck : data.dataset.MaterializeVersion(v)) {
    out[ck.key] = data.payloads.at(ck);
  }
  return out;
}

std::map<std::string, std::string> ToMap(const std::vector<Record>& records) {
  std::map<std::string, std::string> out;
  for (const Record& r : records) out[r.key.key] = r.payload;
  return out;
}

class BatchSizeTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BatchSizeTest, OnlineCommitsMatchGroundTruthAtAnyBatchSize) {
  ExampleData data = MakeChain(30, 10, 3);
  MemoryStore backend;
  auto store = RStore::Open(&backend, SmallOptions(GetParam()));
  ASSERT_TRUE(store.ok());
  CommitAll(store->get(), data);
  ASSERT_TRUE((*store)->Flush().ok());
  for (VersionId v : {VersionId{0}, VersionId{13}, VersionId{29}}) {
    auto got = (*store)->GetVersion(v);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(ToMap(*got), ExpectedVersion(data, v)) << "V" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Batches, BatchSizeTest,
                         ::testing::Values(1, 2, 7, 30, 100));

TEST(OnlineTest, ChunkMapsRewrittenForInheritedRecords) {
  // A record committed in batch 1 and inherited by versions in batch 2 must
  // appear in those versions' query results — this exercises the §4 path
  // that rewrites existing chunk maps once per batch.
  ExampleData data = MakeChain(20, 8, 2);
  MemoryStore backend;
  auto store = RStore::Open(&backend, SmallOptions(5));
  ASSERT_TRUE(store.ok());
  CommitAll(store->get(), data);
  ASSERT_TRUE((*store)->Flush().ok());
  // The last version inherits root-era records across 4 batch boundaries.
  auto got = (*store)->GetVersion(19);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToMap(*got), ExpectedVersion(data, 19));
  // Every version span accounted by the projections equals per-query
  // fetches.
  uint64_t fetched = 0;
  for (VersionId v = 0; v < 20; ++v) {
    QueryStats stats;
    ASSERT_TRUE((*store)->GetVersion(v, &stats).ok());
    fetched += stats.chunks_fetched;
  }
  EXPECT_EQ(fetched, (*store)->TotalVersionSpan());
}

TEST(OnlineTest, OnlineSpanAtLeastOfflineSpanOnChains) {
  // On a linear chain the offline BOTTOM-UP layout is the quality ceiling;
  // online batching must not beat it (and typically trails it).
  ExampleData data = MakeChain(60, 30, 4);
  MemoryStore offline_backend;
  auto offline = RStore::Open(&offline_backend, SmallOptions(1000));
  ASSERT_TRUE(offline.ok());
  ASSERT_TRUE((*offline)->BulkLoad(data.dataset, data.payloads).ok());
  uint64_t offline_span = (*offline)->TotalVersionSpan();

  MemoryStore online_backend;
  auto online = RStore::Open(&online_backend, SmallOptions(10));
  ASSERT_TRUE(online.ok());
  CommitAll(online->get(), data);
  ASSERT_TRUE((*online)->Flush().ok());
  uint64_t online_span = (*online)->TotalVersionSpan();
  EXPECT_GE(online_span, offline_span);
  // ... but within a sane factor (paper Fig. 13: small penalties).
  EXPECT_LT(online_span, offline_span * 2);
}

TEST(OnlineTest, RepartitionRestoresOfflineQuality) {
  ExampleData data = MakeChain(60, 30, 4);
  MemoryStore offline_backend;
  auto offline = RStore::Open(&offline_backend, SmallOptions(1000));
  ASSERT_TRUE(offline.ok());
  ASSERT_TRUE((*offline)->BulkLoad(data.dataset, data.payloads).ok());
  uint64_t offline_span = (*offline)->TotalVersionSpan();

  MemoryStore backend;
  auto store = RStore::Open(&backend, SmallOptions(5));
  ASSERT_TRUE(store.ok());
  CommitAll(store->get(), data);
  ASSERT_TRUE((*store)->Flush().ok());
  uint64_t online_span = (*store)->TotalVersionSpan();

  Status s = (*store)->Repartition();
  ASSERT_TRUE(s.ok()) << s.ToString();
  uint64_t repartitioned_span = (*store)->TotalVersionSpan();
  EXPECT_LE(repartitioned_span, online_span);
  EXPECT_EQ(repartitioned_span, offline_span);

  // Data integrity preserved through the rebuild.
  for (VersionId v : {VersionId{0}, VersionId{30}, VersionId{59}}) {
    auto got = (*store)->GetVersion(v);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(ToMap(*got), ExpectedVersion(data, v)) << "V" << v;
  }
  auto history = (*store)->GetHistory("key1003");
  ASSERT_TRUE(history.ok());
  EXPECT_GT(history->size(), 1u);
}

TEST(OnlineTest, RepartitionOnEmptyStoreIsNoOp) {
  MemoryStore backend;
  auto store = RStore::Open(&backend, SmallOptions(4));
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->Repartition().ok());
}

TEST(OnlineTest, RepartitionWithCompressedSubChunks) {
  ExampleData data = MakeChain(25, 5, 2);
  for (auto& [ck, payload] : data.payloads) {
    payload = std::string(800, 'b') + ck.ToString();
  }
  MemoryStore backend;
  Options options = SmallOptions(6);
  options.max_sub_chunk_records = 4;
  auto store = RStore::Open(&backend, options);
  ASSERT_TRUE(store.ok());
  CommitAll(store->get(), data);
  ASSERT_TRUE((*store)->Repartition().ok());
  for (VersionId v : {VersionId{3}, VersionId{24}}) {
    auto got = (*store)->GetVersion(v);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(ToMap(*got), ExpectedVersion(data, v));
  }
}

TEST(OnlineTest, DeltaStoreAccounting) {
  DeltaStore ds;
  EXPECT_TRUE(ds.empty());
  PendingCommit commit;
  commit.version = 0;
  commit.delta.added = {{"a", 0}};
  ds.Stage(std::move(commit), {Record{{"a", 0}, "12345"}});
  EXPECT_EQ(ds.pending_versions(), 1u);
  EXPECT_EQ(ds.payload_bytes(), 5u);
  EXPECT_EQ(ds.payloads().at(CompositeKey("a", 0)), "12345");
  ds.Clear();
  EXPECT_TRUE(ds.empty());
  EXPECT_EQ(ds.payload_bytes(), 0u);
}

constexpr PartitionAlgorithm kAllAlgorithms[] = {
    PartitionAlgorithm::kBottomUp,        PartitionAlgorithm::kShingle,
    PartitionAlgorithm::kDepthFirst,      PartitionAlgorithm::kBreadthFirst,
    PartitionAlgorithm::kDeltaBaseline,   PartitionAlgorithm::kSubChunkBaseline,
    PartitionAlgorithm::kSingleAddressSpace,
};

std::string AlgorithmTestName(
    const ::testing::TestParamInfo<PartitionAlgorithm>& info) {
  std::string name = PartitionAlgorithmName(info.param);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

/// One commit of the derived-rows history: upserted and deleted keys.
struct HistoryStep {
  VersionId parent;
  std::vector<std::string> upserts;
  std::vector<std::string> deletes;
};

std::vector<std::string> Keys(const std::string& prefix, int count) {
  std::vector<std::string> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(prefix + std::to_string(10 + i));
  }
  return out;
}

/// Drains in batches of 4, then a Flush of 2. Version 3's c-keys are held
/// by no other version of the first batch, and version 6 deletes every
/// record of its parent 3. In the second batch, versions 4 and 6 branch
/// from published versions and 5 and 7 from the staged 4, whose a10 is
/// superseded by 5 and deleted by 7. Version 10 deletes everything its
/// staged parent 9 holds.
std::vector<HistoryStep> DerivedRowsHistory() {
  std::vector<std::string> all_of_3 = Keys("a", 12);
  for (const std::string& key : Keys("c", 10)) all_of_3.push_back(key);
  return {
      {kInvalidVersion, Keys("a", 12), {}},      // 0
      {0, {"a10", "a11"}, {"a12"}},              // 1
      {1, {"a13", "b10", "b11", "b12"}, {}},     // 2
      {0, Keys("c", 10), {}},                    // 3: drains 0-3
      {1, {"a10"}, {"a14"}},                     // 4
      {4, {"a10", "d10"}, {}},                   // 5
      {3, {"e10", "e11", "e12"}, all_of_3},      // 6
      {4, {"a15"}, {"a10"}},                     // 7: drains 4-7
      {5, {"d10"}, {}},                          // 8
      {6, {}, {"e10"}},                          // 9
      {9, {"f10"}, {"e11", "e12"}},              // 10
      {8, {"a11"}, {}},                          // 11: drains 8-11
      {10, {"f11"}, {}},                         // 12
      {2, {"b10"}, {"a10"}},                     // 13: Flush
  };
}

class DerivedRowsTest : public ::testing::TestWithParam<PartitionAlgorithm> {
};

// A drain derives each staged version's rows in older chunks from its
// parent's rows and its ∆⁻. After every drain the catalog's maps must equal
// maps rebuilt from the whole dataset (so no row is missing, extra or
// empty), and the drain must rewrite exactly the older chunks whose maps
// gained a version.
TEST_P(DerivedRowsTest, EveryDrainMatchesMapsRebuiltFromTheDataset) {
  Options options;
  options.algorithm = GetParam();
  options.chunk_capacity_bytes = 600;
  options.max_sub_chunk_records = 3;
  options.online_batch_size = 4;
  MemoryStore backend;
  auto opened = RStore::Open(&backend, options);
  ASSERT_TRUE(opened.ok());
  RStore& store = **opened;
  Counter* rewrites =
      MetricsRegistry::Default().GetCounter("rstore_write_map_rewrites_total");

  std::map<ChunkId, std::vector<VersionId>> before;
  uint64_t rewrites_before = 0;
  auto snapshot = [&] {
    before.clear();
    for (ChunkId id : store.catalog().AllChunks()) {
      before[id] = store.catalog().MapOfChunk(id)->Versions();
    }
    rewrites_before = rewrites->value();
  };
  // Checks the drain that just ran; returns the older chunks it left alone.
  auto check_drain = [&] {
    std::vector<ChunkId> unchanged;
    EXPECT_TRUE(store.VerifyIntegrity().ok());
    const RecordVersionMap record_versions =
        store.dataset().BuildRecordVersionMap();
    uint64_t grown = 0;
    for (ChunkId id : store.catalog().AllChunks()) {
      const ChunkMap& map = *store.catalog().MapOfChunk(id);
      EXPECT_EQ(map, StoreCatalog::BuildMap(*store.catalog().RecordsOfChunk(id),
                                            record_versions))
          << "chunk " << id;
      auto old = before.find(id);
      if (old == before.end()) continue;
      if (map.Versions() != old->second) {
        ++grown;
      } else {
        unchanged.push_back(id);
      }
    }
    EXPECT_EQ(rewrites->value() - rewrites_before, grown);
    return unchanged;
  };

  const std::vector<HistoryStep> history = DerivedRowsHistory();
  for (VersionId v = 0; v < history.size(); ++v) {
    SCOPED_TRACE("version " + std::to_string(v));
    const HistoryStep& step = history[v];
    if (v % 4 == 3) snapshot();
    CommitDelta delta;
    for (const std::string& key : step.upserts) {
      // Digits that compress poorly, so a chunk holds a few records.
      std::string payload = key + "@" + std::to_string(v);
      for (uint64_t i = 1; i <= 16; ++i) {
        payload += "," + std::to_string((payload.size() * 7919 + i * 104729 +
                                         v * 15485863) % 1000003);
      }
      delta.upserts.push_back(Record{CompositeKey(key, 0), payload});
    }
    delta.deletes = step.deletes;
    auto committed = store.Commit(step.parent, std::move(delta));
    ASSERT_TRUE(committed.ok()) << committed.status().ToString();
    ASSERT_EQ(*committed, v);
    if (v % 4 != 3) continue;
    const std::vector<ChunkId> unchanged = check_drain();
    if (v == 7) {
      // Version 6 removed every record its parent 3 held, so a chunk that
      // no other version of the batch reaches gets no row and no rewrite.
      EXPECT_TRUE(std::any_of(unchanged.begin(), unchanged.end(),
                              [&store](ChunkId id) {
                                return store.catalog().MapOfChunk(id)
                                    ->HasVersion(3);
                              }));
    }
  }
  snapshot();
  ASSERT_TRUE(store.Flush().ok());
  check_drain();
}

INSTANTIATE_TEST_SUITE_P(Algorithms, DerivedRowsTest,
                         ::testing::ValuesIn(kAllAlgorithms),
                         AlgorithmTestName);

TEST(OnlineTest, BranchedCommitsAcrossBatches) {
  // Branches interleaved with batch boundaries: children of versions from
  // earlier batches.
  MemoryStore backend;
  auto store = RStore::Open(&backend, SmallOptions(3));
  ASSERT_TRUE(store.ok());
  RStore& db = **store;
  CommitDelta root;
  root.upserts.push_back({{"doc", 0}, "v0"});
  VersionId v0 = *db.Commit(kInvalidVersion, std::move(root));
  std::vector<VersionId> tips;
  for (int branch = 0; branch < 5; ++branch) {
    CommitDelta c;
    c.upserts.push_back(
        {{"doc", 0}, "branch-" + std::to_string(branch)});
    c.upserts.push_back(
        {{"extra-" + std::to_string(branch), 0}, "payload"});
    tips.push_back(*db.Commit(v0, std::move(c)));
  }
  ASSERT_TRUE(db.Flush().ok());
  for (int branch = 0; branch < 5; ++branch) {
    auto got = db.GetRecord("doc", tips[branch]);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->payload, "branch-" + std::to_string(branch));
    auto full = db.GetVersion(tips[branch]);
    ASSERT_TRUE(full.ok());
    EXPECT_EQ(full->size(), 2u);
  }
}

}  // namespace
}  // namespace rstore

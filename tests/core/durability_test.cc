// Durability and operability features: Reopen (recovery from the KVS),
// VerifyIntegrity (fsck), corruption detection, and the BranchManager VCS
// surface.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <tuple>

#include "common/coding.h"
#include "core/branch_manager.h"
#include "core/rstore.h"
#include "core_test_util.h"
#include "kvstore/memory_store.h"
#include "workload/dataset_generator.h"

namespace rstore {
namespace {

using testing::CommitVersions;
using testing::ExampleData;
using testing::MakeChain;
using testing::SerializeRecords;

Options SmallOptions() {
  Options options;
  options.algorithm = PartitionAlgorithm::kBottomUp;
  options.chunk_capacity_bytes = 600;
  options.max_sub_chunk_records = 3;
  return options;
}

std::map<std::string, std::string> ToMap(const std::vector<Record>& records) {
  std::map<std::string, std::string> out;
  for (const Record& r : records) out[r.key.key] = r.payload;
  return out;
}

TEST(ReopenTest, RecoversFullStateAfterRestart) {
  ExampleData data = MakeChain(25, 10, 3);
  MemoryStore backend;
  std::map<std::string, std::string> expected_v24, expected_v7;
  uint64_t expected_span;
  {
    auto store = RStore::Open(&backend, SmallOptions());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());
    ASSERT_TRUE((*store)->Flush().ok());
    expected_v24 = ToMap(*(*store)->GetVersion(24));
    expected_v7 = ToMap(*(*store)->GetVersion(7));
    expected_span = (*store)->TotalVersionSpan();
  }  // original AS instance gone; only the backend survives

  auto reopened = RStore::Reopen(&backend, SmallOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  RStore& db = **reopened;
  EXPECT_EQ(db.num_versions(), 25u);
  EXPECT_EQ(db.TotalVersionSpan(), expected_span);
  EXPECT_EQ(ToMap(*db.GetVersion(24)), expected_v24);
  EXPECT_EQ(ToMap(*db.GetVersion(7)), expected_v7);
  auto history = db.GetHistory("key1004");
  ASSERT_TRUE(history.ok());
  EXPECT_GT(history->size(), 1u);
  EXPECT_TRUE(db.VerifyIntegrity().ok());
}

TEST(ReopenTest, RecoveredStoreAcceptsNewCommits) {
  ExampleData data = MakeChain(10, 5, 2);
  MemoryStore backend;
  {
    auto store = RStore::Open(&backend, SmallOptions());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  auto reopened = RStore::Reopen(&backend, SmallOptions());
  ASSERT_TRUE(reopened.ok());
  CommitDelta delta;
  delta.upserts.push_back({{"key1000", 0}, "post-restart"});
  auto v = (*reopened)->Commit(9, std::move(delta));
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v, 10u);
  ASSERT_TRUE((*reopened)->Flush().ok());
  EXPECT_EQ((*reopened)->GetRecord("key1000", *v)->payload, "post-restart");
  EXPECT_TRUE((*reopened)->VerifyIntegrity().ok());
}

// The projections are derived at Reopen, never stored: with nothing staged,
// Flush writes the graph key and nothing else, and the index table holds
// only chunk maps besides it.
TEST(ReopenTest, FlushWritesOnlyTheGraphKey) {
  ExampleData data = MakeChain(12, 6, 2);
  MemoryStore backend;
  auto store = RStore::Open(&backend, SmallOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());
  const uint64_t puts_before = backend.stats().puts;
  ASSERT_TRUE((*store)->Flush().ok());
  EXPECT_EQ(backend.stats().puts, puts_before + 1);
  std::vector<std::string> index_keys;
  ASSERT_TRUE(backend
                  .Scan((*store)->options().index_table,
                        [&](Slice key, Slice) {
                          index_keys.push_back(key.ToString());
                        })
                  .ok());
  EXPECT_EQ(std::count(index_keys.begin(), index_keys.end(), "g"), 1);
  for (const std::string& key : index_keys) {
    EXPECT_TRUE(key == "g" || key[0] == 'm') << key;
  }
}

// A drain after the last Flush writes chunks whose records belong to
// versions the persisted graph does not know. Reopen leaves them out of the
// catalog, so the recovered store answers exactly as it did at the Flush.
TEST(ReopenTest, ChunksDrainedAfterLastFlushAreNotAdopted) {
  ExampleData data = MakeChain(20, 10, 3);
  Options options = SmallOptions();
  options.online_batch_size = 4;
  MemoryStore backend;
  auto store = RStore::Open(&backend, options);
  ASSERT_TRUE(store.ok());
  ASSERT_NO_FATAL_FAILURE(
      CommitVersions(store->get(), data.dataset, data.payloads, 0, 12));
  ASSERT_TRUE((*store)->Flush().ok());
  const uint64_t flushed_chunks = (*store)->NumChunks();
  std::vector<std::string> flushed_answers;
  for (VersionId v = 0; v < 12; ++v) {
    flushed_answers.push_back(SerializeRecords(*(*store)->GetVersion(v)));
  }

  // Two more drains write chunks; nothing flushes them.
  ASSERT_NO_FATAL_FAILURE(
      CommitVersions(store->get(), data.dataset, data.payloads, 12, 20));
  ASSERT_GT((*store)->NumChunks(), flushed_chunks);

  auto reopened = RStore::Reopen(&backend, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  RStore& db = **reopened;
  EXPECT_EQ(db.num_versions(), 12u);
  EXPECT_EQ(db.NumChunks(), flushed_chunks);
  for (VersionId v = 0; v < 12; ++v) {
    auto got = db.GetVersion(v);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(SerializeRecords(*got), flushed_answers[v]) << "version " << v;
  }
  for (const CompositeKey& ck : data.dataset.deltas[0].added) {
    auto history = db.GetHistory(ck.key);
    ASSERT_TRUE(history.ok()) << history.status().ToString();
    EXPECT_FALSE(history->empty()) << ck.key;
    for (const Record& r : *history) {
      EXPECT_LT(r.key.version, 12u) << r.key.ToString();
    }
  }
}

TEST(ReopenTest, EmptyBackendIsInvalid) {
  MemoryStore backend;
  EXPECT_TRUE(
      RStore::Reopen(&backend, SmallOptions()).status().IsInvalidArgument());
}

TEST(ReopenTest, MergeGraphSurvivesRestart) {
  MemoryStore backend;
  {
    ExampleData data;
    VersionedDataset& ds = data.dataset;
    ds.graph.AddRoot();
    (void)*ds.graph.AddVersion({0});
    (void)*ds.graph.AddVersion({0});
    (void)*ds.graph.AddVersion({1, 2});
    ds.deltas.resize(4);
    ds.deltas[0].added = {{"A", 0}};
    ds.deltas[1].added = {{"B", 1}};
    ds.deltas[2].added = {{"C", 2}};
    ds.deltas[3].added = {{"C", 2}};
    for (const auto& d : ds.deltas) {
      for (const auto& ck : d.added) {
        data.payloads[ck] = testing::PayloadFor(ck);
      }
    }
    auto store = RStore::Open(&backend, SmallOptions());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  auto reopened = RStore::Reopen(&backend, SmallOptions());
  ASSERT_TRUE(reopened.ok());
  // The ORIGINAL graph (with the merge edge) is restored alongside the tree.
  EXPECT_TRUE((*reopened)->graph().IsMerge(3));
  EXPECT_TRUE((*reopened)->dataset().graph.IsTree());
  EXPECT_EQ((*reopened)->GetVersion(3)->size(), 3u);
}

/// How a ReopenCatalogTest store receives its versions.
enum class LoadPath { kBulkLoad, kCommits, kCommitsThenRepartition };

constexpr PartitionAlgorithm kAllAlgorithms[] = {
    PartitionAlgorithm::kBottomUp,        PartitionAlgorithm::kShingle,
    PartitionAlgorithm::kDepthFirst,      PartitionAlgorithm::kBreadthFirst,
    PartitionAlgorithm::kDeltaBaseline,   PartitionAlgorithm::kSubChunkBaseline,
    PartitionAlgorithm::kSingleAddressSpace,
};

using ReopenCase = std::tuple<PartitionAlgorithm, LoadPath>;

/// An algorithm's name as a test-name part.
std::string AlgorithmTestName(PartitionAlgorithm algorithm) {
  std::string name = PartitionAlgorithmName(algorithm);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

std::string ReopenCaseName(const ::testing::TestParamInfo<ReopenCase>& info) {
  const std::string name = AlgorithmTestName(std::get<0>(info.param));
  switch (std::get<1>(info.param)) {
    case LoadPath::kBulkLoad:
      return name + "_BulkLoad";
    case LoadPath::kCommits:
      return name + "_Commits";
    case LoadPath::kCommitsThenRepartition:
      return name + "_CommitsThenRepartition";
  }
  return name;
}

/// Reopen derives the whole catalog from the chunk table and the graph key.
/// A store that flushed after its last write must come back with the same
/// catalog, the same answers and the same layout figures as the live one,
/// whichever way its chunks were written.
class ReopenCatalogTest : public ::testing::TestWithParam<ReopenCase> {};

TEST_P(ReopenCatalogTest, ReopenedCatalogMatchesLive) {
  const auto [algorithm, path] = GetParam();
  workload::DatasetConfig config;
  config.num_versions = 24;
  config.records_per_version = 60;
  config.update_fraction = 0.1;
  config.branch_probability = 0.3;
  config.record_size_bytes = 120;
  config.seed = 5;
  const workload::GeneratedDataset gen = workload::GenerateDataset(config);
  Options options;
  options.algorithm = algorithm;
  options.chunk_capacity_bytes = 2048;
  options.max_sub_chunk_records = 3;
  options.online_batch_size = 5;
  MemoryStore backend;
  auto opened = RStore::Open(&backend, options);
  ASSERT_TRUE(opened.ok());
  RStore& live = **opened;
  if (path == LoadPath::kBulkLoad) {
    ASSERT_TRUE(live.BulkLoad(gen.dataset, gen.payloads).ok());
  } else {
    ASSERT_NO_FATAL_FAILURE(CommitVersions(&live, gen.dataset, gen.payloads,
                                           0, gen.dataset.graph.size()));
    if (path == LoadPath::kCommitsThenRepartition) {
      Status repartitioned = live.Repartition();
      ASSERT_TRUE(repartitioned.ok()) << repartitioned.ToString();
    }
  }
  ASSERT_TRUE(live.Flush().ok());

  auto reopened = RStore::Reopen(&backend, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  RStore& db = **reopened;
  const StoreCatalog& want = live.catalog();
  const StoreCatalog& got = db.catalog();

  ASSERT_EQ(got.AllChunks(), want.AllChunks());
  std::set<std::string> keys;
  for (ChunkId id : want.AllChunks()) {
    ASSERT_NE(got.RecordsOfChunk(id), nullptr) << "chunk " << id;
    EXPECT_EQ(*got.RecordsOfChunk(id), *want.RecordsOfChunk(id))
        << "chunk " << id;
    for (const CompositeKey& ck : *want.RecordsOfChunk(id)) {
      keys.insert(ck.key);
    }
  }
  ASSERT_EQ(db.num_versions(), live.num_versions());
  for (VersionId v = 0; v < live.num_versions(); ++v) {
    EXPECT_EQ(got.ChunksOfVersion(v), want.ChunksOfVersion(v))
        << "version " << v;
    EXPECT_EQ(got.ChunksOriginatedAt(v), want.ChunksOriginatedAt(v))
        << "version " << v;
    auto live_records = live.GetVersion(v);
    auto got_records = db.GetVersion(v);
    ASSERT_TRUE(live_records.ok()) << live_records.status().ToString();
    ASSERT_TRUE(got_records.ok()) << got_records.status().ToString();
    EXPECT_EQ(SerializeRecords(*got_records), SerializeRecords(*live_records))
        << "version " << v;
  }
  for (const std::string& key : keys) {
    EXPECT_EQ(got.ChunksOfKey(key), want.ChunksOfKey(key)) << key;
  }
  EXPECT_EQ(db.layout(), live.layout());
  EXPECT_EQ(db.TotalVersionSpan(), live.TotalVersionSpan());
  EXPECT_EQ(db.CompressionRatio(), live.CompressionRatio());
  Status integrity = db.VerifyIntegrity();
  EXPECT_TRUE(integrity.ok()) << integrity.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, ReopenCatalogTest,
    ::testing::Combine(::testing::ValuesIn(kAllAlgorithms),
                       ::testing::Values(LoadPath::kBulkLoad,
                                         LoadPath::kCommits,
                                         LoadPath::kCommitsThenRepartition)),
    ReopenCaseName);

/// A drain after the last Flush appends rows for its versions to the stored
/// maps of older chunks. Reopen knows only the flushed versions, so the
/// next commits reuse those version ids, and the stale rows in the stored
/// maps name versions with other records. Queries read the maps Reopen
/// derived from the graph key, so the reused versions answer right.
/// (VerifyIntegrity still reports the stale stored maps: Reopen does not
/// yet rewrite them.)
class ReusedVersionIdsTest
    : public ::testing::TestWithParam<PartitionAlgorithm> {};

TEST_P(ReusedVersionIdsTest, QueriesIgnoreStaleStoredMapRows) {
  ExampleData data = MakeChain(12, 10, 3);
  Options options = SmallOptions();
  options.algorithm = GetParam();
  options.online_batch_size = 4;
  MemoryStore backend;
  {
    auto store = RStore::Open(&backend, options);
    ASSERT_TRUE(store.ok());
    ASSERT_NO_FATAL_FAILURE(
        CommitVersions(store->get(), data.dataset, data.payloads, 0, 8));
    ASSERT_TRUE((*store)->Flush().ok());
    // The twelfth commit drains versions 8-11; nothing flushes them.
    ASSERT_NO_FATAL_FAILURE(
        CommitVersions(store->get(), data.dataset, data.payloads, 8, 12));
  }
  auto reopened = RStore::Reopen(&backend, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  RStore& db = **reopened;
  ASSERT_EQ(db.num_versions(), 8u);
  for (VersionId want = 8; want < 12; ++want) {
    auto committed = db.Commit(3, CommitDelta{});
    ASSERT_TRUE(committed.ok()) << committed.status().ToString();
    ASSERT_EQ(*committed, want);
  }
  auto base = db.GetVersion(3);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  for (VersionId v = 8; v < 12; ++v) {
    auto got = db.GetVersion(v);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(SerializeRecords(*got), SerializeRecords(*base))
        << "version " << v << ": " << got->size() << " records, version 3 "
        << base->size();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, ReusedVersionIdsTest, ::testing::ValuesIn(kAllAlgorithms),
    [](const ::testing::TestParamInfo<PartitionAlgorithm>& info) {
      return AlgorithmTestName(info.param);
    });

TEST(VerifyIntegrityTest, CleanStorePasses) {
  ExampleData data = MakeChain(15, 8, 2);
  MemoryStore backend;
  auto store = RStore::Open(&backend, SmallOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());
  EXPECT_TRUE((*store)->VerifyIntegrity().ok());
}

TEST(VerifyIntegrityTest, DetectsTamperedChunk) {
  ExampleData data = MakeChain(15, 8, 2);
  MemoryStore backend;
  auto store = RStore::Open(&backend, SmallOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());
  // Flip bytes in one stored chunk.
  std::string victim_key;
  (void)backend.Scan((*store)->options().chunk_table,
                     [&](Slice key, Slice) {
                       if (victim_key.empty()) victim_key = key.ToString();
                     });
  ASSERT_FALSE(victim_key.empty());
  ASSERT_TRUE(
      backend.Put((*store)->options().chunk_table, victim_key, "garbage")
          .ok());
  EXPECT_TRUE((*store)->VerifyIntegrity().IsCorruption());
}

TEST(VerifyIntegrityTest, DetectsDeletedChunkMap) {
  ExampleData data = MakeChain(15, 8, 2);
  MemoryStore backend;
  auto store = RStore::Open(&backend, SmallOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());
  // Remove one chunk map entry from the index table.
  std::string victim_key;
  (void)backend.Scan((*store)->options().index_table,
                     [&](Slice key, Slice) {
                       if (victim_key.empty() && !key.empty() &&
                           key[0] == 'm') {
                         victim_key = key.ToString();
                       }
                     });
  ASSERT_FALSE(victim_key.empty());
  ASSERT_TRUE(
      backend.Delete((*store)->options().index_table, victim_key).ok());
  EXPECT_FALSE((*store)->VerifyIntegrity().ok());
}

// The fsck reads every chunk body in one batch and every map in a second,
// not one Get per key.
TEST(VerifyIntegrityTest, ReadsBodiesThenMapsInTwoBatches) {
  ExampleData data = MakeChain(60, 40, 6);
  MemoryStore backend;
  auto store = RStore::Open(&backend, SmallOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());
  const uint64_t chunks = (*store)->NumChunks();
  ASSERT_GE(chunks, 20u);
  const KVStats before = backend.stats();
  ASSERT_TRUE((*store)->VerifyIntegrity().ok());
  const KVStats read = KVStats::Delta(backend.stats(), before);
  EXPECT_EQ(read.multiget_batches, 2u);
  EXPECT_EQ(read.gets, 0u);
  EXPECT_EQ(read.keys_requested, 2 * chunks);
}

// A chunk stored twice — its body re-encoded under a fresh id, beside a
// copy of its map — is adopted by Reopen like any other chunk, so every
// version holding its records selects each of them twice.
TEST(VerifyIntegrityTest, DetectsRecordHeldByTwoChunks) {
  workload::DatasetConfig config;
  config.num_versions = 12;
  config.records_per_version = 24;
  config.update_fraction = 0.2;
  config.branch_probability = 0.3;
  config.record_size_bytes = 80;
  config.seed = 1;
  const workload::GeneratedDataset gen = workload::GenerateDataset(config);
  Options options;
  options.algorithm = PartitionAlgorithm::kBottomUp;
  options.chunk_capacity_bytes = 1024;
  options.max_sub_chunk_records = 3;
  MemoryStore backend;
  auto store = RStore::Open(&backend, options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(gen.dataset, gen.payloads).ok());
  ASSERT_TRUE((*store)->Flush().ok());

  const ChunkId victim = (*store)->catalog().AllChunks().front();
  const ChunkId copy = (*store)->NumChunks();
  ASSERT_EQ((*store)->catalog().RecordsOfChunk(copy), nullptr);
  auto body = backend.Get(options.chunk_table, ChunkKey(victim));
  ASSERT_TRUE(body.ok());
  Slice rest(*body);
  uint64_t id = 0;
  ASSERT_TRUE(GetVarint64(&rest, &id).ok());
  std::string copied_body;
  PutVarint64(&copied_body, copy);
  copied_body.append(rest.data(), rest.size());
  auto map = backend.Get(options.index_table, ChunkMapKey(victim));
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(
      backend.Put(options.chunk_table, ChunkKey(copy), copied_body).ok());
  ASSERT_TRUE(backend.Put(options.index_table, ChunkMapKey(copy), *map).ok());

  auto reopened = RStore::Reopen(&backend, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE((*reopened)->VerifyIntegrity().IsCorruption());
}

TEST(VerifyIntegrityTest, QueryAlsoDetectsTamperedChunk) {
  ExampleData data = MakeChain(15, 8, 2);
  MemoryStore backend;
  auto store = RStore::Open(&backend, SmallOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());
  // Collect keys first: mutating a MemoryStore table from inside its own
  // Scan callback would self-deadlock on the store mutex.
  std::vector<std::string> keys;
  (void)backend.Scan((*store)->options().chunk_table,
                     [&](Slice key, Slice) { keys.push_back(key.ToString()); });
  for (const std::string& key : keys) {
    ASSERT_TRUE(backend.Put((*store)->options().chunk_table, key, "xx").ok());
  }
  // Every full checkout must now fail loudly, never return wrong data.
  auto r = (*store)->GetVersion(14);
  EXPECT_FALSE(r.ok());
}

TEST(BranchManagerTest, MasterBootstrapAndAdvance) {
  MemoryStore backend;
  auto store = RStore::Open(&backend, SmallOptions());
  ASSERT_TRUE(store.ok());
  BranchManager vcs(store->get());

  CommitDelta c1;
  c1.upserts.push_back({{"doc", 0}, "v0"});
  auto v0 = vcs.Commit(BranchManager::kMaster, std::move(c1));
  ASSERT_TRUE(v0.ok());
  EXPECT_EQ(*vcs.Tip("master"), *v0);

  CommitDelta c2;
  c2.upserts.push_back({{"doc", 0}, "v1"});
  auto v1 = vcs.Commit("master", std::move(c2));
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*vcs.Tip("master"), *v1);
  EXPECT_NE(*v0, *v1);

  auto checkout = vcs.Checkout("master");
  ASSERT_TRUE(checkout.ok());
  EXPECT_EQ(checkout->size(), 1u);
  EXPECT_EQ((*checkout)[0].payload, "v1");
}

TEST(BranchManagerTest, FeatureBranchesDiverge) {
  MemoryStore backend;
  auto store = RStore::Open(&backend, SmallOptions());
  ASSERT_TRUE(store.ok());
  BranchManager vcs(store->get());
  CommitDelta base;
  base.upserts.push_back({{"doc", 0}, "base"});
  VersionId root = *vcs.Commit("master", std::move(base));

  ASSERT_TRUE(vcs.CreateBranch("feature", root).ok());
  CommitDelta feature_edit;
  feature_edit.upserts.push_back({{"doc", 0}, "feature-edit"});
  ASSERT_TRUE(vcs.Commit("feature", std::move(feature_edit)).ok());
  CommitDelta master_edit;
  master_edit.upserts.push_back({{"doc", 0}, "master-edit"});
  ASSERT_TRUE(vcs.Commit("master", std::move(master_edit)).ok());

  EXPECT_EQ((*vcs.Checkout("feature"))[0].payload, "feature-edit");
  EXPECT_EQ((*vcs.Checkout("master"))[0].payload, "master-edit");
  EXPECT_EQ(vcs.Branches(),
            (std::vector<std::string>{"feature", "master"}));
}

TEST(BranchManagerTest, Validation) {
  MemoryStore backend;
  auto store = RStore::Open(&backend, SmallOptions());
  ASSERT_TRUE(store.ok());
  BranchManager vcs(store->get());
  // Unknown branch before bootstrap.
  CommitDelta c;
  c.upserts.push_back({{"x", 0}, "1"});
  EXPECT_TRUE(vcs.Commit("topic", CommitDelta(c)).status().IsNotFound());
  EXPECT_TRUE(vcs.CreateBranch("topic", 0).IsInvalidArgument());  // no V0 yet
  ASSERT_TRUE(vcs.Commit("master", std::move(c)).ok());
  EXPECT_TRUE(vcs.CreateBranch("", 0).IsInvalidArgument());
  ASSERT_TRUE(vcs.CreateBranch("topic", 0).ok());
  EXPECT_TRUE(vcs.CreateBranch("topic", 0).IsAlreadyExists());
  EXPECT_TRUE(vcs.Tip("missing").status().IsNotFound());
  EXPECT_TRUE(vcs.DeleteBranch("missing").IsNotFound());
  ASSERT_TRUE(vcs.DeleteBranch("topic").ok());
  EXPECT_TRUE(vcs.Tip("topic").status().IsNotFound());
}

TEST(BranchManagerTest, TagsAreImmutableBindings) {
  MemoryStore backend;
  auto store = RStore::Open(&backend, SmallOptions());
  ASSERT_TRUE(store.ok());
  BranchManager vcs(store->get());
  CommitDelta c;
  c.upserts.push_back({{"x", 0}, "1"});
  VersionId v0 = *vcs.Commit("master", std::move(c));
  ASSERT_TRUE(vcs.Tag("release-1.0", v0).ok());
  EXPECT_TRUE(vcs.Tag("release-1.0", v0).IsAlreadyExists());
  EXPECT_EQ(*vcs.ResolveTag("release-1.0"), v0);
  EXPECT_TRUE(vcs.ResolveTag("nope").status().IsNotFound());
  EXPECT_TRUE(vcs.Tag("bad", 99).IsInvalidArgument());
  EXPECT_EQ(vcs.Tags(), (std::vector<std::string>{"release-1.0"}));
}

TEST(BranchManagerTest, PersistAndLoad) {
  MemoryStore backend;
  auto store = RStore::Open(&backend, SmallOptions());
  ASSERT_TRUE(store.ok());
  {
    BranchManager vcs(store->get());
    CommitDelta c;
    c.upserts.push_back({{"x", 0}, "1"});
    VersionId v0 = *vcs.Commit("master", std::move(c));
    CommitDelta c2;
    c2.upserts.push_back({{"y", 0}, "2"});
    ASSERT_TRUE(vcs.Commit("master", std::move(c2)).ok());
    ASSERT_TRUE(vcs.CreateBranch("dev", v0).ok());
    ASSERT_TRUE(vcs.Tag("gold", v0).ok());
    ASSERT_TRUE(vcs.Persist(&backend).ok());
  }
  auto loaded = BranchManager::Load(store->get(), &backend);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded->Tip("master"), 1u);
  EXPECT_EQ(*loaded->Tip("dev"), 0u);
  EXPECT_EQ(*loaded->ResolveTag("gold"), 0u);
}

}  // namespace
}  // namespace rstore

// Tests for version diffing, merge-base, snapshot commits, and queries over
// corrupt chunks.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/rstore.h"
#include "core_test_util.h"
#include "kvstore/memory_store.h"

namespace rstore {
namespace {

using testing::ExampleData;
using testing::MakeChain;
using testing::MakeExample2;

Options SmallOptions() {
  Options options;
  options.chunk_capacity_bytes = 600;
  return options;
}

TEST(MergeBaseTest, Example2Ancestry) {
  ExampleData data = MakeExample2();
  MemoryStore backend;
  auto store = RStore::Open(&backend, SmallOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());
  // Fig. 1: V3 under V1, V4 under V2, both branches from V0.
  EXPECT_EQ(*(*store)->MergeBase(3, 4), 0u);
  EXPECT_EQ(*(*store)->MergeBase(1, 3), 1u);
  EXPECT_EQ(*(*store)->MergeBase(3, 3), 3u);
  EXPECT_EQ(*(*store)->MergeBase(0, 4), 0u);
  EXPECT_TRUE((*store)->MergeBase(0, 99).status().IsInvalidArgument());
}

TEST(DiffTest, ParentChildDiffEqualsTheDelta) {
  ExampleData data = MakeExample2();
  MemoryStore backend;
  auto store = RStore::Open(&backend, SmallOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());
  // Diff(V0 -> V1) must equal ∆0,1 from the paper's Example 2.
  auto diff = (*store)->Diff(0, 1);
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->added,
            (std::vector<CompositeKey>{{"K3", 1}, {"K4", 1}}));
  EXPECT_EQ(diff->removed, (std::vector<CompositeKey>{{"K3", 0}}));
}

TEST(DiffTest, SymmetricAcrossBranches) {
  ExampleData data = MakeExample2();
  MemoryStore backend;
  auto store = RStore::Open(&backend, SmallOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());
  // V3 = {K0@0,K1@0,K3@1,K4@1}; V4 = {K0@0,K1@0,K3@4,K5@2}.
  auto d34 = (*store)->Diff(3, 4);
  ASSERT_TRUE(d34.ok());
  EXPECT_EQ(d34->added,
            (std::vector<CompositeKey>{{"K3", 4}, {"K5", 2}}));
  EXPECT_EQ(d34->removed,
            (std::vector<CompositeKey>{{"K3", 1}, {"K4", 1}}));
  // ∆ij = ∆ji (paper §3.2): the reverse diff is the inverse.
  auto d43 = (*store)->Diff(4, 3);
  ASSERT_TRUE(d43.ok());
  EXPECT_EQ(d43->added, d34->removed);
  EXPECT_EQ(d43->removed, d34->added);
  // Self-diff is empty.
  auto d33 = (*store)->Diff(3, 3);
  ASSERT_TRUE(d33.ok());
  EXPECT_TRUE(d33->empty());
}

TEST(DiffTest, AgreesWithMaterializedMembership) {
  ExampleData data = MakeChain(30, 12, 3);
  MemoryStore backend;
  auto store = RStore::Open(&backend, SmallOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());
  for (auto [from, to] : {std::pair<VersionId, VersionId>{2, 27},
                          {27, 2},
                          {0, 29},
                          {14, 15}}) {
    auto diff = (*store)->Diff(from, to);
    ASSERT_TRUE(diff.ok());
    auto from_members = data.dataset.MaterializeVersion(from);
    auto to_members = data.dataset.MaterializeVersion(to);
    for (const CompositeKey& ck : diff->added) {
      EXPECT_TRUE(to_members.count(ck) && !from_members.count(ck))
          << ck.ToString();
    }
    for (const CompositeKey& ck : diff->removed) {
      EXPECT_TRUE(from_members.count(ck) && !to_members.count(ck))
          << ck.ToString();
    }
    // Completeness: |to| = |from| + added - removed.
    EXPECT_EQ(to_members.size(),
              from_members.size() + diff->added.size() -
                  diff->removed.size());
  }
}

/// Overwrites every value of `table` with bytes no decoder accepts.
void OverwriteTable(MemoryStore* backend, const std::string& table) {
  std::vector<std::string> keys;
  ASSERT_TRUE(backend
                  ->Scan(table,
                         [&](Slice key, Slice) {
                           keys.push_back(key.ToString());
                         })
                  .ok());
  ASSERT_FALSE(keys.empty());
  for (const std::string& key : keys) {
    ASSERT_TRUE(backend->Put(table, key, "bad").ok());
  }
}

/// Every query class, sync and async, on a store at default options whose
/// `table` (chunk bodies or chunk maps) holds garbage must fail with
/// kCorruption: the one decode path rejects what it cannot parse.
void ExpectEveryQueryFailsWithCorruption(bool corrupt_maps) {
  ExampleData data = MakeChain(20, 10, 3);
  MemoryStore backend;
  Options options;
  auto store = RStore::Open(&backend, options);
  ASSERT_TRUE(store.ok());
  RStore& db = **store;
  ASSERT_TRUE(db.BulkLoad(data.dataset, data.payloads).ok());
  ASSERT_TRUE(db.GetVersion(19).ok());
  // With no Flush yet, the index table holds the chunk maps and nothing else.
  OverwriteTable(&backend,
                 corrupt_maps ? options.index_table : options.chunk_table);

  EXPECT_TRUE(db.GetVersion(19).status().IsCorruption());
  EXPECT_TRUE(db.GetRange(19, "key1002", "key1006").status().IsCorruption());
  EXPECT_TRUE(db.GetHistory("key1003").status().IsCorruption());
  EXPECT_TRUE(db.GetRecord("key1003", 19).status().IsCorruption());

  Executor executor;
  std::vector<Status> async_statuses;
  auto collect = [&](const auto& result) {
    async_statuses.push_back(result.status);
  };
  db.GetVersionAsync(&executor, 19).OnReady(collect);
  db.GetRangeAsync(&executor, 19, "key1002", "key1006").OnReady(collect);
  db.GetHistoryAsync(&executor, "key1003").OnReady(collect);
  db.GetRecordAsync(&executor, "key1003", 19).OnReady(collect);
  executor.RunUntilIdle();
  ASSERT_EQ(async_statuses.size(), 4u);
  for (const Status& status : async_statuses) {
    EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  }
}

TEST(QueryCorruptionTest, GarbageChunkBodiesFailEveryQuery) {
  ExpectEveryQueryFailsWithCorruption(/*corrupt_maps=*/false);
}

TEST(QueryCorruptionTest, GarbageChunkMapsFailEveryQuery) {
  ExpectEveryQueryFailsWithCorruption(/*corrupt_maps=*/true);
}

TEST(CommitSnapshotTest, ServerSideDiffDetectsChanges) {
  MemoryStore backend;
  Options options = SmallOptions();
  options.online_batch_size = 1;
  auto store = RStore::Open(&backend, options);
  ASSERT_TRUE(store.ok());
  RStore& db = **store;

  std::map<std::string, std::string> v0 = {
      {"a", "alpha"}, {"b", "beta"}, {"c", "gamma"}};
  auto r0 = db.CommitSnapshot(kInvalidVersion, v0);
  ASSERT_TRUE(r0.ok());

  // Change one record, delete one, add one; resend the FULL snapshot.
  std::map<std::string, std::string> v1 = {
      {"a", "alpha"}, {"b", "beta-2"}, {"d", "delta"}};
  auto r1 = db.CommitSnapshot(*r0, v1);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();

  // The server-side diff must have produced exactly the minimal delta:
  // unchanged "a" keeps its V0 composite key (stored once).
  auto rec_a = db.GetRecord("a", *r1);
  ASSERT_TRUE(rec_a.ok());
  EXPECT_EQ(rec_a->key, CompositeKey("a", 0));
  auto rec_b = db.GetRecord("b", *r1);
  ASSERT_TRUE(rec_b.ok());
  EXPECT_EQ(rec_b->key.version, *r1);
  EXPECT_EQ(rec_b->payload, "beta-2");
  EXPECT_TRUE(db.GetRecord("c", *r1).status().IsNotFound());
  EXPECT_EQ(db.GetRecord("d", *r1)->payload, "delta");
  // And the membership delta is minimal.
  auto diff = db.Diff(*r0, *r1);
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->added.size(), 2u);    // b@v1, d@v1
  EXPECT_EQ(diff->removed.size(), 2u);  // b@0, c@0
}

TEST(CommitSnapshotTest, IdenticalSnapshotCommitsEmptyVersion) {
  MemoryStore backend;
  auto store = RStore::Open(&backend, SmallOptions());
  ASSERT_TRUE(store.ok());
  std::map<std::string, std::string> v0 = {{"a", "1"}, {"b", "2"}};
  auto r0 = (*store)->CommitSnapshot(kInvalidVersion, v0);
  ASSERT_TRUE(r0.ok());
  // Paper: "Even if two versions committed are exactly the same, the system
  // will generate different version-ids".
  auto r1 = (*store)->CommitSnapshot(*r0, v0);
  ASSERT_TRUE(r1.ok());
  EXPECT_NE(*r0, *r1);
  auto diff = (*store)->Diff(*r0, *r1);
  ASSERT_TRUE(diff.ok());
  EXPECT_TRUE(diff->empty());
  // Both versions checkout identically.
  EXPECT_EQ((*store)->GetVersion(*r0)->size(),
            (*store)->GetVersion(*r1)->size());
}

}  // namespace
}  // namespace rstore

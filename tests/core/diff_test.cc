// Tests for version diffing, merge-base, snapshot commits, and queries over
// corrupt chunks.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/coding.h"
#include "core/rstore.h"
#include "core_test_util.h"
#include "kvstore/memory_store.h"

namespace rstore {
namespace {

using testing::ExampleData;
using testing::MakeChain;
using testing::MakeExample2;
using testing::SerializeRecords;

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

/// One query's outcome: its status, and its records when it succeeded.
struct Answer {
  Status status = Status::OK();
  std::string records;
};

/// Every query class, sync then async, over version 19 and key1003 of a
/// MakeChain(20, 10, 3) store: eight answers in a fixed order.
std::vector<Answer> AnswerEveryQuery(RStore& db) {
  std::vector<Answer> answers(8);
  auto set = [&](size_t slot, const Status& status,
                 const std::vector<Record>& records) {
    answers[slot] = {status, status.ok() ? SerializeRecords(records) : ""};
  };
  auto set_sync = [&](size_t slot, const Result<std::vector<Record>>& got) {
    set(slot, got.status(), got.ok() ? *got : std::vector<Record>{});
  };
  set_sync(0, db.GetVersion(19));
  set_sync(1, db.GetRange(19, "key1002", "key1006"));
  set_sync(2, db.GetHistory("key1003"));
  auto point = db.GetRecord("key1003", 19);
  set(3, point.status(),
      point.ok() ? std::vector<Record>{*point} : std::vector<Record>{});

  Executor executor;
  auto set_async = [&](size_t slot) {
    return [&set, slot](const AsyncQueryResult& got) {
      set(slot, got.status, got.records);
    };
  };
  db.GetVersionAsync(&executor, 19).OnReady(set_async(4));
  db.GetRangeAsync(&executor, 19, "key1002", "key1006")
      .OnReady(set_async(5));
  db.GetHistoryAsync(&executor, "key1003").OnReady(set_async(6));
  db.GetRecordAsync(&executor, "key1003", 19)
      .OnReady([&set](const AsyncRecordResult& got) {
        set(7, got.status, std::vector<Record>{got.record});
      });
  executor.RunUntilIdle();
  return answers;
}

void ExpectEveryQueryFailsWithCorruption(RStore& db) {
  for (const Answer& answer : AnswerEveryQuery(db)) {
    EXPECT_TRUE(answer.status.IsCorruption()) << answer.status.ToString();
  }
}

/// A bulk-loaded MakeChain(20, 10, 3) store that has answered a query.
std::unique_ptr<RStore> LoadChain(MemoryStore* backend,
                                  const Options& options) {
  ExampleData data = MakeChain(20, 10, 3);
  auto store = RStore::Open(backend, options);
  EXPECT_TRUE(store.ok());
  if (!store.ok()) return nullptr;
  EXPECT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());
  EXPECT_TRUE((*store)->GetVersion(19).ok());
  return std::move(*store);
}

// Every query class, sync and async, fails with kCorruption when the chunk
// bodies hold garbage: the one decode path rejects what it cannot parse.
TEST(QueryCorruptionTest, GarbageChunkBodiesFailEveryQuery) {
  MemoryStore backend;
  Options options;
  std::unique_ptr<RStore> db = LoadChain(&backend, options);
  ASSERT_NE(db, nullptr);
  OverwriteTable(&backend, options.chunk_table);
  ExpectEveryQueryFailsWithCorruption(*db);
}

// Queries take each chunk's map from the catalog and never read the stored
// copies, so garbage in every stored map changes no answer. The stored maps
// are still what VerifyIntegrity checks.
TEST(QueryCorruptionTest, GarbageChunkMapsLeaveAnswersUnchanged) {
  MemoryStore backend;
  Options options;
  std::unique_ptr<RStore> db = LoadChain(&backend, options);
  ASSERT_NE(db, nullptr);
  const std::vector<Answer> before = AnswerEveryQuery(*db);
  // With no Flush yet, the index table holds the chunk maps and nothing else.
  OverwriteTable(&backend, options.index_table);

  const std::vector<Answer> after = AnswerEveryQuery(*db);
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    ASSERT_TRUE(before[i].status.ok()) << before[i].status.ToString();
    EXPECT_TRUE(after[i].status.ok()) << after[i].status.ToString();
    EXPECT_FALSE(before[i].records.empty());
    EXPECT_EQ(after[i].records, before[i].records);
  }
  Status integrity = db->VerifyIntegrity();
  EXPECT_TRUE(integrity.IsCorruption()) << integrity.ToString();
}

/// The chunk every query of AnswerEveryQuery fetches: the one holding
/// key1003's record in version 19.
ChunkId ChunkEveryQueryFetches(const RStore& db) {
  for (const CompositeKey& ck : db.dataset().MaterializeVersion(19)) {
    if (ck.key != "key1003") continue;
    const StoreCatalog::RecordSlot* slot = db.catalog().FindRecord(ck);
    EXPECT_NE(slot, nullptr);
    return slot == nullptr ? 0 : slot->chunk;
  }
  ADD_FAILURE() << "key1003 not in version 19";
  return 0;
}

// A valid body stored under another chunk's key is corruption, even when
// both chunks hold the same number of records, so that the catalog's map
// of the one would index the records of the other.
TEST(QueryCorruptionTest, MisfiledChunkBodyFailsEveryQuery) {
  MemoryStore backend;
  Options options = SmallOptions();
  std::unique_ptr<RStore> db = LoadChain(&backend, options);
  ASSERT_NE(db, nullptr);
  const ChunkId target = ChunkEveryQueryFetches(*db);
  const size_t target_records = db->catalog().RecordsOfChunk(target)->size();
  ChunkId donor = target;
  for (ChunkId id : db->catalog().AllChunks()) {
    if (id != target &&
        db->catalog().RecordsOfChunk(id)->size() == target_records) {
      donor = id;
      break;
    }
  }
  ASSERT_NE(donor, target) << "no other chunk holds " << target_records
                           << " records";
  auto body = backend.Get(options.chunk_table, ChunkKey(donor));
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  ASSERT_TRUE(backend.Put(options.chunk_table, ChunkKey(target), *body).ok());
  ExpectEveryQueryFailsWithCorruption(*db);
}

// A body that decodes as the chunk asked for but holds a different number
// of records than the catalog's map indexes is corruption: the map's rows
// would index past the body's records, or miss some.
TEST(QueryCorruptionTest, BodyNotCoveringItsMapFailsEveryQuery) {
  MemoryStore backend;
  Options options = SmallOptions();
  std::unique_ptr<RStore> db = LoadChain(&backend, options);
  ASSERT_NE(db, nullptr);
  const ChunkId target = ChunkEveryQueryFetches(*db);
  const size_t target_records = db->catalog().RecordsOfChunk(target)->size();
  ChunkId donor = target;
  for (ChunkId id : db->catalog().AllChunks()) {
    if (db->catalog().RecordsOfChunk(id)->size() != target_records) {
      donor = id;
      break;
    }
  }
  ASSERT_NE(donor, target);
  // The donor's body, renumbered as the target: a body starts with its id.
  auto donor_body = backend.Get(options.chunk_table, ChunkKey(donor));
  ASSERT_TRUE(donor_body.ok()) << donor_body.status().ToString();
  Slice rest(*donor_body);
  uint64_t donor_id = 0;
  ASSERT_TRUE(GetVarint64(&rest, &donor_id).ok());
  ASSERT_EQ(donor_id, donor);
  std::string body;
  PutVarint64(&body, target);
  body.append(rest.data(), rest.size());
  ASSERT_TRUE(backend.Put(options.chunk_table, ChunkKey(target), body).ok());
  ExpectEveryQueryFailsWithCorruption(*db);
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

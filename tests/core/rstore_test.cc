#include "core/rstore.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>

#include "common/executor.h"
#include "common/flight_recorder.h"
#include "core_test_util.h"
#include "kvstore/cluster.h"
#include "kvstore/memory_store.h"

namespace rstore {
namespace {

using testing::ExampleData;
using testing::MakeChain;
using testing::MakeExample2;
using testing::PayloadFor;

Options SmallChunkOptions(PartitionAlgorithm algorithm) {
  Options options;
  options.algorithm = algorithm;
  options.chunk_capacity_bytes = 600;
  return options;
}

/// Ground truth: the expected (key -> payload) contents of a version.
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

constexpr PartitionAlgorithm kAllAlgorithms[] = {
    PartitionAlgorithm::kBottomUp,        PartitionAlgorithm::kShingle,
    PartitionAlgorithm::kDepthFirst,      PartitionAlgorithm::kBreadthFirst,
    PartitionAlgorithm::kDeltaBaseline,   PartitionAlgorithm::kSubChunkBaseline,
    PartitionAlgorithm::kSingleAddressSpace,
};

class RStoreAllAlgorithmsTest
    : public ::testing::TestWithParam<PartitionAlgorithm> {};

// Differential test: every algorithm and baseline must return byte-identical
// query results; they differ only in layout and cost.
TEST_P(RStoreAllAlgorithmsTest, QueriesMatchGroundTruth) {
  ExampleData data = MakeChain(25, 12, 3);
  MemoryStore backend;
  auto store = RStore::Open(&backend, SmallChunkOptions(GetParam()));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());

  for (VersionId v : {VersionId{0}, VersionId{7}, VersionId{24}}) {
    auto got = (*store)->GetVersion(v);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(ToMap(*got), ExpectedVersion(data, v)) << "V" << v;
  }

  // Range: middle slice of the key space.
  auto range = (*store)->GetRange(24, "key1003", "key1007");
  ASSERT_TRUE(range.ok());
  auto expected = ExpectedVersion(data, 24);
  std::map<std::string, std::string> expected_range;
  for (auto& [key, payload] : expected) {
    if (key >= "key1003" && key <= "key1007") expected_range[key] = payload;
  }
  EXPECT_EQ(ToMap(*range), expected_range);

  // History of one key: all of its composite keys, ascending.
  auto history = (*store)->GetHistory("key1005");
  ASSERT_TRUE(history.ok());
  std::vector<CompositeKey> expected_history;
  for (const auto& [ck, payload] : data.payloads) {
    if (ck.key == "key1005") expected_history.push_back(ck);
  }
  std::sort(expected_history.begin(), expected_history.end());
  ASSERT_EQ(history->size(), expected_history.size());
  for (size_t i = 0; i < history->size(); ++i) {
    EXPECT_EQ((*history)[i].key, expected_history[i]);
    EXPECT_EQ((*history)[i].payload, data.payloads.at(expected_history[i]));
  }

  // Point lookups, present and absent.
  auto rec = (*store)->GetRecord("key1005", 20);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->payload, ExpectedVersion(data, 20).at("key1005"));
  EXPECT_TRUE(
      (*store)->GetRecord("no-such-key", 20).status().IsNotFound());
}

TEST_P(RStoreAllAlgorithmsTest, SpanAccountingMatchesQueryStats) {
  ExampleData data = MakeChain(20, 10, 2);
  MemoryStore backend;
  auto store = RStore::Open(&backend, SmallChunkOptions(GetParam()));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());
  // Sum of per-query chunk fetches over all versions == TotalVersionSpan.
  uint64_t fetched = 0;
  for (VersionId v = 0; v < 20; ++v) {
    QueryStats stats;
    ASSERT_TRUE((*store)->GetVersion(v, &stats).ok());
    fetched += stats.chunks_fetched;
  }
  EXPECT_EQ(fetched, (*store)->TotalVersionSpan());
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, RStoreAllAlgorithmsTest, ::testing::ValuesIn(kAllAlgorithms),
    [](const ::testing::TestParamInfo<PartitionAlgorithm>& info) {
      std::string name = PartitionAlgorithmName(info.param);
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(RStoreTest, OpenValidation) {
  EXPECT_FALSE(RStore::Open(nullptr, Options()).ok());
  MemoryStore backend;
  Options bad;
  bad.chunk_capacity_bytes = 0;
  EXPECT_FALSE(RStore::Open(&backend, bad).ok());
}

TEST(RStoreTest, BulkLoadTwiceFails) {
  ExampleData data = MakeExample2();
  MemoryStore backend;
  auto store =
      RStore::Open(&backend, SmallChunkOptions(PartitionAlgorithm::kBottomUp));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());
  EXPECT_TRUE(
      (*store)->BulkLoad(data.dataset, data.payloads).IsInvalidArgument());
}

TEST(RStoreTest, BulkLoadWithMergesViaTreeTransform) {
  ExampleData data;
  VersionedDataset& ds = data.dataset;
  ds.graph.AddRoot();
  (void)*ds.graph.AddVersion({0});
  (void)*ds.graph.AddVersion({0});
  (void)*ds.graph.AddVersion({1, 2});  // merge picks up C@2
  ds.deltas.resize(4);
  ds.deltas[0].added = {{"A", 0}};
  ds.deltas[1].added = {{"B", 1}};
  ds.deltas[2].added = {{"C", 2}};
  ds.deltas[3].added = {{"C", 2}};
  for (const auto& d : ds.deltas) {
    for (const auto& ck : d.added) data.payloads[ck] = PayloadFor(ck);
  }
  MemoryStore backend;
  auto store =
      RStore::Open(&backend, SmallChunkOptions(PartitionAlgorithm::kBottomUp));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());
  // Merge version contains A, B and (renamed) C with C@2's payload.
  auto v3 = (*store)->GetVersion(3);
  ASSERT_TRUE(v3.ok());
  auto contents = ToMap(*v3);
  EXPECT_EQ(contents.size(), 3u);
  EXPECT_EQ(contents.at("C"), PayloadFor(CompositeKey("C", 2)));
  // Original graph keeps the merge edge.
  EXPECT_TRUE((*store)->graph().IsMerge(3));
  EXPECT_TRUE((*store)->dataset().graph.IsTree());
}

TEST(RStoreTest, CommitBuildsHistoryFromScratch) {
  MemoryStore backend;
  Options options = SmallChunkOptions(PartitionAlgorithm::kBottomUp);
  options.online_batch_size = 4;
  auto store = RStore::Open(&backend, options);
  ASSERT_TRUE(store.ok());
  RStore& s = **store;

  CommitDelta root;
  root.upserts.push_back({CompositeKey("patient/1", 0), "{\"age\":50}"});
  root.upserts.push_back({CompositeKey("patient/2", 0), "{\"age\":61}"});
  auto v0 = s.Commit(kInvalidVersion, std::move(root));
  ASSERT_TRUE(v0.ok());
  EXPECT_EQ(*v0, 0u);

  CommitDelta second;
  second.upserts.push_back({CompositeKey("patient/1", 0), "{\"age\":51}"});
  second.upserts.push_back({CompositeKey("patient/3", 0), "{\"age\":33}"});
  auto v1 = s.Commit(*v0, std::move(second));
  ASSERT_TRUE(v1.ok());

  CommitDelta third;
  third.deletes.push_back("patient/2");
  auto v2 = s.Commit(*v1, std::move(third));
  ASSERT_TRUE(v2.ok());

  auto r0 = s.GetVersion(*v0);
  ASSERT_TRUE(r0.ok()) << r0.status().ToString();
  EXPECT_EQ(ToMap(*r0),
            (std::map<std::string, std::string>{
                {"patient/1", "{\"age\":50}"}, {"patient/2", "{\"age\":61}"}}));
  auto r2 = s.GetVersion(*v2);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(ToMap(*r2),
            (std::map<std::string, std::string>{
                {"patient/1", "{\"age\":51}"}, {"patient/3", "{\"age\":33}"}}));

  auto history = s.GetHistory("patient/1");
  ASSERT_TRUE(history.ok());
  ASSERT_EQ(history->size(), 2u);
  EXPECT_EQ((*history)[0].payload, "{\"age\":50}");
  EXPECT_EQ((*history)[1].payload, "{\"age\":51}");
}

TEST(RStoreTest, CommitValidation) {
  MemoryStore backend;
  auto store =
      RStore::Open(&backend, SmallChunkOptions(PartitionAlgorithm::kBottomUp));
  ASSERT_TRUE(store.ok());
  RStore& s = **store;
  // First commit must use kInvalidVersion.
  CommitDelta c;
  c.upserts.push_back({CompositeKey("a", 0), "1"});
  EXPECT_TRUE(s.Commit(5, CommitDelta(c)).status().IsInvalidArgument());
  ASSERT_TRUE(s.Commit(kInvalidVersion, CommitDelta(c)).ok());
  // Unknown parent.
  EXPECT_TRUE(s.Commit(9, CommitDelta(c)).status().IsInvalidArgument());
  // Duplicate key in one commit.
  CommitDelta dup;
  dup.upserts.push_back({CompositeKey("x", 0), "1"});
  dup.upserts.push_back({CompositeKey("x", 0), "2"});
  EXPECT_TRUE(s.Commit(0, std::move(dup)).status().IsInvalidArgument());
  // Deleting an absent key.
  CommitDelta del;
  del.deletes.push_back("nope");
  EXPECT_TRUE(s.Commit(0, std::move(del)).status().IsInvalidArgument());
}

TEST(RStoreTest, BranchedCommits) {
  MemoryStore backend;
  auto store =
      RStore::Open(&backend, SmallChunkOptions(PartitionAlgorithm::kBottomUp));
  ASSERT_TRUE(store.ok());
  RStore& s = **store;
  CommitDelta root;
  root.upserts.push_back({CompositeKey("doc", 0), "base"});
  VersionId v0 = *s.Commit(kInvalidVersion, std::move(root));
  // Two children of v0 (a branch point).
  CommitDelta left;
  left.upserts.push_back({CompositeKey("doc", 0), "left-edit"});
  VersionId vl = *s.Commit(v0, std::move(left));
  CommitDelta right;
  right.upserts.push_back({CompositeKey("doc", 0), "right-edit"});
  VersionId vr = *s.Commit(v0, std::move(right));

  EXPECT_EQ(s.GetRecord("doc", v0)->payload, "base");
  EXPECT_EQ(s.GetRecord("doc", vl)->payload, "left-edit");
  EXPECT_EQ(s.GetRecord("doc", vr)->payload, "right-edit");
  auto history = s.GetHistory("doc");
  ASSERT_TRUE(history.ok());
  EXPECT_EQ(history->size(), 3u);
}

TEST(RStoreTest, OnlineBatchingDefersPartitioning) {
  MemoryStore backend;
  Options options = SmallChunkOptions(PartitionAlgorithm::kBottomUp);
  options.online_batch_size = 100;  // never auto-flushes in this test
  auto store = RStore::Open(&backend, options);
  ASSERT_TRUE(store.ok());
  RStore& s = **store;
  CommitDelta root;
  root.upserts.push_back({CompositeKey("k", 0), "v0"});
  VersionId v0 = *s.Commit(kInvalidVersion, std::move(root));
  (void)v0;
  EXPECT_EQ(s.NumChunks(), 0u);  // still staged
  ASSERT_TRUE(s.Flush().ok());
  EXPECT_GT(s.NumChunks(), 0u);
  // Idempotent flush.
  ASSERT_TRUE(s.Flush().ok());
}

TEST(RStoreTest, MixedBulkLoadAndCommits) {
  ExampleData data = MakeChain(10, 6, 2);
  MemoryStore backend;
  Options options = SmallChunkOptions(PartitionAlgorithm::kBottomUp);
  options.online_batch_size = 2;
  auto store = RStore::Open(&backend, options);
  ASSERT_TRUE(store.ok());
  RStore& s = **store;
  ASSERT_TRUE(s.BulkLoad(data.dataset, data.payloads).ok());

  // Extend history online from the last bulk version.
  VersionId tip = 9;
  for (int i = 0; i < 5; ++i) {
    CommitDelta c;
    c.upserts.push_back(
        {CompositeKey("key1001", 0), "updated-" + std::to_string(i)});
    auto v = s.Commit(tip, std::move(c));
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    tip = *v;
  }
  EXPECT_EQ(s.GetRecord("key1001", tip)->payload, "updated-4");
  // Pre-existing keys still visible at the new tip.
  auto full = s.GetVersion(tip);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->size(), 6u);
  // And the old version still reconstructs exactly.
  auto v4 = s.GetVersion(4);
  ASSERT_TRUE(v4.ok());
  EXPECT_EQ(ToMap(*v4), ExpectedVersion(data, 4));
}

/// A query's outcome in comparable form: its status and its records.
struct Answer {
  Status::Code code = Status::Code::kOk;
  std::string status;
  std::string records;
  bool operator==(const Answer&) const = default;
};

Answer AnswerOf(const Status& status, const std::vector<Record>& records) {
  return {status.code(), status.ToString(), testing::SerializeRecords(records)};
}

Answer AnswerOf(const Result<std::vector<Record>>& got) {
  return AnswerOf(got.status(), got.ok() ? *got : std::vector<Record>{});
}

// Run and RunAsync answer every class like the named methods they replace,
// and log flight records under the same names and statuses: a point query
// that finds nothing answers kNotFound but is recorded as a success.
TEST(RStoreTest, RunAndRunAsyncAnswerLikeTheNamedQueries) {
  ExampleData data = MakeChain(8, 6, 2);
  Cluster cluster((ClusterOptions()));
  auto opened =
      RStore::Open(&cluster, SmallChunkOptions(PartitionAlgorithm::kBottomUp));
  ASSERT_TRUE(opened.ok());
  RStore* store = opened->get();
  ASSERT_TRUE(store->BulkLoad(data.dataset, data.payloads).ok());
  Executor executor;
  auto drained = [&executor](const auto& future) {
    executor.RunUntilIdle();
    return future.value();
  };

  using Kind = Query::Kind;
  using Code = Status::Code;
  const VersionId kUnknown = 1000;
  struct Probe {
    Query query;
    Code code;  // what every entry point answers
  };
  struct Class {
    std::string flight;  // the sync flight-record name
    std::function<Answer(const Query&)> named;
    std::function<Answer(const Query&)> named_async;
    std::vector<Probe> probes;
  };
  const std::vector<Class> classes = {
      {"get_version",
       [&](const Query& q) { return AnswerOf(store->GetVersion(q.version)); },
       [&](const Query& q) {
         auto r = drained(store->GetVersionAsync(&executor, q.version));
         return AnswerOf(r.status, r.records);
       },
       {{{.kind = Kind::kFullVersion, .version = 5}, Code::kOk},
        {{.kind = Kind::kFullVersion, .version = kUnknown},
         Code::kInvalidArgument}}},
      {"get_range",
       [&](const Query& q) {
         return AnswerOf(store->GetRange(q.version, q.key_lo, q.key_hi));
       },
       [&](const Query& q) {
         auto r = drained(
             store->GetRangeAsync(&executor, q.version, q.key_lo, q.key_hi));
         return AnswerOf(r.status, r.records);
       },
       {{{.kind = Kind::kRange,
          .version = 5,
          .key_lo = "key1001",
          .key_hi = "key1003"},
         Code::kOk},
        {{.kind = Kind::kRange,
          .version = kUnknown,
          .key_lo = "key1001",
          .key_hi = "key1003"},
         Code::kInvalidArgument}}},
      {"get_history",
       [&](const Query& q) { return AnswerOf(store->GetHistory(q.key)); },
       [&](const Query& q) {
         auto r = drained(store->GetHistoryAsync(&executor, q.key));
         return AnswerOf(r.status, r.records);
       },
       // History ignores the version, so an unknown one changes nothing.
       {{{.kind = Kind::kEvolution, .key = "key1002"}, Code::kOk},
        {{.kind = Kind::kEvolution, .version = kUnknown, .key = "key1002"},
         Code::kOk}}},
      {"get_record",
       [&](const Query& q) {
         auto r = store->GetRecord(q.key, q.version);
         return AnswerOf(r.status(), r.ok() ? std::vector<Record>{*r}
                                            : std::vector<Record>{});
       },
       [&](const Query& q) {
         auto r = drained(store->GetRecordAsync(&executor, q.key, q.version));
         return AnswerOf(r.status, r.status.ok() ? std::vector<Record>{r.record}
                                                 : std::vector<Record>{});
       },
       {{{.kind = Kind::kPoint, .version = 5, .key = "key1002"}, Code::kOk},
        {{.kind = Kind::kPoint, .version = 5, .key = "key0000"},
         Code::kNotFound},
        {{.kind = Kind::kPoint, .version = kUnknown, .key = "key1002"},
         Code::kInvalidArgument}}},
  };

  // The newest flight record names `name` and carries `status` (empty for a
  // success).
  auto expect_flight = [](const std::string& name, const std::string& status) {
    const std::vector<FlightRecord> recent = FlightRecorder::Default().Recent();
    ASSERT_FALSE(recent.empty());
    EXPECT_EQ(recent.front().name, name);
    EXPECT_EQ(recent.front().status, status);
  };
  for (const Class& c : classes) {
    for (const Probe& probe : c.probes) {
      const Query& q = probe.query;
      SCOPED_TRACE(c.flight + " version " + std::to_string(q.version) +
                   " key " + q.key);
      // A point miss ran to success; any other failure is recorded as is.
      const Answer named = c.named(q);
      const std::string flight_status =
          probe.code == Code::kOk || probe.code == Code::kNotFound
              ? ""
              : named.status;
      EXPECT_EQ(named.code, probe.code) << named.status;
      if (probe.code == Code::kOk) {
        EXPECT_FALSE(named.records.empty());
      }
      expect_flight(c.flight, flight_status);

      EXPECT_EQ(AnswerOf(store->Run(q)), named);
      expect_flight(c.flight, flight_status);

      EXPECT_EQ(c.named_async(q), named);
      expect_flight(c.flight + "_async", flight_status);

      const AsyncQueryResult async = drained(store->RunAsync(&executor, q));
      EXPECT_EQ(AnswerOf(async.status, async.records), named);
      expect_flight(c.flight + "_async", flight_status);
    }
  }
}

TEST(RStoreTest, WorksOnDistributedCluster) {
  ExampleData data = MakeChain(15, 8, 2);
  ClusterOptions cluster_options;
  cluster_options.num_nodes = 4;
  cluster_options.replication_factor = 2;
  Cluster cluster(cluster_options);
  auto store = RStore::Open(&cluster,
                            SmallChunkOptions(PartitionAlgorithm::kBottomUp));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());
  QueryStats stats;
  auto got = (*store)->GetVersion(14, &stats);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToMap(*got), ExpectedVersion(data, 14));
  EXPECT_GT(stats.chunks_fetched, 0u);
  EXPECT_GT(stats.simulated_micros, 0u);
  // Survives a node failure thanks to replication.
  cluster.SetNodeAlive(0, false);
  auto again = (*store)->GetVersion(14);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(ToMap(*again), ExpectedVersion(data, 14));
}

TEST(RStoreTest, CompressionRatioReported) {
  ExampleData data = MakeChain(30, 5, 2);
  // Highly-compressible payloads with small per-version diffs.
  for (auto& [ck, payload] : data.payloads) {
    payload = std::string(1500, 'z') + ck.ToString();
  }
  MemoryStore backend;
  Options options = SmallChunkOptions(PartitionAlgorithm::kBottomUp);
  options.max_sub_chunk_records = 8;
  auto store = RStore::Open(&backend, options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());
  EXPECT_GT((*store)->CompressionRatio(), 3.0);
  // Data still round-trips.
  auto got = (*store)->GetVersion(29);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToMap(*got), ExpectedVersion(data, 29));
}

TEST(RStoreTest, ProjectionMemoryFootprintIsSmall) {
  ExampleData data = MakeChain(50, 20, 4);
  MemoryStore backend;
  auto store =
      RStore::Open(&backend, SmallChunkOptions(PartitionAlgorithm::kBottomUp));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());
  uint64_t data_bytes = 0;
  for (const auto& [ck, payload] : data.payloads) data_bytes += payload.size();
  // The paper's §2.4 point: indexes are a small fraction of the data.
  EXPECT_LT((*store)->catalog().ProjectionMemoryBytes(), data_bytes);
}

}  // namespace
}  // namespace rstore

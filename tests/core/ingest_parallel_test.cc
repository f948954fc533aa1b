// Parallel-ingest determinism contract (DESIGN.md "Parallel ingest"): the
// partitioning decision and the chunk writes stay serial and only sub-chunk
// carving and compression fan out, so ingest must leave the backend
// byte-identical to serial ingest at every shard count, for every
// partitioning algorithm, on both the offline (BulkLoad) and the online
// (Commit/Flush) write path — and strict queries must therefore match byte
// for byte.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/rstore.h"
#include "core_test_util.h"
#include "kvstore/memory_store.h"

namespace rstore {
namespace {

using testing::ExampleData;
using testing::MakeChain;
using testing::ReplayQueryWorkload;

const PartitionAlgorithm kAllAlgorithms[] = {
    PartitionAlgorithm::kBottomUp,       PartitionAlgorithm::kShingle,
    PartitionAlgorithm::kDepthFirst,     PartitionAlgorithm::kBreadthFirst,
    PartitionAlgorithm::kDeltaBaseline,  PartitionAlgorithm::kSubChunkBaseline,
    PartitionAlgorithm::kSingleAddressSpace};

Options SweepOptions(PartitionAlgorithm algorithm) {
  Options options;
  options.algorithm = algorithm;
  options.chunk_capacity_bytes = 700;
  options.max_sub_chunk_records = 4;
  options.online_batch_size = 5;
  return options;
}

/// Canonical byte dump of both tables: MemoryStore scans in key order, so
/// two identical stores dump identical bytes.
std::string DumpBackend(MemoryStore* backend, const Options& options) {
  std::string out;
  for (const std::string& table : {options.chunk_table, options.index_table}) {
    out += "== " + table + "\n";
    EXPECT_TRUE(backend
                    ->Scan(table,
                           [&out](Slice key, Slice value) {
                             out += key.ToString();
                             out += '\x1f';
                             out += value.ToString();
                             out += '\x1e';
                           })
                    .ok());
  }
  return out;
}

/// Loads `data` offline (BulkLoad) or online (per-version commits + Flush)
/// and returns the backend dump plus replayed query bytes.
struct IngestRun {
  std::string dump;
  std::vector<std::string> queries;
};

IngestRun RunIngest(const ExampleData& data, const Options& options,
                    bool online) {
  IngestRun out;
  MemoryStore backend;
  auto store = RStore::Open(&backend, options);
  EXPECT_TRUE(store.ok());
  if (!store.ok()) return out;
  if (online) {
    for (VersionId v = 0; v < data.dataset.graph.size(); ++v) {
      CommitDelta delta;
      const VersionDelta& d = data.dataset.deltas[v];
      std::unordered_map<std::string, bool> added;
      for (const CompositeKey& ck : d.added) {
        added[ck.key] = true;
        delta.upserts.push_back(Record{ck, data.payloads.at(ck)});
      }
      for (const CompositeKey& ck : d.removed) {
        if (!added.count(ck.key)) delta.deletes.push_back(ck.key);
      }
      VersionId parent =
          v == 0 ? kInvalidVersion : data.dataset.graph.PrimaryParent(v);
      auto r = (*store)->Commit(parent, std::move(delta));
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (!r.ok()) return out;
    }
    EXPECT_TRUE((*store)->Flush().ok());
  } else {
    EXPECT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());
    EXPECT_TRUE((*store)->Flush().ok());
  }
  out.dump = DumpBackend(&backend, options);
  auto replay = ReplayQueryWorkload(store->get(), data.dataset, 42, 1);
  EXPECT_TRUE(replay.ok()) << replay.status().ToString();
  if (replay.ok()) out.queries = std::move(replay->results);
  return out;
}

class ShardedIngestEquivalenceTest
    : public ::testing::TestWithParam<PartitionAlgorithm> {};

TEST_P(ShardedIngestEquivalenceTest, BackendBytesMatchSerialAtEveryShardCount) {
  const ExampleData data = MakeChain(20, 14, 4);
  const Options options = SweepOptions(GetParam());
  for (bool online : {false, true}) {
    SCOPED_TRACE(online ? "online" : "bulk");
    Options serial_options = options;
    serial_options.ingest_shards = 1;
    const IngestRun serial = RunIngest(data, serial_options, online);
    ASSERT_FALSE(serial.dump.empty());

    for (uint32_t shards : {2u, 4u, 8u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      Options sharded_options = options;
      sharded_options.ingest_shards = shards;
      const IngestRun sharded = RunIngest(data, sharded_options, online);
      EXPECT_EQ(sharded.dump, serial.dump);
      EXPECT_EQ(sharded.queries, serial.queries);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, ShardedIngestEquivalenceTest,
    ::testing::ValuesIn(kAllAlgorithms),
    [](const ::testing::TestParamInfo<PartitionAlgorithm>& info) {
      // Test-name-safe: the display names contain '-'.
      std::string name = PartitionAlgorithmName(info.param);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

}  // namespace
}  // namespace rstore

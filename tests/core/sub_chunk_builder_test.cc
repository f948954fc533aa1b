#include "core/sub_chunk_builder.h"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <set>
#include <string>

#include "core_test_util.h"

namespace rstore {
namespace {

using testing::ExampleData;
using testing::MakeChain;
using testing::MakeExample2;

SubChunkBuildResult Build(const ExampleData& data, uint32_t k) {
  Options options;
  options.max_sub_chunk_records = k;
  RecordVersionMap rv = data.dataset.BuildRecordVersionMap();
  auto result = BuildSubChunks(data.dataset, data.payloads, rv, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return *std::move(result);
}

TEST(SubChunkBuilderTest, KOneIsOneRecordPerSubChunk) {
  ExampleData data = MakeExample2();
  SubChunkBuildResult result = Build(data, 1);
  EXPECT_EQ(result.sub_chunks.size(), 9u);  // 9 distinct records
  for (const SubChunk& sc : result.sub_chunks) {
    EXPECT_EQ(sc.num_records(), 1u);
  }
}

TEST(SubChunkBuilderTest, AllRecordsCoveredExactlyOnce) {
  ExampleData data = MakeChain(30, 10, 3);
  for (uint32_t k : {1u, 2u, 3u, 5u, 100u}) {
    SubChunkBuildResult result = Build(data, k);
    std::set<CompositeKey> seen;
    for (const SubChunk& sc : result.sub_chunks) {
      EXPECT_LE(sc.num_records(), k);
      for (const CompositeKey& ck : sc.keys()) {
        EXPECT_TRUE(seen.insert(ck).second) << ck.ToString();
      }
    }
    EXPECT_EQ(seen.size(), data.dataset.CountDistinctRecords()) << "k=" << k;
  }
}

TEST(SubChunkBuilderTest, MembersShareKeyAndAreConnected) {
  ExampleData data = MakeChain(40, 8, 4);
  SubChunkBuildResult result = Build(data, 4);
  bool found_multi = false;
  for (const SubChunk& sc : result.sub_chunks) {
    if (sc.num_records() > 1) found_multi = true;
    std::set<std::string> keys;
    for (const CompositeKey& ck : sc.keys()) keys.insert(ck.key);
    EXPECT_EQ(keys.size(), 1u);
    // Connectivity: on a chain, member versions of one key must be
    // consecutive in that key's update sequence. Verify head is earliest.
    for (size_t i = 1; i < sc.keys().size(); ++i) {
      EXPECT_GT(sc.keys()[i].version, sc.keys()[0].version);
    }
  }
  EXPECT_TRUE(found_multi);
}

TEST(SubChunkBuilderTest, PayloadsRoundTripThroughSubChunks) {
  ExampleData data = MakeChain(25, 6, 3);
  SubChunkBuildResult result = Build(data, 3);
  for (const SubChunk& sc : result.sub_chunks) {
    for (const CompositeKey& ck : sc.keys()) {
      auto payload = sc.ExtractPayload(ck);
      ASSERT_TRUE(payload.ok());
      EXPECT_EQ(*payload, data.payloads.at(ck)) << ck.ToString();
    }
  }
}

TEST(SubChunkBuilderTest, ItemVersionsAreUnionOfMemberVersions) {
  ExampleData data = MakeExample2();
  RecordVersionMap rv = data.dataset.BuildRecordVersionMap();
  Options options;
  options.max_sub_chunk_records = 3;
  auto result = BuildSubChunks(data.dataset, data.payloads, rv, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->items.size(), result->sub_chunks.size());
  for (size_t i = 0; i < result->items.size(); ++i) {
    const PlacementItem& item = result->items[i];
    const SubChunk& sc = result->sub_chunks[i];
    EXPECT_EQ(item.id, sc.id());
    EXPECT_EQ(item.origin_version, sc.id().version);
    std::set<VersionId> expected;
    for (const CompositeKey& ck : sc.keys()) {
      for (VersionId v : rv.at(ck)) expected.insert(v);
    }
    std::set<VersionId> actual(item.versions.begin(), item.versions.end());
    EXPECT_EQ(actual, expected);
    EXPECT_GT(item.bytes, 0u);
  }
}

TEST(SubChunkBuilderTest, LargerKImprovesCompressionOnSimilarRecords) {
  // The Fig. 10 mechanism: more same-key versions per sub-chunk => smaller
  // total compressed size (records are near-identical across updates in
  // MakeChain's PayloadFor... actually payloads differ per version, so use
  // custom near-identical payloads).
  ExampleData data = MakeChain(40, 4, 2);
  for (auto& [ck, payload] : data.payloads) {
    // Re-generate: large shared body + tiny per-version tail.
    payload = std::string(2000, 'x') + ck.key + std::to_string(ck.version);
  }
  SubChunkBuildResult k1 = Build(data, 1);
  SubChunkBuildResult k10 = Build(data, 10);
  EXPECT_LT(k10.total_compressed_bytes(), k1.total_compressed_bytes());
  EXPECT_GT(k10.compression_ratio(), k1.compression_ratio());
  EXPECT_EQ(k10.total_uncompressed_bytes(), k1.total_uncompressed_bytes());
}

TEST(SubChunkBuilderTest, MissingPayloadIsError) {
  ExampleData data = MakeExample2();
  data.payloads.erase(CompositeKey("K3", 1));
  RecordVersionMap rv = data.dataset.BuildRecordVersionMap();
  Options options;
  auto result = BuildSubChunks(data.dataset, data.payloads, rv, options);
  EXPECT_TRUE(result.status().IsInvalidArgument());

  // The missing record belongs to the middle key in sorted order, so its
  // carve block is neither the first nor the last at any thread count; the
  // block's error must still reach the caller. The chain holds more than
  // four carve grains of records, so ingest_shards 4 starts four workers on
  // four cores.
  ExampleData chain = MakeChain(8, 4096, 1800);
  ASSERT_GT(chain.payloads.size(), 4 * kCarveGrainRecords);
  std::set<std::string> keys;
  for (const auto& [ck, payload] : chain.payloads) keys.insert(ck.key);
  const CompositeKey missing(*std::next(keys.begin(), keys.size() / 2), 0);
  ASSERT_EQ(chain.payloads.erase(missing), 1u);
  RecordVersionMap chain_rv = chain.dataset.BuildRecordVersionMap();
  for (uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE("ingest_shards=" + std::to_string(shards));
    Options sharded;
    sharded.max_sub_chunk_records = 3;
    sharded.ingest_shards = shards;
    auto built =
        BuildSubChunks(chain.dataset, chain.payloads, chain_rv, sharded);
    EXPECT_TRUE(built.status().IsInvalidArgument());
    EXPECT_NE(built.status().message().find(missing.ToString()),
              std::string::npos)
        << built.status().ToString();
  }
}

// A drain-sized batch carves on the calling thread; perfbench's bulk input
// and bench_ingest's 100,000-record version still fan out.
TEST(SubChunkBuilderTest, CarveWorkersFollowTheGrain) {
  // A perfbench drain at 3 shards, and its final Flush.
  EXPECT_EQ(CarveWorkers(1535, 3, 4), 1u);
  EXPECT_EQ(CarveWorkers(770, 3, 4), 1u);
  EXPECT_EQ(CarveWorkers(1535, 0, 4), 1u);
  // perfbench's 19,950-record BulkLoad at 3 shards; unbounded, the grain
  // caps it at 4 workers even on 8 cores.
  EXPECT_EQ(CarveWorkers(19950, 3, 4), 3u);
  EXPECT_EQ(CarveWorkers(19950, 0, 8), 4u);
  // bench_ingest's 100,000-record version: the shard count or the cores
  // decide.
  EXPECT_EQ(CarveWorkers(100000, 0, 4), 4u);
  EXPECT_EQ(CarveWorkers(100000, 2, 4), 2u);
  EXPECT_EQ(CarveWorkers(100000, 8, 4), 4u);
  EXPECT_EQ(CarveWorkers(100000, 1, 4), 1u);
  // The boundaries.
  EXPECT_EQ(CarveWorkers(0, 0, 4), 1u);
  EXPECT_EQ(CarveWorkers(2 * kCarveGrainRecords - 1, 0, 4), 1u);
  EXPECT_EQ(CarveWorkers(2 * kCarveGrainRecords, 0, 4), 2u);
}

TEST(SubChunkBuilderTest, BranchedKeyHistoryStaysConnected) {
  // One key updated along two branches: sub-chunks must never group the two
  // branch tips without their common ancestor (paper Fig. 7 constraint).
  ExampleData data;
  VersionedDataset& ds = data.dataset;
  ds.graph.AddRoot();                  // V0: K@0
  (void)*ds.graph.AddVersion({0});     // V1: K -> K@1 (branch A)
  (void)*ds.graph.AddVersion({0});     // V2: K -> K@2 (branch B)
  ds.deltas.resize(3);
  ds.deltas[0].added = {{"K", 0}};
  ds.deltas[1].added = {{"K", 1}};
  ds.deltas[1].removed = {{"K", 0}};
  ds.deltas[2].added = {{"K", 2}};
  ds.deltas[2].removed = {{"K", 0}};
  ASSERT_TRUE(ds.Validate().ok());
  for (const VersionDelta& d : ds.deltas) {
    for (const CompositeKey& ck : d.added) {
      data.payloads[ck] = testing::PayloadFor(ck);
    }
  }
  SubChunkBuildResult result = Build(data, 2);
  // k=2 over a 3-node star: the pair must contain the root K@0 (a pair
  // {K@1, K@2} would be disconnected).
  for (const SubChunk& sc : result.sub_chunks) {
    if (sc.num_records() == 2) {
      EXPECT_TRUE(sc.Contains(CompositeKey("K", 0)));
    }
  }
}

}  // namespace
}  // namespace rstore

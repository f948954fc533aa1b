// Record-level delta compression for the DELTA baseline (paper Table 1's
// c*d storage factor): updated records are stored as deltas against their
// predecessors and resolved during chain replay.

#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "core/rstore.h"
#include "core_test_util.h"
#include "kvstore/memory_store.h"

namespace rstore {
namespace {

using testing::ExampleData;
using testing::MakeChain;

uint64_t StoredBytes(MemoryStore* backend, const Options& options) {
  uint64_t total = 0;
  (void)backend->Scan(options.chunk_table,
                      [&](Slice, Slice v) { total += v.size(); });
  return total;
}

ExampleData SimilarPayloadChain() {
  // Large records with tiny per-version changes: the case record-level
  // deltas exist for. The shared body is pseudo-random so plain LZ within a
  // record cannot fake the benefit.
  ExampleData data = MakeChain(40, 6, 2);
  Random rng(99);
  std::string body;
  for (int i = 0; i < 1200; ++i) {
    body.push_back(static_cast<char>('!' + rng.Uniform(90)));
  }
  for (auto& [ck, payload] : data.payloads) {
    payload = body;
    // Small version-specific edit.
    std::string marker = ck.key + "#" + std::to_string(ck.version);
    payload.replace(ck.version % 900, marker.size(), marker);
  }
  return data;
}

TEST(DeltaCompressionTest, ShrinksDeltaBaselineStorage) {
  ExampleData data = SimilarPayloadChain();
  Options options;
  options.algorithm = PartitionAlgorithm::kDeltaBaseline;
  options.chunk_capacity_bytes = 8 << 10;
  MemoryStore backend;
  auto store = RStore::Open(&backend, options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());

  // The shared body is incompressible, so records stored whole would take
  // about their payload bytes; ~79 updated 1.2KB records shrink to small
  // deltas instead.
  uint64_t payload_bytes = 0;
  for (const auto& [ck, payload] : data.payloads) {
    payload_bytes += payload.size();
  }
  const uint64_t stored = StoredBytes(&backend, options);
  EXPECT_LT(stored, payload_bytes / 2)
      << "stored=" << stored << " payload=" << payload_bytes;
}

TEST(DeltaCompressionTest, ChainReplayReconstructsExactly) {
  ExampleData data = SimilarPayloadChain();
  Options options;
  options.algorithm = PartitionAlgorithm::kDeltaBaseline;
  options.chunk_capacity_bytes = 8 << 10;
  MemoryStore backend;
  auto store = RStore::Open(&backend, options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());

  for (VersionId v : {VersionId{0}, VersionId{20}, VersionId{39}}) {
    auto got = (*store)->GetVersion(v);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    std::map<std::string, std::string> actual;
    for (const Record& r : *got) actual[r.key.key] = r.payload;
    std::map<std::string, std::string> expected;
    for (const CompositeKey& ck : data.dataset.MaterializeVersion(v)) {
      expected[ck.key] = data.payloads.at(ck);
    }
    EXPECT_EQ(actual, expected) << "V" << v;
  }
  // Evolution and point queries replay chains too.
  auto history = (*store)->GetHistory("key1002");
  ASSERT_TRUE(history.ok());
  ASSERT_GT(history->size(), 3u);
  for (const Record& r : *history) {
    EXPECT_EQ(r.payload, data.payloads.at(r.key));
  }
  auto point = (*store)->GetRecord("key1002", 30);
  ASSERT_TRUE(point.ok());
  EXPECT_EQ(point->payload, data.payloads.at(point->key));
}

TEST(DeltaCompressionTest, OnlineCommitsFallBackGracefully) {
  // Parent payloads from earlier batches are not in the write store; those
  // records are stored whole but everything must still reconstruct.
  ExampleData data = SimilarPayloadChain();
  Options options;
  options.algorithm = PartitionAlgorithm::kDeltaBaseline;
  options.chunk_capacity_bytes = 8 << 10;
  options.online_batch_size = 7;
  MemoryStore backend;
  auto store = RStore::Open(&backend, options);
  ASSERT_TRUE(store.ok());
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
    ASSERT_TRUE((*store)->Commit(parent, std::move(delta)).ok()) << v;
  }
  ASSERT_TRUE((*store)->Flush().ok());
  auto got = (*store)->GetVersion(39);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  for (const Record& r : *got) {
    EXPECT_EQ(r.payload, data.payloads.at(r.key));
  }
}

TEST(DeltaCompressionTest, SubChunkExternalParentRoundTrip) {
  std::string base(800, 'b');
  std::string target = base;
  target.replace(100, 10, "CHANGEDXYZ");
  SubChunk::Member member;
  member.key = CompositeKey("K", 5);
  member.payload = target;
  member.external_parent = CompositeKey("K", 2);
  member.external_parent_payload = base;
  auto sc = SubChunk::Build({std::move(member)}, CompressionType::kLZ);
  ASSERT_TRUE(sc.ok());
  EXPECT_TRUE(sc->HasExternalParents());
  // Small delta instead of the whole record.
  EXPECT_LT(sc->serialized_size(), 200u);

  // Extraction without a resolver fails cleanly.
  EXPECT_FALSE(sc->ExtractPayload(CompositeKey("K", 5)).ok());
  // With a resolver it reconstructs exactly, surviving encode/decode.
  std::string encoded;
  sc->EncodeTo(&encoded);
  Slice in(encoded);
  SubChunk decoded;
  ASSERT_TRUE(SubChunk::DecodeFrom(&in, &decoded).ok());
  EXPECT_TRUE(decoded.HasExternalParents());
  auto resolver = [&](const CompositeKey& ck) -> Result<std::string> {
    EXPECT_EQ(ck, CompositeKey("K", 2));
    return base;
  };
  auto payload = decoded.ExtractPayload(CompositeKey("K", 5), resolver);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  EXPECT_EQ(*payload, target);
}

}  // namespace
}  // namespace rstore

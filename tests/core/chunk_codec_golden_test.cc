// Pins the chunk and chunk-map codecs. For every partitioning algorithm,
// each chunk built the way RStore builds it and its decoded twin agree on
// every observable and re-encode to the same bytes, and the encodings and
// the cache charges equal constants recorded when they were last meant to
// change. Stored bytes, the Fig. 10 compression ratios and the cache
// ablation's hit rates (which depend on each entry's charge) therefore
// cannot drift with the in-memory layout. A second case pins the online
// write path the same way: every byte a commit-by-commit ingest leaves in
// the backend, and the number of writes it took.

#include <gtest/gtest.h>

#include <cctype>
#include <unordered_set>

#include "common/hash.h"
#include "core/chunk.h"
#include "core/partitioner.h"
#include "core/rstore.h"
#include "core/sub_chunk_builder.h"
#include "kvstore/memory_store.h"
#include "workload/dataset_generator.h"

namespace rstore {
namespace {

constexpr PartitionAlgorithm kAllAlgorithms[] = {
    PartitionAlgorithm::kBottomUp,        PartitionAlgorithm::kShingle,
    PartitionAlgorithm::kDepthFirst,      PartitionAlgorithm::kBreadthFirst,
    PartitionAlgorithm::kDeltaBaseline,   PartitionAlgorithm::kSubChunkBaseline,
    PartitionAlgorithm::kSingleAddressSpace,
};

struct Golden {
  PartitionAlgorithm algorithm;
  size_t chunks;
  uint64_t encoding_hash;  // over every body and map encoding, in id order
  uint64_t charge_bytes;   // Σ ApproximateMemoryBytes() of decoded chunks
};

// A change to these constants changes stored bytes or cache charges, so it
// must be deliberate and come with refreshed bench baselines.
constexpr Golden kGolden[] = {
    {PartitionAlgorithm::kBottomUp, 13, 11368349762569480375ull, 75106},
    {PartitionAlgorithm::kShingle, 12, 2225245188908802572ull, 74962},
    {PartitionAlgorithm::kDepthFirst, 12, 15149092814126728489ull, 74962},
    {PartitionAlgorithm::kBreadthFirst, 12, 11971891521223176018ull, 74962},
    {PartitionAlgorithm::kDeltaBaseline, 30, 11321329202171067566ull, 92545},
    {PartitionAlgorithm::kSubChunkBaseline, 80, 11439254864560897943ull,
     84754},
    {PartitionAlgorithm::kSingleAddressSpace, 115, 3856817594635881433ull,
     89794},
};

workload::GeneratedDataset SmallDataset() {
  workload::DatasetConfig config;
  config.num_versions = 24;
  config.records_per_version = 80;
  config.update_fraction = 0.1;
  config.branch_probability = 0.3;
  config.record_size_bytes = 160;
  config.pd = 0.05;
  config.seed = 11;
  return workload::GenerateDataset(config);
}

Options GoldenOptions(PartitionAlgorithm algorithm) {
  Options options;
  options.algorithm = algorithm;
  options.chunk_capacity_bytes = 2048;
  options.max_sub_chunk_records = 3;
  options.compression = CompressionType::kLZ;
  return options;
}

/// A chunk and its map.
struct BuiltChunk {
  Chunk chunk;
  ChunkMap map;
};

/// Chunks with their maps, assembled as RStore's offline load assembles
/// them: sub-chunks carved, partitioned, appended in partition order, and
/// each map built from the record -> versions index.
std::vector<BuiltChunk> BuildChunks(const workload::GeneratedDataset& gen,
                                    const Options& options) {
  std::vector<BuiltChunk> chunks;
  RecordVersionMap versions = gen.dataset.BuildRecordVersionMap();
  auto built = BuildSubChunks(gen.dataset, gen.payloads, versions, options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  if (!built.ok()) return chunks;
  PartitionInput input;
  input.dataset = &gen.dataset;
  input.items = &built->items;
  input.options = &options;
  auto partitioned = CreatePartitioner(options.algorithm)->Partition(input);
  EXPECT_TRUE(partitioned.ok()) << partitioned.status().ToString();
  if (!partitioned.ok()) return chunks;
  ChunkId next_id = 1;
  for (const std::vector<uint32_t>& items : partitioned->chunks) {
    Chunk chunk(next_id++);
    for (uint32_t item : items) {
      chunk.AddSubChunk(std::move(built->sub_chunks[item]));
    }
    ChunkMap map(chunk.record_count());
    for (uint32_t i = 0; i < chunk.record_count(); ++i) {
      auto it = versions.find(chunk.records()[i]);
      if (it == versions.end()) continue;
      for (VersionId v : it->second) map.Add(v, i);
    }
    chunks.push_back(BuiltChunk{std::move(chunk), std::move(map)});
  }
  return chunks;
}

class ChunkCodecGoldenTest
    : public ::testing::TestWithParam<PartitionAlgorithm> {};

TEST_P(ChunkCodecGoldenTest, DecodedChunksMatchBuiltAndPinnedBytes) {
  const workload::GeneratedDataset gen = SmallDataset();
  const std::vector<BuiltChunk> chunks =
      BuildChunks(gen, GoldenOptions(GetParam()));
  ASSERT_FALSE(chunks.empty());
  // DELTA records delta against a base stored in another chunk.
  SubChunk::PayloadResolver resolver =
      [&gen](const CompositeKey& ck) -> Result<std::string> {
    auto it = gen.payloads.find(ck);
    if (it == gen.payloads.end()) return Status::NotFound(ck.ToString());
    return it->second;
  };

  uint64_t hash = 0;
  uint64_t charge = 0;
  for (const auto& [built, built_map] : chunks) {
    SCOPED_TRACE("chunk " + std::to_string(built.id()));
    std::string body;
    std::string map_bytes;
    built.EncodeTo(&body);
    built_map.EncodeTo(&map_bytes);
    hash = Mix64(hash ^ Fnv1a64(Slice(body)));
    hash = Mix64(hash ^ Fnv1a64(Slice(map_bytes)));

    Chunk decoded_chunk;
    ASSERT_TRUE(Chunk::DecodeFrom(body, &decoded_chunk).ok());
    const Chunk& decoded = decoded_chunk;
    EXPECT_TRUE(decoded.Validate().ok());
    Slice map_input(map_bytes);
    ChunkMap map;
    ASSERT_TRUE(ChunkMap::DecodeFrom(&map_input, &map).ok());
    EXPECT_TRUE(map_input.empty());
    EXPECT_EQ(map.record_count(), decoded.record_count());

    std::string body_again;
    std::string map_again;
    decoded.EncodeTo(&body_again);
    map.EncodeTo(&map_again);
    EXPECT_EQ(body_again, body);
    EXPECT_EQ(map_again, map_bytes);

    EXPECT_EQ(decoded.id(), built.id());
    EXPECT_EQ(decoded.payload_bytes(), built.payload_bytes());
    EXPECT_EQ(decoded.uncompressed_bytes(), built.uncompressed_bytes());
    EXPECT_EQ(decoded.ApproximateMemoryBytes(),
              built.ApproximateMemoryBytes());
    EXPECT_EQ(decoded.records(), built.records());
    EXPECT_EQ(map, built_map);

    std::vector<uint32_t> all(built.record_count());
    for (uint32_t i = 0; i < all.size(); ++i) all[i] = i;
    auto from_built = built.ExtractRecords(all, resolver);
    auto from_decoded = decoded.ExtractRecords(all, resolver);
    ASSERT_TRUE(from_built.ok()) << from_built.status().ToString();
    ASSERT_TRUE(from_decoded.ok()) << from_decoded.status().ToString();
    ASSERT_EQ(from_decoded->size(), built.record_count());
    for (size_t i = 0; i < from_decoded->size(); ++i) {
      const auto& [ck, payload] = (*from_decoded)[i];
      EXPECT_EQ(ck, (*from_built)[i].first);
      EXPECT_EQ(payload, (*from_built)[i].second);
      EXPECT_EQ(payload, gen.payloads.at(ck)) << ck.ToString();
      auto single = decoded.ExtractPayload(ck, resolver);
      ASSERT_TRUE(single.ok()) << single.status().ToString();
      EXPECT_EQ(*single, payload);
    }
    charge += decoded.ApproximateMemoryBytes();
  }

  const Golden* golden = nullptr;
  for (const Golden& g : kGolden) {
    if (g.algorithm == GetParam()) golden = &g;
  }
  ASSERT_NE(golden, nullptr);
  EXPECT_EQ(chunks.size(), golden->chunks);
  EXPECT_EQ(hash, golden->encoding_hash);
  EXPECT_EQ(charge, golden->charge_bytes);
}

std::string AlgorithmTestName(
    const ::testing::TestParamInfo<PartitionAlgorithm>& info) {
  std::string name = PartitionAlgorithmName(info.param);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Algorithms, ChunkCodecGoldenTest,
                         ::testing::ValuesIn(kAllAlgorithms),
                         AlgorithmTestName);

struct OnlineGolden {
  PartitionAlgorithm algorithm;
  uint64_t puts;
  uint64_t store_hash;  // over every (table, key, value), in key order
};

// Recorded like kGolden: a change here changes what online ingest stores.
constexpr OnlineGolden kOnlineGolden[] = {
    {PartitionAlgorithm::kBottomUp, 99, 16920213482785204936ull},
    {PartitionAlgorithm::kShingle, 87, 1966874143667304968ull},
    {PartitionAlgorithm::kDepthFirst, 86, 5571245948157778383ull},
    {PartitionAlgorithm::kBreadthFirst, 87, 13746106971442846290ull},
    {PartitionAlgorithm::kDeltaBaseline, 132, 17410260754128984786ull},
    {PartitionAlgorithm::kSubChunkBaseline, 825, 12113805788411598756ull},
    {PartitionAlgorithm::kSingleAddressSpace, 848, 7485472966011022087ull},
};

class OnlineWritePathGoldenTest
    : public ::testing::TestWithParam<PartitionAlgorithm> {};

TEST_P(OnlineWritePathGoldenTest, CommitsDrainsAndFlushStorePinnedBytes) {
  const workload::GeneratedDataset gen = SmallDataset();
  const VersionedDataset& dataset = gen.dataset;
  Options options = GoldenOptions(GetParam());
  options.online_batch_size = 5;
  MemoryStore backend;
  auto store = RStore::Open(&backend, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  for (VersionId v = 0; v < dataset.graph.size(); ++v) {
    CommitDelta delta;
    std::unordered_set<std::string> upserted;
    for (const CompositeKey& ck : dataset.deltas[v].added) {
      upserted.insert(ck.key);
      delta.upserts.push_back(Record{ck, gen.payloads.at(ck)});
    }
    for (const CompositeKey& ck : dataset.deltas[v].removed) {
      if (!upserted.count(ck.key)) delta.deletes.push_back(ck.key);
    }
    const VersionId parent =
        v == 0 ? kInvalidVersion : dataset.graph.PrimaryParent(v);
    auto committed = (*store)->Commit(parent, std::move(delta));
    ASSERT_TRUE(committed.ok()) << committed.status().ToString();
    ASSERT_EQ(*committed, v);
  }
  ASSERT_TRUE((*store)->Flush().ok());

  const uint64_t puts = backend.stats().puts;
  uint64_t hash = 0;
  for (const std::string& table : {options.chunk_table, options.index_table}) {
    hash = Mix64(hash ^ Fnv1a64(Slice(table)));
    ASSERT_TRUE(backend
                    .Scan(table,
                          [&hash](Slice key, Slice value) {
                            hash = Mix64(hash ^ Fnv1a64(key));
                            hash = Mix64(hash ^ Fnv1a64(value));
                          })
                    .ok());
  }
  EXPECT_TRUE((*store)->VerifyIntegrity().ok());

  const OnlineGolden* golden = nullptr;
  for (const OnlineGolden& g : kOnlineGolden) {
    if (g.algorithm == GetParam()) golden = &g;
  }
  ASSERT_NE(golden, nullptr);
  EXPECT_EQ(puts, golden->puts);
  EXPECT_EQ(hash, golden->store_hash);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, OnlineWritePathGoldenTest,
                         ::testing::ValuesIn(kAllAlgorithms),
                         AlgorithmTestName);

}  // namespace
}  // namespace rstore

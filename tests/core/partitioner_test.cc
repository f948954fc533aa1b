#include "core/partitioner.h"

#include <gtest/gtest.h>

#include <set>

#include "core/sub_chunk_builder.h"
#include "core_test_util.h"

namespace rstore {
namespace {

using testing::ExampleData;
using testing::MakeChain;
using testing::MakeExample2;

struct PreparedInput {
  ExampleData data;
  RecordVersionMap record_versions;
  SubChunkBuildResult built;
  Options options;
};

PreparedInput Prepare(ExampleData data, Options options) {
  PreparedInput out;
  out.data = std::move(data);
  out.options = options;
  out.record_versions = out.data.dataset.BuildRecordVersionMap();
  auto built = BuildSubChunks(out.data.dataset, out.data.payloads,
                              out.record_versions, options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  out.built = *std::move(built);
  return out;
}

Partitioning RunAlgorithm(PreparedInput& prepared, PartitionAlgorithm algorithm) {
  auto partitioner = CreatePartitioner(algorithm);
  EXPECT_NE(partitioner, nullptr);
  PartitionInput input;
  input.dataset = &prepared.data.dataset;
  input.items = &prepared.built.items;
  Options options = prepared.options;
  options.algorithm = algorithm;
  input.options = &options;
  auto result = partitioner->Partition(input);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return *std::move(result);
}

Options SmallChunks() {
  Options options;
  options.chunk_capacity_bytes = 400;  // a few records per chunk
  options.compression = CompressionType::kLZ;
  return options;
}

constexpr PartitionAlgorithm kAllAlgorithms[] = {
    PartitionAlgorithm::kBottomUp,        PartitionAlgorithm::kShingle,
    PartitionAlgorithm::kDepthFirst,      PartitionAlgorithm::kBreadthFirst,
    PartitionAlgorithm::kDeltaBaseline,   PartitionAlgorithm::kSubChunkBaseline,
    PartitionAlgorithm::kSingleAddressSpace,
};

class AllAlgorithmsTest
    : public ::testing::TestWithParam<PartitionAlgorithm> {};

TEST_P(AllAlgorithmsTest, EveryItemPlacedExactlyOnce) {
  PreparedInput prepared = Prepare(MakeExample2(), SmallChunks());
  Partitioning p = RunAlgorithm(prepared, GetParam());
  std::set<uint32_t> seen;
  for (const auto& chunk : p.chunks) {
    for (uint32_t item : chunk) {
      EXPECT_TRUE(seen.insert(item).second)
          << "item " << item << " placed twice";
    }
  }
  EXPECT_EQ(seen.size(), prepared.built.items.size());
}

TEST_P(AllAlgorithmsTest, EveryItemPlacedOnChainDataset) {
  PreparedInput prepared = Prepare(MakeChain(40, 25, 5), SmallChunks());
  Partitioning p = RunAlgorithm(prepared, GetParam());
  EXPECT_EQ(p.num_items(), prepared.built.items.size());
}

TEST_P(AllAlgorithmsTest, Deterministic) {
  PreparedInput prepared = Prepare(MakeChain(20, 10, 3), SmallChunks());
  Partitioning p1 = RunAlgorithm(prepared, GetParam());
  Partitioning p2 = RunAlgorithm(prepared, GetParam());
  EXPECT_EQ(p1.chunks, p2.chunks);
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, AllAlgorithmsTest, ::testing::ValuesIn(kAllAlgorithms),
    [](const ::testing::TestParamInfo<PartitionAlgorithm>& info) {
      std::string name = PartitionAlgorithmName(info.param);
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(PartitionerTest, CapacityRespectedByPackingAlgorithms) {
  PreparedInput prepared = Prepare(MakeChain(40, 25, 5), SmallChunks());
  for (PartitionAlgorithm algorithm :
       {PartitionAlgorithm::kBottomUp, PartitionAlgorithm::kShingle,
        PartitionAlgorithm::kDepthFirst, PartitionAlgorithm::kBreadthFirst,
        PartitionAlgorithm::kDeltaBaseline}) {
    Partitioning p = RunAlgorithm(prepared, algorithm);
    uint64_t hard_limit = static_cast<uint64_t>(
        SmallChunks().chunk_capacity_bytes * 1.25);
    for (const auto& chunk : p.chunks) {
      uint64_t bytes = 0;
      for (uint32_t item : chunk) bytes += prepared.built.items[item].bytes;
      // Single oversized items are exempt.
      if (chunk.size() > 1) {
        EXPECT_LE(bytes, hard_limit) << PartitionAlgorithmName(algorithm);
      }
    }
  }
}

TEST(PartitionerTest, SingleAddressIsOneItemPerChunk) {
  PreparedInput prepared = Prepare(MakeExample2(), SmallChunks());
  Partitioning p = RunAlgorithm(prepared, PartitionAlgorithm::kSingleAddressSpace);
  EXPECT_EQ(p.chunks.size(), prepared.built.items.size());
  for (const auto& chunk : p.chunks) EXPECT_EQ(chunk.size(), 1u);
}

TEST(PartitionerTest, SubChunkBaselineGroupsByKey) {
  PreparedInput prepared = Prepare(MakeExample2(), SmallChunks());
  Partitioning p = RunAlgorithm(prepared, PartitionAlgorithm::kSubChunkBaseline);
  // Example 2 has keys K0..K5 -> 6 chunks.
  EXPECT_EQ(p.chunks.size(), 6u);
  EXPECT_EQ(p.layout, LayoutKind::kSubChunkPerKey);
  for (const auto& chunk : p.chunks) {
    std::set<std::string> keys;
    for (uint32_t item : chunk) {
      keys.insert(prepared.built.items[item].id.key);
    }
    EXPECT_EQ(keys.size(), 1u);
  }
}

TEST(PartitionerTest, DeltaBaselineKeepsVersionsSeparate) {
  PreparedInput prepared = Prepare(MakeExample2(), SmallChunks());
  Partitioning p = RunAlgorithm(prepared, PartitionAlgorithm::kDeltaBaseline);
  EXPECT_EQ(p.layout, LayoutKind::kDeltaChain);
  for (const auto& chunk : p.chunks) {
    std::set<VersionId> origins;
    for (uint32_t item : chunk) {
      origins.insert(prepared.built.items[item].origin_version);
    }
    EXPECT_EQ(origins.size(), 1u) << "delta chunk mixes versions";
  }
}

TEST(PartitionerTest, DfsEqualsBfsOnLinearChain) {
  // "except for linear chains when they reduce to the same technique".
  PreparedInput prepared = Prepare(MakeChain(30, 20, 4), SmallChunks());
  Partitioning dfs = RunAlgorithm(prepared, PartitionAlgorithm::kDepthFirst);
  Partitioning bfs = RunAlgorithm(prepared, PartitionAlgorithm::kBreadthFirst);
  EXPECT_EQ(dfs.chunks, bfs.chunks);
}

TEST(PartitionerTest, SmartAlgorithmsBeatDeltaOnChainSpan) {
  // Fig. 8's headline: BOTTOM-UP / SHINGLE / DFS outperform DELTA on total
  // version span.
  PreparedInput prepared = Prepare(MakeChain(60, 40, 6), SmallChunks());
  const VersionGraph& graph = prepared.data.dataset.graph;
  Partitioning delta = RunAlgorithm(prepared, PartitionAlgorithm::kDeltaBaseline);
  uint64_t delta_span =
      TotalVersionSpan(delta, prepared.built.items, graph);
  for (PartitionAlgorithm algorithm :
       {PartitionAlgorithm::kBottomUp, PartitionAlgorithm::kDepthFirst,
        PartitionAlgorithm::kShingle}) {
    Partitioning p = RunAlgorithm(prepared, algorithm);
    uint64_t span = TotalVersionSpan(p, prepared.built.items, graph);
    EXPECT_LT(span, delta_span) << PartitionAlgorithmName(algorithm);
  }
}

TEST(PartitionerTest, BottomUpCompetitiveWithDfsOnBranchedTree) {
  // A branched dataset: BOTTOM-UP should be at least as good as
  // BREADTHFIRST and close to / better than DFS (paper: "none of these
  // techniques perform uniformly well across all datasets" except
  // BOTTOM-UP).
  ExampleData data;
  VersionedDataset& ds = data.dataset;
  ds.graph.AddRoot();
  ds.deltas.resize(1);
  for (int k = 0; k < 30; ++k) {
    ds.deltas[0].added.emplace_back("key" + std::to_string(100 + k), 0);
  }
  // Two branches from root, each a chain of 15 with churn.
  VersionId left = 0, right = 0;
  auto materialize_key = [&](VersionId v, int k) {
    return CompositeKey("key" + std::to_string(100 + k), v);
  };
  (void)materialize_key;
  std::vector<CompositeKey> left_cur(ds.deltas[0].added),
      right_cur(ds.deltas[0].added);
  for (int step = 0; step < 15; ++step) {
    VersionId v = *ds.graph.AddVersion({left});
    VersionDelta delta;
    for (int u = 0; u < 3; ++u) {
      int k = (step * 3 + u) % 30;
      delta.removed.push_back(left_cur[k]);
      left_cur[k] = CompositeKey(left_cur[k].key, v);
      delta.added.push_back(left_cur[k]);
    }
    ds.deltas.push_back(delta);
    left = v;
    v = *ds.graph.AddVersion({right});
    VersionDelta rdelta;
    for (int u = 0; u < 3; ++u) {
      int k = (step * 3 + u + 15) % 30;
      rdelta.removed.push_back(right_cur[k]);
      right_cur[k] = CompositeKey(right_cur[k].key, v);
      rdelta.added.push_back(right_cur[k]);
    }
    ds.deltas.push_back(rdelta);
    right = v;
  }
  ASSERT_TRUE(ds.Validate().ok()) << ds.Validate().ToString();
  for (const VersionDelta& delta : ds.deltas) {
    for (const CompositeKey& ck : delta.added) {
      data.payloads[ck] = testing::PayloadFor(ck);
    }
  }
  PreparedInput prepared = Prepare(std::move(data), SmallChunks());
  const VersionGraph& graph = prepared.data.dataset.graph;
  uint64_t bottom_up = TotalVersionSpan(
      RunAlgorithm(prepared, PartitionAlgorithm::kBottomUp), prepared.built.items,
      graph);
  uint64_t bfs = TotalVersionSpan(
      RunAlgorithm(prepared, PartitionAlgorithm::kBreadthFirst), prepared.built.items,
      graph);
  uint64_t delta_span = TotalVersionSpan(
      RunAlgorithm(prepared, PartitionAlgorithm::kDeltaBaseline),
      prepared.built.items, graph);
  EXPECT_LE(bottom_up, bfs);
  EXPECT_LT(bottom_up, delta_span);
}

TEST(PartitionerTest, BottomUpSubtreeLimitDegradesGracefully) {
  // Fig. 9: shrinking beta increases (or keeps) total version span.
  PreparedInput prepared = Prepare(MakeChain(60, 40, 6), SmallChunks());
  const VersionGraph& graph = prepared.data.dataset.graph;
  uint64_t unlimited;
  {
    Partitioning p = RunAlgorithm(prepared, PartitionAlgorithm::kBottomUp);
    unlimited = TotalVersionSpan(p, prepared.built.items, graph);
  }
  prepared.options.subtree_limit = 2;
  Partitioning limited = RunAlgorithm(prepared, PartitionAlgorithm::kBottomUp);
  uint64_t limited_span =
      TotalVersionSpan(limited, prepared.built.items, graph);
  EXPECT_GE(limited_span, unlimited);
  // Items all still placed.
  EXPECT_EQ(limited.num_items(), prepared.built.items.size());
}

TEST(PartitionerTest, TreeInputRequiredByTreeAlgorithms) {
  ExampleData data = MakeExample2();
  // Add a merge to break tree-ness.
  (void)*data.dataset.graph.AddVersion({3, 4});
  data.dataset.deltas.emplace_back();
  PreparedInput prepared;
  prepared.data = std::move(data);
  prepared.options = SmallChunks();
  prepared.record_versions = prepared.data.dataset.BuildRecordVersionMap();
  auto built = BuildSubChunks(prepared.data.dataset, prepared.data.payloads,
                              prepared.record_versions, prepared.options);
  // Sub-chunk builder itself requires a tree.
  EXPECT_TRUE(built.status().IsInvalidArgument());
}

}  // namespace
}  // namespace rstore

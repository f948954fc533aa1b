#include "core/report.h"

#include <gtest/gtest.h>

#include "core_test_util.h"
#include "kvstore/memory_store.h"
#include "workload/dataset_generator.h"

namespace rstore {
namespace {

using testing::ExampleData;
using testing::MakeChain;

TEST(StoreReportTest, ReflectsLoadedStore) {
  ExampleData data = MakeChain(20, 10, 3);
  MemoryStore backend;
  Options options;
  options.chunk_capacity_bytes = 600;
  auto store = RStore::Open(&backend, options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());

  auto report = BuildStoreReport(**store, &backend);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->num_versions, 20u);
  EXPECT_EQ(report->num_chunks, (*store)->NumChunks());
  EXPECT_GT(report->chunk_bytes, 0u);
  EXPECT_GT(report->index_table_bytes, 0u);
  EXPECT_EQ(report->total_span, (*store)->TotalVersionSpan());
  EXPECT_GE(report->max_span, 1u);
  EXPECT_GT(report->avg_span, 0.0);
  // Histogram covers every version exactly once.
  uint64_t histogram_total = 0;
  for (uint64_t bucket : report->span_histogram) histogram_total += bucket;
  EXPECT_EQ(histogram_total, 20u);
  // Fixed-chunk-size assumption health (paper §2.5): no chunk beyond the
  // overflow band.
  EXPECT_EQ(report->overfull_chunks, 0u);
  EXPECT_GT(report->avg_chunk_fill, 0.1);
}

// The report's spans follow the layout's retrieval rule, as
// TotalVersionSpan does: the DELTA chain and SUBCHUNK's every-chunk rule
// included, which the catalog's version->chunk projection does not give.
TEST(StoreReportTest, SpansFollowTheLayoutForEveryAlgorithm) {
  workload::DatasetConfig config;
  config.num_versions = 30;
  config.records_per_version = 200;
  config.update_fraction = 0.2;
  config.insert_fraction = 0.02;
  config.delete_fraction = 0.02;
  config.branch_probability = 0.2;
  config.seed = 3;
  const workload::GeneratedDataset data = workload::GenerateDataset(config);
  for (PartitionAlgorithm algorithm :
       {PartitionAlgorithm::kBottomUp, PartitionAlgorithm::kShingle,
        PartitionAlgorithm::kDepthFirst, PartitionAlgorithm::kBreadthFirst,
        PartitionAlgorithm::kDeltaBaseline,
        PartitionAlgorithm::kSubChunkBaseline,
        PartitionAlgorithm::kSingleAddressSpace}) {
    SCOPED_TRACE(PartitionAlgorithmName(algorithm));
    MemoryStore backend;
    Options options;
    options.algorithm = algorithm;
    options.chunk_capacity_bytes = 4096;
    auto store = RStore::Open(&backend, options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());
    auto report = BuildStoreReport(**store, &backend);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->total_span, (*store)->TotalVersionSpan());
  }
}

TEST(StoreReportTest, EmptyStore) {
  MemoryStore backend;
  auto store = RStore::Open(&backend, Options());
  ASSERT_TRUE(store.ok());
  auto report = BuildStoreReport(**store, &backend);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->num_versions, 0u);
  EXPECT_EQ(report->num_chunks, 0u);
  EXPECT_EQ(report->total_span, 0u);
}

TEST(StoreReportTest, ToStringIsRenderable) {
  ExampleData data = MakeChain(10, 5, 2);
  MemoryStore backend;
  Options options;
  options.chunk_capacity_bytes = 600;
  auto store = RStore::Open(&backend, options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());
  auto report = BuildStoreReport(**store, &backend);
  ASSERT_TRUE(report.ok());
  std::string text = report->ToString();
  EXPECT_NE(text.find("versions:"), std::string::npos);
  EXPECT_NE(text.find("span histogram:"), std::string::npos);
}

// Golden rendering for the generic per-layer counter blocks: fixed-width
// layer label, space-separated name=value pairs, one line per layer.
TEST(StoreReportTest, LayerCountersGoldenRendering) {
  StoreReport report;
  report.layers.push_back(StoreReport::LayerCounters{
      "metrics/kvs",
      {{"requests_total", 42}, {"bytes_read_total", 1024}}});
  report.layers.push_back(StoreReport::LayerCounters{
      "chunk-cache", {{"hits", 7}}});
  std::string text = report.ToString();
  EXPECT_NE(
      text.find(
          "metrics/kvs:       requests_total=42 bytes_read_total=1024\n"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("chunk-cache:       hits=7\n"), std::string::npos)
      << text;
  // Layers render in insertion order.
  EXPECT_LT(text.find("metrics/kvs:"), text.find("chunk-cache:"));
}

}  // namespace
}  // namespace rstore

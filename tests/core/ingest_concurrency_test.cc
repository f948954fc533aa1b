// TSan-targeted stress over sharded ingest: a BulkLoad of more than two
// carve grains of records, whose sub-chunk carving and compression run on
// worker threads, repeated at several thread counts, must leave the backend
// byte-identical to serial ingest even while the sanitizer perturbs
// scheduling. CI's TSan job matches this binary by the Concurrency
// suite-name filter.

#include <gtest/gtest.h>

#include <string>

#include "core/rstore.h"
#include "core/sub_chunk_builder.h"
#include "core_test_util.h"
#include "kvstore/memory_store.h"

namespace rstore {
namespace {

using testing::ExampleData;
using testing::MakeChain;

TEST(IngestConcurrencyTest, ShardedStoreIngestMatchesSerialUnderStress) {
  // 8,400 records, 21 per key: the carve cuts each key history on workers.
  const ExampleData data = MakeChain(21, 400, 400);
  ASSERT_GT(data.payloads.size(), 2 * kCarveGrainRecords);
  auto run = [&data](uint32_t shards) {
    Options options;
    options.chunk_capacity_bytes = 700;
    options.max_sub_chunk_records = 4;
    options.ingest_shards = shards;
    MemoryStore backend;
    auto store = RStore::Open(&backend, options);
    EXPECT_TRUE(store.ok());
    EXPECT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());
    std::string dump;
    for (const std::string& table :
         {options.chunk_table, options.index_table}) {
      EXPECT_TRUE(backend
                      .Scan(table,
                            [&dump](Slice key, Slice value) {
                              dump += key.ToString();
                              dump += '\x1f';
                              dump += value.ToString();
                              dump += '\x1e';
                            })
                      .ok());
    }
    return dump;
  };
  const std::string serial = run(1);
  ASSERT_FALSE(serial.empty());
  for (int iteration = 0; iteration < 6; ++iteration) {
    EXPECT_EQ(run(2 + iteration % 7), serial) << "iteration " << iteration;
  }
}

}  // namespace
}  // namespace rstore

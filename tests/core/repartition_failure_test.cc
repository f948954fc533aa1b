// Repartition and drains under write failures. A store wrapper fails one
// chosen write of one operation, and each sweep fails every write in turn.
// Whichever write of a Repartition fails, the live store must keep every
// answer it gave before, VerifyIntegrity must pass, and a retried
// Repartition must succeed with the same answers. Whichever write of a
// drain fails, the catalog must stay at its pre-drain state, and the retry
// that the next query runs must leave the store answering like one whose
// drain never failed. Both write their chunks before they publish the
// catalog change, which is what makes this hold.
//
// The dataset seed comes from RSTORE_CHAOS_SEED (default 1), so the chaos
// job's `RSTORE_CHAOS_SEED=<n> ctest -L Chaos` sweep covers it per seed.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/rstore.h"
#include "core_test_util.h"
#include "kvstore/memory_store.h"
#include "workload/dataset_generator.h"

namespace rstore {
namespace {

using testing::CommitVersions;
using testing::SerializeRecords;

/// A MemoryStore whose writes can be made to fail: each Put, each WriteBatch
/// entry and each Delete is one write, and the write chosen by FailWrite
/// returns IOError without being applied (a batch keeps the entries before
/// it). Reads pass straight through.
class FailAtWriteStore : public KVStore {
 public:
  /// Fails the write `n` writes from now (0: the next one), once.
  void FailWrite(uint64_t n) {
    fail_at_ = writes_ + n;
    armed_ = true;
  }
  uint64_t writes() const { return writes_; }

  Status CreateTable(const std::string& table) override {
    return base_.CreateTable(table);
  }
  Status Put(const std::string& table, Slice key, Slice value) override {
    RSTORE_RETURN_IF_ERROR(CountWrite());
    return base_.Put(table, key, value);
  }
  Status WriteBatch(const std::string& table,
                    const std::vector<std::pair<std::string, std::string>>&
                        entries) override {
    for (const auto& [key, value] : entries) {
      RSTORE_RETURN_IF_ERROR(CountWrite());
      RSTORE_RETURN_IF_ERROR(base_.Put(table, key, value));
    }
    return Status::OK();
  }
  Status Delete(const std::string& table, Slice key) override {
    RSTORE_RETURN_IF_ERROR(CountWrite());
    return base_.Delete(table, key);
  }
  Result<std::string> Get(const std::string& table, Slice key) override {
    return base_.Get(table, key);
  }
  using KVStore::MultiGet;
  Status MultiGet(const std::string& table,
                  const std::vector<std::string>& keys,
                  std::map<std::string, std::string>* out,
                  TraceContext* trace) override {
    return base_.MultiGet(table, keys, out, trace);
  }
  Status Scan(const std::string& table,
              const std::function<void(Slice key, Slice value)>& fn) override {
    return base_.Scan(table, fn);
  }
  Result<uint64_t> TableSize(const std::string& table) override {
    return base_.TableSize(table);
  }
  KVStats stats() const override { return base_.stats(); }
  void ResetStats() override { base_.ResetStats(); }

 private:
  Status CountWrite() {
    if (armed_ && writes_ == fail_at_) {
      armed_ = false;
      ++writes_;
      return Status::IOError("injected write failure");
    }
    ++writes_;
    return Status::OK();
  }

  MemoryStore base_;
  uint64_t writes_ = 0;
  uint64_t fail_at_ = 0;
  bool armed_ = false;
};

/// RSTORE_CHAOS_SEED picks the dataset (the CI sweep); default 1.
uint64_t DatasetSeed() {
  const char* env = std::getenv("RSTORE_CHAOS_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1;
}

workload::GeneratedDataset SweepDataset() {
  workload::DatasetConfig config;
  config.num_versions = 10;
  config.records_per_version = 24;
  config.update_fraction = 0.2;
  config.branch_probability = 0.3;
  config.record_size_bytes = 80;
  config.seed = DatasetSeed();
  return workload::GenerateDataset(config);
}

/// Commits the whole dataset into a store over `backend` in online batches
/// and flushes, so a Repartition that follows starts with no drain.
std::unique_ptr<RStore> LoadStore(FailAtWriteStore* backend,
                                  const workload::GeneratedDataset& gen,
                                  PartitionAlgorithm algorithm) {
  Options options;
  options.algorithm = algorithm;
  options.chunk_capacity_bytes = 1024;
  options.max_sub_chunk_records = 3;
  options.online_batch_size = 4;
  auto opened = RStore::Open(backend, options);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  if (!opened.ok()) return nullptr;
  std::unique_ptr<RStore> store = std::move(opened).value();
  CommitVersions(store.get(), gen.dataset, gen.payloads, 0,
                 gen.dataset.graph.size());
  EXPECT_TRUE(store->Flush().ok());
  return store;
}

std::vector<std::string> Answers(RStore* store) {
  std::vector<std::string> answers;
  for (VersionId v = 0; v < store->num_versions(); ++v) {
    auto records = store->GetVersion(v);
    answers.push_back(records.ok() ? SerializeRecords(*records)
                                   : records.status().ToString());
  }
  return answers;
}

constexpr PartitionAlgorithm kAllAlgorithms[] = {
    PartitionAlgorithm::kBottomUp,        PartitionAlgorithm::kShingle,
    PartitionAlgorithm::kDepthFirst,      PartitionAlgorithm::kBreadthFirst,
    PartitionAlgorithm::kDeltaBaseline,   PartitionAlgorithm::kSubChunkBaseline,
    PartitionAlgorithm::kSingleAddressSpace,
};

std::string AlgorithmTestName(
    const ::testing::TestParamInfo<PartitionAlgorithm>& info) {
  std::string name = PartitionAlgorithmName(info.param);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

class RepartitionFailureTest
    : public ::testing::TestWithParam<PartitionAlgorithm> {};

TEST_P(RepartitionFailureTest, EveryFailedWriteLeavesTheLiveStoreServing) {
  SCOPED_TRACE("dataset seed " + std::to_string(DatasetSeed()));
  const workload::GeneratedDataset gen = SweepDataset();

  // A clean run: the answers every failure must keep, the layout a retry
  // must reach, and the number of writes to sweep.
  FailAtWriteStore clean_backend;
  std::unique_ptr<RStore> clean = LoadStore(&clean_backend, gen, GetParam());
  ASSERT_NE(clean, nullptr);
  const std::vector<std::string> answers = Answers(clean.get());
  const uint64_t first_write = clean_backend.writes();
  ASSERT_TRUE(clean->Repartition().ok());
  const uint64_t writes = clean_backend.writes() - first_write;
  ASSERT_GT(writes, 0u);
  ASSERT_EQ(Answers(clean.get()), answers);

  for (uint64_t n = 0; n < writes; ++n) {
    SCOPED_TRACE("write " + std::to_string(n) + " of " +
                 std::to_string(writes));
    FailAtWriteStore backend;
    std::unique_ptr<RStore> store = LoadStore(&backend, gen, GetParam());
    ASSERT_NE(store, nullptr);
    backend.FailWrite(n);
    EXPECT_FALSE(store->Repartition().ok());
    ASSERT_EQ(Answers(store.get()), answers);
    Status integrity = store->VerifyIntegrity();
    ASSERT_TRUE(integrity.ok()) << integrity.ToString();

    Status retried = store->Repartition();
    ASSERT_TRUE(retried.ok()) << retried.ToString();
    ASSERT_EQ(Answers(store.get()), answers);
    integrity = store->VerifyIntegrity();
    ASSERT_TRUE(integrity.ok()) << integrity.ToString();
    EXPECT_EQ(store->NumChunks(), clean->NumChunks());
    EXPECT_EQ(store->TotalVersionSpan(), clean->TotalVersionSpan());
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, RepartitionFailureTest,
                         ::testing::ValuesIn(kAllAlgorithms),
                         AlgorithmTestName);

/// Commits and flushes versions [0, 6), then stages versions [6, 10): the
/// batch holds up to 5 versions, so the next Flush runs one drain of 4.
std::unique_ptr<RStore> StageStore(FailAtWriteStore* backend,
                                   const workload::GeneratedDataset& gen,
                                   PartitionAlgorithm algorithm) {
  Options options;
  options.algorithm = algorithm;
  options.chunk_capacity_bytes = 1024;
  options.max_sub_chunk_records = 3;
  options.online_batch_size = 5;
  auto opened = RStore::Open(backend, options);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  if (!opened.ok()) return nullptr;
  std::unique_ptr<RStore> store = std::move(opened).value();
  CommitVersions(store.get(), gen.dataset, gen.payloads, 0, 6);
  EXPECT_TRUE(store->Flush().ok());
  CommitVersions(store.get(), gen.dataset, gen.payloads, 6,
                 gen.dataset.graph.size());
  return store;
}

class DrainFailureTest : public ::testing::TestWithParam<PartitionAlgorithm> {
};

TEST_P(DrainFailureTest, EveryFailedWriteLeavesTheBatchStaged) {
  SCOPED_TRACE("dataset seed " + std::to_string(DatasetSeed()));
  const workload::GeneratedDataset gen = SweepDataset();
  ASSERT_EQ(gen.dataset.graph.size(), 10u);

  // A clean run: the answers and layout every retried drain must reach, and
  // the number of drain writes to sweep (Flush's last write is the graph
  // key, after the drain).
  FailAtWriteStore clean_backend;
  std::unique_ptr<RStore> clean = StageStore(&clean_backend, gen, GetParam());
  ASSERT_NE(clean, nullptr);
  const uint64_t first_write = clean_backend.writes();
  ASSERT_TRUE(clean->Flush().ok());
  const uint64_t writes = clean_backend.writes() - first_write - 1;
  ASSERT_GT(writes, 0u);
  const std::vector<std::string> answers = Answers(clean.get());

  for (uint64_t n = 0; n < writes; ++n) {
    SCOPED_TRACE("write " + std::to_string(n) + " of " +
                 std::to_string(writes));
    FailAtWriteStore backend;
    std::unique_ptr<RStore> store = StageStore(&backend, gen, GetParam());
    ASSERT_NE(store, nullptr);
    const uint64_t chunks = store->NumChunks();
    const uint64_t span = store->TotalVersionSpan();
    backend.FailWrite(n);
    EXPECT_TRUE(store->Flush().IsIOError());
    EXPECT_EQ(store->NumChunks(), chunks);
    EXPECT_EQ(store->TotalVersionSpan(), span);

    ASSERT_EQ(Answers(store.get()), answers);
    Status integrity = store->VerifyIntegrity();
    ASSERT_TRUE(integrity.ok()) << integrity.ToString();
    EXPECT_EQ(store->NumChunks(), clean->NumChunks());
    EXPECT_EQ(store->TotalVersionSpan(), clean->TotalVersionSpan());
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, DrainFailureTest,
                         ::testing::ValuesIn(kAllAlgorithms),
                         AlgorithmTestName);

}  // namespace
}  // namespace rstore

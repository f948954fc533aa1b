#include "version/dataset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/random.h"
#include "version/delta.h"
#include "version/tree_transform.h"
#include "workload/dataset_generator.h"

namespace rstore {
namespace {

// The paper's Example 2 (Fig. 1): five versions, nine distinct records.
//   V0 = {K0@V0, K1@V0, K2@V0, K3@V0}
//   V1 = V0 with K3 modified, K4 added.
//   V2 = V0 with K3 modified, K5 added, K2 deleted.
//   V3 = V1 with K2 deleted.
//   V4 = V2 with K3 modified.
VersionedDataset Example2() {
  VersionedDataset ds;
  ds.graph.AddRoot();
  (void)*ds.graph.AddVersion({0});
  (void)*ds.graph.AddVersion({0});
  (void)*ds.graph.AddVersion({1});
  (void)*ds.graph.AddVersion({2});
  ds.deltas.resize(5);
  for (int k = 0; k < 4; ++k) {
    ds.deltas[0].added.emplace_back("K" + std::to_string(k), 0);
  }
  // ∆0,1 = {+<K3,V1>, +<K4,V1>, -<K3,V0>} (paper Example 2).
  ds.deltas[1].added = {{"K3", 1}, {"K4", 1}};
  ds.deltas[1].removed = {{"K3", 0}};
  ds.deltas[2].added = {{"K3", 2}, {"K5", 2}};
  ds.deltas[2].removed = {{"K3", 0}, {"K2", 0}};
  ds.deltas[3].removed = {{"K2", 0}};
  ds.deltas[4].added = {{"K3", 4}};
  ds.deltas[4].removed = {{"K3", 2}};
  return ds;
}

TEST(VersionDeltaTest, ConsistencyCheck) {
  VersionDelta d;
  d.added = {{"K1", 1}};
  d.removed = {{"K1", 0}};
  EXPECT_TRUE(d.CheckConsistent().ok());
  d.removed.push_back({"K1", 1});
  EXPECT_TRUE(d.CheckConsistent().IsInvalidArgument());
}

TEST(VersionDeltaTest, InverseSwapsSets) {
  VersionDelta d;
  d.added = {{"A", 2}};
  d.removed = {{"B", 1}};
  VersionDelta inv = d.Inverse();
  EXPECT_EQ(inv.added, d.removed);
  EXPECT_EQ(inv.removed, d.added);
  // ∆ij = ∆ji: double inverse is identity.
  VersionDelta back = inv.Inverse();
  EXPECT_EQ(back.added, d.added);
  EXPECT_EQ(back.removed, d.removed);
}

TEST(VersionDeltaTest, EncodeDecodeRoundTrip) {
  VersionDelta d;
  d.added = {{"K3", 1}, {"K4", 1}};
  d.removed = {{"K3", 0}};
  std::string buf;
  d.EncodeTo(&buf);
  Slice in(buf);
  VersionDelta out;
  ASSERT_TRUE(VersionDelta::DecodeFrom(&in, &out).ok());
  EXPECT_EQ(out.added, d.added);
  EXPECT_EQ(out.removed, d.removed);
}

TEST(VersionedDatasetTest, Example2Validates) {
  EXPECT_TRUE(Example2().Validate().ok());
}

TEST(VersionedDatasetTest, Example2Materialization) {
  VersionedDataset ds = Example2();
  auto v0 = ds.MaterializeVersion(0);
  EXPECT_EQ(v0.size(), 4u);
  EXPECT_TRUE(v0.count({"K3", 0}));

  // Paper: "To retrieve K3 from version V3 ... we need the version-to-record
  // mapping (〈K3,V1〉 in this case)".
  auto v3 = ds.MaterializeVersion(3);
  EXPECT_EQ(v3.size(), 4u);
  EXPECT_TRUE(v3.count({"K0", 0}));
  EXPECT_TRUE(v3.count({"K1", 0}));
  EXPECT_TRUE(v3.count({"K3", 1}));
  EXPECT_TRUE(v3.count({"K4", 1}));
  EXPECT_FALSE(v3.count({"K2", 0}));
  EXPECT_FALSE(v3.count({"K3", 3}));

  auto v4 = ds.MaterializeVersion(4);
  EXPECT_EQ(v4.size(), 4u);
  EXPECT_TRUE(v4.count({"K3", 4}));
  EXPECT_TRUE(v4.count({"K5", 2}));
  EXPECT_FALSE(v4.count({"K3", 2}));
}

TEST(VersionedDatasetTest, NineDistinctRecords) {
  // "a total of nine distinct records" (paper Example 2).
  EXPECT_EQ(Example2().CountDistinctRecords(), 9u);
}

TEST(VersionedDatasetTest, TotalMembership) {
  // |V0|=4, |V1|=5, |V2|=4, |V3|=4, |V4|=4.
  EXPECT_EQ(Example2().TotalMembership(), 21u);
}

TEST(VersionedDatasetTest, RecordVersionMapMatchesFig1) {
  VersionedDataset ds = Example2();
  auto map = ds.BuildRecordVersionMap();
  EXPECT_EQ(map.size(), 9u);
  EXPECT_EQ((map[{"K0", 0}]), (std::vector<VersionId>{0, 1, 2, 3, 4}));
  EXPECT_EQ((map[{"K1", 0}]), (std::vector<VersionId>{0, 1, 2, 3, 4}));
  EXPECT_EQ((map[{"K2", 0}]), (std::vector<VersionId>{0, 1}));
  EXPECT_EQ((map[{"K3", 0}]), (std::vector<VersionId>{0}));
  EXPECT_EQ((map[{"K3", 1}]), (std::vector<VersionId>{1, 3}));
  EXPECT_EQ((map[{"K3", 2}]), (std::vector<VersionId>{2}));
  EXPECT_EQ((map[{"K3", 4}]), (std::vector<VersionId>{4}));
  EXPECT_EQ((map[{"K4", 1}]), (std::vector<VersionId>{1, 3}));
  EXPECT_EQ((map[{"K5", 2}]), (std::vector<VersionId>{2, 4}));
}

TEST(VersionedDatasetTest, RecordVersionMapAgreesWithMaterialization) {
  VersionedDataset ds = Example2();
  auto map = ds.BuildRecordVersionMap();
  for (VersionId v = 0; v < ds.graph.size(); ++v) {
    auto members = ds.MaterializeVersion(v);
    for (const auto& [ck, versions] : map) {
      bool in_map =
          std::binary_search(versions.begin(), versions.end(), v);
      EXPECT_EQ(in_map, members.count(ck) > 0)
          << ck.ToString() << " vs V" << v;
    }
  }
}

TEST(VersionedDatasetTest, ValidateCatchesRemovingAbsentRecord) {
  VersionedDataset ds = Example2();
  ds.deltas[3].removed.push_back({"K9", 0});
  EXPECT_TRUE(ds.Validate().IsInvalidArgument());
}

TEST(VersionedDatasetTest, ValidateCatchesReAdd) {
  VersionedDataset ds = Example2();
  ds.deltas[1].added.push_back({"K0", 0});  // already present via V0
  EXPECT_FALSE(ds.Validate().ok());
}

TEST(VersionedDatasetTest, ValidateCatchesForeignAddFromNonAncestor) {
  VersionedDataset ds = Example2();
  // V3 (descendant of V1) cannot add a record originating in V2's branch
  // without a merge edge.
  ds.deltas[3].added.push_back({"K5", 2});
  EXPECT_TRUE(ds.Validate().IsInvalidArgument());
}

TEST(VersionedDatasetTest, ValidateCatchesDuplicateKeyInVersion) {
  VersionedDataset ds = Example2();
  ds.deltas[1].added.push_back({"K4", 1});  // K4 added twice in V1
  EXPECT_FALSE(ds.Validate().ok());
}

TEST(VersionedDatasetTest, ValidateCatchesSecondRecordForPresentKey) {
  // V1 adds a@V1 without removing a@V0, so V1 would hold two records for
  // key `a`: every delta-level check passes, only the running set sees it.
  VersionedDataset ds;
  ds.graph.AddRoot();
  (void)*ds.graph.AddVersion({0});
  ds.deltas.resize(2);
  ds.deltas[0].added = {{"a", 0}, {"b", 0}};
  ds.deltas[1].added = {{"a", 1}};
  EXPECT_TRUE(ds.Validate().IsInvalidArgument());
  // Removing the superseded record makes it a plain update.
  ds.deltas[1].removed = {{"a", 0}};
  EXPECT_TRUE(ds.Validate().ok());
}

TEST(VersionedDatasetTest, ValidateCatchesRemovingOtherRecordOfPresentKey) {
  VersionedDataset ds = Example2();
  ds.deltas[3].removed.push_back({"K3", 0});  // V1 replaced it with K3@V1
  EXPECT_TRUE(ds.Validate().IsInvalidArgument());
}

TEST(VersionedDatasetTest, ValidateCatchesCountMismatch) {
  VersionedDataset ds = Example2();
  ds.deltas.pop_back();
  EXPECT_TRUE(ds.Validate().IsInvalidArgument());
}

TEST(VersionedDatasetTest, MergeDeltaWithForeignRecordValidates) {
  // V1 and V2 branch from V0; V3 = merge(V1, V2) picking up V2's record.
  VersionedDataset ds;
  ds.graph.AddRoot();
  (void)*ds.graph.AddVersion({0});
  (void)*ds.graph.AddVersion({0});
  (void)*ds.graph.AddVersion({1, 2});
  ds.deltas.resize(4);
  ds.deltas[0].added = {{"A", 0}};
  ds.deltas[1].added = {{"B", 1}};
  ds.deltas[2].added = {{"C", 2}};
  // Merge V3: delta vs primary parent V1 brings in C@V2 (foreign).
  ds.deltas[3].added = {{"C", 2}};
  ASSERT_TRUE(ds.Validate().ok());
  auto v3 = ds.MaterializeVersion(3);
  EXPECT_EQ(v3.size(), 3u);
  EXPECT_TRUE(v3.count({"A", 0}));
  EXPECT_TRUE(v3.count({"B", 1}));
  EXPECT_TRUE(v3.count({"C", 2}));
}

/// The cursor's current members, checked against MaterializeVersion: the
/// same records, and Find() answers each one's key.
void ExpectCursorMatches(const VersionedDataset& ds,
                         const MembershipCursor& cursor, VersionId v) {
  ASSERT_EQ(cursor.version(), v);
  VersionMembership members;
  cursor.ForEach([&](const CompositeKey& ck) { members.insert(ck); });
  const VersionMembership expected = ds.MaterializeVersion(v);
  EXPECT_EQ(cursor.size(), expected.size()) << "V" << v;
  EXPECT_EQ(members, expected) << "V" << v;
  for (const CompositeKey& ck : expected) {
    const CompositeKey* found = cursor.Find(ck.key);
    ASSERT_NE(found, nullptr) << ck.ToString();
    EXPECT_EQ(*found, ck);
  }
  EXPECT_EQ(cursor.Find("no-such-key"), nullptr);
}

/// Random walk: half the moves jump anywhere (long paths, replays from the
/// root), half step to the parent or a child (one delta).
void RandomWalk(const VersionedDataset& ds, uint64_t seed, int steps) {
  Random rng(seed);
  MembershipCursor cursor(&ds);
  EXPECT_EQ(cursor.version(), kInvalidVersion);
  VersionId v = static_cast<VersionId>(rng.Uniform(ds.graph.size()));
  for (int step = 0; step < steps; ++step) {
    cursor.MoveTo(v);
    ExpectCursorMatches(ds, cursor, v);
    if (::testing::Test::HasFatalFailure()) return;
    const std::vector<VersionId>& children = ds.graph.children(v);
    if (rng.Uniform(2) == 0) {
      v = static_cast<VersionId>(rng.Uniform(ds.graph.size()));
    } else if (!children.empty() && rng.Uniform(2) == 0) {
      v = children[rng.Uniform(children.size())];
    } else if (v != 0) {
      v = ds.graph.PrimaryParent(v);
    }
  }
  cursor.Reset();
  EXPECT_EQ(cursor.version(), kInvalidVersion);
  EXPECT_EQ(cursor.size(), 0u);
  cursor.MoveTo(v);
  ExpectCursorMatches(ds, cursor, v);
}

workload::GeneratedDataset GeneratorTree(double branch_probability) {
  workload::DatasetConfig config;
  config.num_versions = 60;
  config.records_per_version = 40;
  config.update_fraction = 0.1;
  config.insert_fraction = 0.05;
  config.delete_fraction = 0.05;
  config.branch_probability = branch_probability;
  config.record_size_bytes = 64;
  config.seed = 5;
  return workload::GenerateDataset(config);
}

/// A DAG with merges: each version derives from a random earlier primary
/// parent, updating, inserting and deleting a few keys; about one in four
/// also merges another earlier version, taking over some of its records
/// under their original composite keys.
VersionedDataset MergeDataset(uint32_t versions, uint64_t seed) {
  Random rng(seed);
  VersionedDataset ds;
  std::vector<std::map<std::string, CompositeKey>> members(1);
  ds.graph.AddRoot();
  ds.deltas.emplace_back();
  for (int k = 0; k < 12; ++k) {
    CompositeKey ck("k" + std::to_string(k), 0);
    ds.deltas[0].added.push_back(ck);
    members[0].emplace(ck.key, ck);
  }
  for (VersionId v = 1; v < versions; ++v) {
    const VersionId primary = static_cast<VersionId>(rng.Uniform(v));
    const VersionId other = static_cast<VersionId>(rng.Uniform(v));
    const bool merge = other != primary && rng.Uniform(4) == 0;
    std::vector<VersionId> parents{primary};
    if (merge) parents.push_back(other);
    EXPECT_TRUE(ds.graph.AddVersion(parents).ok());
    std::map<std::string, CompositeKey> m = members[primary];
    VersionDelta delta;
    std::set<std::string> touched;
    auto put = [&](const CompositeKey& ck) {
      if (!touched.insert(ck.key).second) return;
      auto it = m.find(ck.key);
      if (it != m.end()) {
        if (it->second == ck) return;
        delta.removed.push_back(it->second);
      }
      delta.added.push_back(ck);
      m[ck.key] = ck;
    };
    if (merge) {
      for (const auto& [key, ck] : members[other]) {
        if (rng.Uniform(2) == 0) put(ck);
      }
    }
    for (int u = 0; u < 3; ++u) {
      put(CompositeKey("k" + std::to_string(rng.Uniform(16)), v));
    }
    const std::string doomed = "k" + std::to_string(rng.Uniform(16));
    auto it = m.find(doomed);
    if (it != m.end() && touched.insert(doomed).second) {
      delta.removed.push_back(it->second);
      m.erase(it);
    }
    ds.deltas.push_back(std::move(delta));
    members.push_back(std::move(m));
  }
  return ds;
}

TEST(MembershipCursorTest, RandomMovesOnChainMatchMaterialization) {
  const workload::GeneratedDataset gen = GeneratorTree(0.0);
  ASSERT_TRUE(gen.dataset.Validate().ok());
  RandomWalk(gen.dataset, 1, 300);
}

TEST(MembershipCursorTest, RandomMovesOnBranchyTreeMatchMaterialization) {
  const workload::GeneratedDataset gen = GeneratorTree(0.4);
  ASSERT_TRUE(gen.dataset.Validate().ok());
  RandomWalk(gen.dataset, 2, 300);
}

TEST(MembershipCursorTest, RandomMovesOnTransformedMergesMatchMaterialization) {
  const VersionedDataset dag = MergeDataset(50, 3);
  ASSERT_TRUE(dag.Validate().ok());
  ASSERT_FALSE(dag.graph.IsTree());
  const TreeTransformResult transformed = ConvertToTree(dag);
  ASSERT_GT(transformed.renamed_count, 0u);
  ASSERT_TRUE(transformed.tree.Validate().ok());
  RandomWalk(transformed.tree, 3, 300);
}

TEST(MembershipCursorTest, FollowsVersionsAppendedWhilePositioned) {
  // The write path's pattern: the dataset grows one version at a time
  // (reallocating its delta vector) while the cursor stays positioned.
  const workload::GeneratedDataset gen = GeneratorTree(0.4);
  const VersionedDataset& full = gen.dataset;
  VersionedDataset growing;
  growing.graph.AddRoot();
  growing.deltas.push_back(full.deltas[0]);
  MembershipCursor cursor(&growing);
  cursor.MoveTo(0);
  for (VersionId v = 1; v < full.graph.size(); ++v) {
    ASSERT_TRUE(growing.graph.AddVersion({full.graph.PrimaryParent(v)}).ok());
    growing.deltas.push_back(full.deltas[v]);
    cursor.MoveTo(v);
    ExpectCursorMatches(growing, cursor, v);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace rstore

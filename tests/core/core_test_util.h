#ifndef RSTORE_TESTS_CORE_CORE_TEST_UTIL_H_
#define RSTORE_TESTS_CORE_CORE_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "common/executor.h"
#include "common/result.h"
#include "core/record.h"
#include "core/rstore.h"
#include "version/dataset.h"
#include "workload/query_workload.h"

namespace rstore {
namespace testing {

/// The paper's Example 2 dataset (Fig. 1): five versions, nine distinct
/// records, with deterministic payloads.
struct ExampleData {
  VersionedDataset dataset;
  RecordPayloadMap payloads;
};

inline std::string PayloadFor(const CompositeKey& ck) {
  // JSON-ish payload, distinct per record, long enough to exercise
  // compression paths.
  std::string body = "{\"key\":\"" + ck.key + "\",\"origin\":" +
                     std::to_string(ck.version) + ",\"data\":\"";
  for (int i = 0; i < 8; ++i) body += ck.key + "-" + std::to_string(i) + " ";
  body += "\"}";
  return body;
}

inline ExampleData MakeExample2() {
  ExampleData out;
  VersionedDataset& ds = out.dataset;
  ds.graph.AddRoot();
  (void)*ds.graph.AddVersion({0});
  (void)*ds.graph.AddVersion({0});
  (void)*ds.graph.AddVersion({1});
  (void)*ds.graph.AddVersion({2});
  ds.deltas.resize(5);
  for (int k = 0; k < 4; ++k) {
    ds.deltas[0].added.emplace_back("K" + std::to_string(k), 0);
  }
  ds.deltas[1].added = {{"K3", 1}, {"K4", 1}};
  ds.deltas[1].removed = {{"K3", 0}};
  ds.deltas[2].added = {{"K3", 2}, {"K5", 2}};
  ds.deltas[2].removed = {{"K3", 0}, {"K2", 0}};
  ds.deltas[3].removed = {{"K2", 0}};
  ds.deltas[4].added = {{"K3", 4}};
  ds.deltas[4].removed = {{"K3", 2}};
  for (const VersionDelta& delta : ds.deltas) {
    for (const CompositeKey& ck : delta.added) {
      out.payloads[ck] = PayloadFor(ck);
    }
  }
  return out;
}

/// A linear chain: `versions` versions over `keys` primary keys, updating
/// `updates_per_version` round-robin keys each step.
inline ExampleData MakeChain(uint32_t versions, uint32_t keys,
                             uint32_t updates_per_version) {
  ExampleData out;
  VersionedDataset& ds = out.dataset;
  ds.graph.AddRoot();
  ds.deltas.resize(1);
  std::vector<CompositeKey> current;
  for (uint32_t k = 0; k < keys; ++k) {
    CompositeKey ck("key" + std::to_string(1000 + k), 0);
    ds.deltas[0].added.push_back(ck);
    current.push_back(ck);
  }
  for (VersionId v = 1; v < versions; ++v) {
    (void)*ds.graph.AddVersion({v - 1});
    VersionDelta delta;
    for (uint32_t u = 0; u < updates_per_version; ++u) {
      uint32_t key_index = (v * updates_per_version + u) % keys;
      delta.removed.push_back(current[key_index]);
      CompositeKey updated(current[key_index].key, v);
      delta.added.push_back(updated);
      current[key_index] = updated;
    }
    ds.deltas.push_back(std::move(delta));
  }
  for (const VersionDelta& delta : ds.deltas) {
    for (const CompositeKey& ck : delta.added) {
      out.payloads[ck] = PayloadFor(ck);
    }
  }
  return out;
}

/// Commits versions [first, end) of `dataset` into `store`, each as the
/// delta from its primary parent.
inline void CommitVersions(RStore* store, const VersionedDataset& dataset,
                           const RecordPayloadMap& payloads, VersionId first,
                           VersionId end) {
  for (VersionId v = first; v < end; ++v) {
    CommitDelta delta;
    std::unordered_set<std::string> upserted;
    for (const CompositeKey& ck : dataset.deltas[v].added) {
      upserted.insert(ck.key);
      delta.upserts.push_back(Record{ck, payloads.at(ck)});
    }
    for (const CompositeKey& ck : dataset.deltas[v].removed) {
      if (!upserted.count(ck.key)) delta.deletes.push_back(ck.key);
    }
    const VersionId parent =
        v == 0 ? kInvalidVersion : dataset.graph.PrimaryParent(v);
    auto committed = store->Commit(parent, std::move(delta));
    ASSERT_TRUE(committed.ok()) << committed.status().ToString();
    ASSERT_EQ(*committed, v);
  }
}

/// Canonical byte serialization of a query result. Query results are
/// deterministically ordered, so two stores that agree record for record
/// produce identical bytes.
inline std::string SerializeRecords(const std::vector<Record>& records) {
  std::string out;
  for (const Record& r : records) {
    out += r.key.key;
    out += '\x1f';
    out += std::to_string(r.key.version);
    out += '\x1f';
    out += r.payload;
    out += '\x1e';
  }
  return out;
}

/// The outcome of replaying a fixed query workload against one store: one
/// canonical serialization per executed query, plus the accumulated
/// QueryStats. Two stores configured differently (e.g. cache on vs. off)
/// replayed with the same seed must produce byte-identical `results`.
struct WorkloadReplay {
  std::vector<std::string> results;
  QueryStats stats;
};

/// The deterministic mixed query list derived from `seed`: full-version,
/// range, evolution and point queries, repeated `passes` times so a cache
/// on the read path sees genuine re-use (the first pass cold, later warm).
/// Both the sync and the async replay walk this same list, which is what
/// makes their outputs comparable position by position.
inline std::vector<workload::Query> BuildReplayQueries(
    const VersionedDataset& dataset, uint64_t seed, int passes = 2) {
  workload::QueryWorkloadGenerator qgen(&dataset, seed);
  const std::vector<workload::Query> full = qgen.FullVersionQueries(3);
  const std::vector<workload::Query> ranges = qgen.RangeQueries(3, 0.2);
  const std::vector<workload::Query> evolutions = qgen.EvolutionQueries(3);
  const std::vector<workload::Query> points = qgen.PointQueries(5);
  std::vector<workload::Query> out;
  for (int pass = 0; pass < passes; ++pass) {
    out.insert(out.end(), full.begin(), full.end());
    out.insert(out.end(), ranges.begin(), ranges.end());
    out.insert(out.end(), evolutions.begin(), evolutions.end());
    out.insert(out.end(), points.begin(), points.end());
  }
  return out;
}

/// The canonical serialization of query `q`'s answer: a class prefix
/// (v:, r:, h: or p:) and its records, or "p:notfound" for a point query
/// that found no record. Any other error is returned.
inline Result<std::string> SerializeAnswer(const workload::Query& q,
                                           const Status& status,
                                           const std::vector<Record>& records) {
  static constexpr const char* kPrefixes[] = {"v:", "r:", "h:", "p:"};
  const char* prefix = kPrefixes[static_cast<int>(q.kind)];
  if (q.kind == workload::Query::Kind::kPoint && status.IsNotFound()) {
    return std::string(prefix) + "notfound";
  }
  if (!status.ok()) return status;
  return prefix + SerializeRecords(records);
}

/// Replays the deterministic mixed query workload derived from `seed`
/// against `store` through the synchronous API.
inline Result<WorkloadReplay> ReplayQueryWorkload(
    RStore* store, const VersionedDataset& dataset, uint64_t seed,
    int passes = 2) {
  WorkloadReplay out;
  const std::vector<Record> none;  // stands in for a failed query's records
  for (const workload::Query& q : BuildReplayQueries(dataset, seed, passes)) {
    const auto got = store->Run(q, &out.stats);
    auto answer = SerializeAnswer(q, got.status(), got.ok() ? *got : none);
    if (!answer.ok()) return answer.status();
    out.results.push_back(std::move(answer).value());
  }
  return out;
}

/// Replays the same workload through the async API on `executor`.
/// `window` = 0 submits every query up front (maximum overlap); `window`
/// = 1 drains the executor after each submission — the sequential mode
/// whose timeline must equal the synchronous engine's exactly. Results are
/// recorded by submission index, so `results` is position-comparable with
/// the synchronous replay regardless of completion order.
inline Result<WorkloadReplay> ReplayQueryWorkloadAsync(
    RStore* store, Executor* executor, const VersionedDataset& dataset,
    uint64_t seed, size_t window = 0, int passes = 2) {
  const std::vector<workload::Query> queries =
      BuildReplayQueries(dataset, seed, passes);
  WorkloadReplay out;
  out.results.resize(queries.size());
  Status first_error = Status::OK();
  for (size_t i = 0; i < queries.size(); ++i) {
    store->RunAsync(executor, queries[i])
        .OnReady([&out, &first_error, &q = queries[i],
                  i](const AsyncQueryResult& r) {
          auto answer = SerializeAnswer(q, r.status, r.records);
          if (!answer.ok()) {
            if (first_error.ok()) first_error = answer.status();
            return;
          }
          out.stats += r.stats;
          out.results[i] = std::move(answer).value();
        });
    if (window == 1) executor->RunUntilIdle();
  }
  executor->RunUntilIdle();
  if (!first_error.ok()) return first_error;
  return out;
}

}  // namespace testing
}  // namespace rstore

#endif  // RSTORE_TESTS_CORE_CORE_TEST_UTIL_H_

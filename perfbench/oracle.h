// The answer oracle: the expected result of every benchmark query, derived
// from the generated dataset and payloads alone (never from a store), and
// compared with what the store returned as an order-independent hash.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "core/record.h"
#include "version/dataset.h"
#include "workload/query_workload.h"

namespace perfbench {

/// Running hash of a record sequence in (key, version) order.
class RecordHash {
 public:
  void Add(const std::string& key, rstore::VersionId version,
           const std::string& payload) {
    h_ = rstore::Mix64(h_ ^ rstore::Fnv1a64(key));
    h_ = rstore::Mix64(h_ ^ version);
    h_ = rstore::Mix64(h_ ^ rstore::Fnv1a64(payload));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Hash of `records` in (key, version) order, whatever order they came in.
inline uint64_t SortedRecordHash(const std::vector<rstore::Record>& records) {
  std::vector<const rstore::Record*> sorted;
  sorted.reserve(records.size());
  for (const rstore::Record& r : records) sorted.push_back(&r);
  std::sort(sorted.begin(), sorted.end(),
            [](const rstore::Record* a, const rstore::Record* b) {
              if (a->key.key != b->key.key) return a->key.key < b->key.key;
              return a->key.version < b->key.version;
            });
  RecordHash hash;
  for (const rstore::Record* r : sorted) {
    hash.Add(r->key.key, r->key.version, r->payload);
  }
  return hash.value();
}

/// What one query must return. `found` is false only for a point lookup of
/// a key absent from its version, which must answer NotFound.
struct Expected {
  bool found = true;
  uint64_t hash = 0;
};

class Oracle {
 public:
  /// Both arguments are borrowed and must outlive the oracle.
  Oracle(const rstore::VersionedDataset& dataset,
         const rstore::RecordPayloadMap& payloads)
      : payloads_(&payloads),
        record_versions_(dataset.BuildRecordVersionMap()),
        members_(dataset.graph.size()) {
    for (const auto& [ck, versions] : record_versions_) {
      for (rstore::VersionId v : versions) members_[v].push_back(&ck);
      history_[ck.key].push_back(&ck);
    }
    for (auto& m : members_) {
      std::sort(m.begin(), m.end(), [](const auto* a, const auto* b) {
        return a->key < b->key;
      });
    }
    for (auto& [key, h] : history_) {
      std::sort(h.begin(), h.end(), [](const auto* a, const auto* b) {
        return a->version < b->version;
      });
    }
  }

  Expected Answer(const rstore::workload::Query& q) const {
    using Kind = rstore::workload::Query::Kind;
    switch (q.kind) {
      case Kind::kFullVersion: {
        const auto& m = members_.at(q.version);
        return Of(m.begin(), m.end());
      }
      case Kind::kRange: {
        const auto& m = members_.at(q.version);
        auto lo = std::lower_bound(
            m.begin(), m.end(), q.key_lo,
            [](const auto* ck, const std::string& k) { return ck->key < k; });
        auto hi = std::upper_bound(
            m.begin(), m.end(), q.key_hi,
            [](const std::string& k, const auto* ck) { return k < ck->key; });
        return Of(lo, std::max(lo, hi));
      }
      case Kind::kEvolution: {
        auto it = history_.find(q.key);
        if (it == history_.end()) return Of(kNone.begin(), kNone.end());
        return Of(it->second.begin(), it->second.end());
      }
      case Kind::kPoint: {
        const auto& m = members_.at(q.version);
        auto it = std::lower_bound(
            m.begin(), m.end(), q.key,
            [](const auto* ck, const std::string& k) { return ck->key < k; });
        if (it == m.end() || (*it)->key != q.key) return Expected{false, 0};
        return Of(it, it + 1);
      }
    }
    return Expected{};
  }

  /// True when a record-set query returned exactly `e`.
  static bool Matches(const Expected& e, const rstore::Status& status,
                      const std::vector<rstore::Record>& records) {
    return e.found && status.ok() && SortedRecordHash(records) == e.hash;
  }
  /// True when a point lookup returned `e`: the record, or NotFound when
  /// the key is absent from the version.
  static bool MatchesPoint(const Expected& e, const rstore::Status& status,
                           const rstore::Record* record) {
    if (!e.found) return status.IsNotFound();
    return status.ok() && record != nullptr &&
           SortedRecordHash({*record}) == e.hash;
  }

 private:
  using Members = std::vector<const rstore::CompositeKey*>;

  template <typename It>
  Expected Of(It begin, It end) const {
    RecordHash hash;
    for (It it = begin; it != end; ++it) {
      const rstore::CompositeKey& ck = **it;
      hash.Add(ck.key, ck.version, payloads_->at(ck));
    }
    return Expected{true, hash.value()};
  }

  inline static const Members kNone{};

  const rstore::RecordPayloadMap* payloads_;
  rstore::RecordVersionMap record_versions_;
  std::vector<Members> members_;  // per version, sorted by key
  std::unordered_map<std::string, Members> history_;  // sorted by version
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_

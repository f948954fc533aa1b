#ifndef RSTORE_VERSION_DATASET_H_
#define RSTORE_VERSION_DATASET_H_

#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "version/delta.h"
#include "version/version_graph.h"

namespace rstore {

/// Membership set of one version: the composite keys of all records in it.
using VersionMembership =
    std::unordered_set<CompositeKey, CompositeKeyHash>;

/// Map from each distinct record to the (sorted) list of versions containing
/// it — the bipartite record/version graph of paper §2.5, and the input the
/// shingle partitioner min-hashes.
using RecordVersionMap =
    std::unordered_map<CompositeKey, std::vector<VersionId>, CompositeKeyHash>;

/// A version graph plus per-version membership deltas: the structural view
/// of a versioned collection (record payloads live in the storage layer).
///
/// deltas[v] is expressed against v's *primary* parent; deltas[0].added
/// holds the root version's full record set. Membership of any version is
/// therefore determined by the primary-parent chain alone; merge edges add
/// provenance, and records arriving from non-primary parents appear in the
/// merge's ∆⁺ under their original composite keys (until the tree transform
/// renames them, see tree_transform.h).
struct VersionedDataset {
  VersionGraph graph;
  std::vector<VersionDelta> deltas;

  /// Structural sanity: one delta per version; deltas consistent; every
  /// native ∆⁺ key originates in its version or is a foreign (merge) key
  /// from an ancestor branch; every ∆⁻ key is actually present in the
  /// parent; and every version holds at most one record per primary key.
  /// O(total membership), intended for tests and ingest validation.
  Status Validate() const;

  /// The full record set of version `v`, by walking root -> v and applying
  /// deltas. O(path length * delta size). MembershipCursor is the
  /// incremental form for walks that visit many versions.
  VersionMembership MaterializeVersion(VersionId v) const;

  /// Record -> sorted list of versions that contain it, for all records.
  /// Built with one DFS over the primary tree maintaining a running set,
  /// O(total membership) overall.
  RecordVersionMap BuildRecordVersionMap() const;

  /// Number of distinct records across all versions.
  uint64_t CountDistinctRecords() const;

  /// Sum over versions of their record counts (the "total size" column of
  /// paper Table 2, in records rather than bytes).
  uint64_t TotalMembership() const;
};

/// The membership of one version, keyed by primary key, that moves from
/// version to version by deltas: it undoes the deltas from its version up
/// to the common ancestor and applies those down to the target, or clears
/// and replays root -> target when that touches fewer records. Moving to a
/// child therefore costs one delta, where MaterializeVersion rebuilds the
/// whole path — an update costs about the size of the change.
///
/// Relies on the invariant Validate() enforces: a version holds at most one
/// record per primary key. The cursor borrows `dataset` and points into its
/// deltas: versions may be appended while it lives, but the deltas of
/// existing versions must not change, and Reset() must follow any
/// wholesale replacement of the dataset.
class MembershipCursor {
 public:
  explicit MembershipCursor(const VersionedDataset* dataset)
      : dataset_(dataset) {}

  /// Forgets the position and every member.
  void Reset();

  /// Positions the cursor on version `v` (which must exist).
  void MoveTo(VersionId v);

  /// The current version, or kInvalidVersion before the first MoveTo and
  /// after Reset().
  VersionId version() const { return version_; }
  size_t size() const { return members_.size(); }

  /// The current version's record with primary key `key`, or nullptr.
  const CompositeKey* Find(std::string_view key) const {
    auto it = members_.find(key);
    return it == members_.end() ? nullptr : it->second;
  }

  /// Calls `fn(const CompositeKey&)` for every member, in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& entry : members_) fn(*entry.second);
  }

 private:
  void Apply(VersionId v);
  void Undo(VersionId v);

  const VersionedDataset* dataset_;
  VersionId version_ = kInvalidVersion;
  /// Primary key -> the record; both point into dataset_->deltas.
  std::unordered_map<std::string_view, const CompositeKey*> members_;
  std::vector<VersionId> down_;  // MoveTo's path from the target up; reused
};

}  // namespace rstore

#endif  // RSTORE_VERSION_DATASET_H_

#ifndef RSTORE_CORE_DELTA_STORE_H_
#define RSTORE_CORE_DELTA_STORE_H_

#include <vector>

#include "core/record.h"

namespace rstore {

/// A commit as received from a client: "the delta includes those records
/// which have changed w.r.t. the previous version, records that are newly
/// added and records that are deleted" (paper §2.4).
struct CommitDelta {
  /// New or updated records: primary key + full payload.
  std::vector<Record> upserts;  // Record::key.version is ignored on input
  /// Primary keys deleted relative to the parent version.
  std::vector<std::string> deletes;
};

/// The write store of paper §4: "the received deltas are kept in a separate
/// storage area, that are processed in a batch fashion by the data placement
/// module." The staged versions are the newest ones, a contiguous tail of
/// the store's version graph whose membership deltas the graph's dataset
/// already holds, so this keeps only where the tail starts and the staged
/// record payloads until the online partitioner drains them.
class DeltaStore {
 public:
  /// Stages `version`, the version after the last staged one (any version
  /// when nothing is staged), with its new record payloads.
  void Stage(VersionId version, std::vector<Record> payloads);

  size_t pending_versions() const { return pending_versions_; }
  bool empty() const { return pending_versions_ == 0; }

  /// The oldest staged version; the staged ones are
  /// [first_version(), first_version() + pending_versions()).
  VersionId first_version() const { return first_version_; }
  const RecordPayloadMap& payloads() const { return payloads_; }

  /// Empties the store after a batch has been incorporated.
  void Clear();

 private:
  VersionId first_version_ = kInvalidVersion;
  size_t pending_versions_ = 0;
  RecordPayloadMap payloads_;
};

}  // namespace rstore

#endif  // RSTORE_CORE_DELTA_STORE_H_

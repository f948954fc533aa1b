#include "core/delta_store.h"

#include "common/logging.h"

namespace rstore {

void DeltaStore::Stage(VersionId version, std::vector<Record> payloads) {
  if (empty()) first_version_ = version;
  RSTORE_DCHECK(version == first_version_ + pending_versions_);
  ++pending_versions_;
  for (Record& record : payloads) {
    payloads_.emplace(record.key, std::move(record.payload));
  }
}

void DeltaStore::Clear() {
  first_version_ = kInvalidVersion;
  pending_versions_ = 0;
  payloads_.clear();
}

}  // namespace rstore

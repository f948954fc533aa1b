#ifndef RSTORE_CORE_PARTITIONER_H_
#define RSTORE_CORE_PARTITIONER_H_

#include <memory>

#include "common/result.h"
#include "core/placement.h"

namespace rstore {

/// Everything a partitioning algorithm sees: the (merge-free) version tree,
/// the placement items (sub-chunks) and the store's options. All pointers
/// must outlive the call.
struct PartitionInput {
  const VersionedDataset* dataset = nullptr;  // must be a tree
  const std::vector<PlacementItem>* items = nullptr;
  const Options* options = nullptr;
};

/// Interface for the record-to-chunk partitioning algorithms (paper §3).
/// Implementations are stateless across calls and deterministic.
class Partitioner {
 public:
  virtual ~Partitioner() = default;

  virtual const char* name() const = 0;

  virtual Result<Partitioning> Partition(const PartitionInput& input) = 0;
};

/// Factory covering all algorithms and baselines of Options::algorithm.
std::unique_ptr<Partitioner> CreatePartitioner(PartitionAlgorithm algorithm);

}  // namespace rstore

#endif  // RSTORE_CORE_PARTITIONER_H_

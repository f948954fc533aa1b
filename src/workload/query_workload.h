#ifndef RSTORE_WORKLOAD_QUERY_WORKLOAD_H_
#define RSTORE_WORKLOAD_QUERY_WORKLOAD_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "core/query.h"
#include "version/dataset.h"

namespace rstore {
namespace workload {

/// One query of the paper's §5.4 randomly generated workloads: the store's
/// own query type.
using Query = rstore::Query;

/// Generates randomized query workloads over a dataset: uniformly random
/// versions for Q1, random key ranges of a requested selectivity for Q2,
/// and uniformly random primary keys for Q3.
class QueryWorkloadGenerator {
 public:
  QueryWorkloadGenerator(const VersionedDataset* dataset, uint64_t seed);

  /// `count` full-version retrievals over random versions.
  std::vector<Query> FullVersionQueries(size_t count);
  /// `count` range retrievals, each covering ~`selectivity` of the key
  /// space of a random version.
  std::vector<Query> RangeQueries(size_t count, double selectivity);
  /// `count` record-evolution queries over random primary keys.
  std::vector<Query> EvolutionQueries(size_t count);
  /// `count` point lookups (random key of a random version).
  std::vector<Query> PointQueries(size_t count);

 private:
  /// All distinct primary keys, sorted.
  const std::vector<std::string>& Keys();

  const VersionedDataset* dataset_;
  Random rng_;
  std::vector<std::string> keys_;
};

}  // namespace workload
}  // namespace rstore

#endif  // RSTORE_WORKLOAD_QUERY_WORKLOAD_H_

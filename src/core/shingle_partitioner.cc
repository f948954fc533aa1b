#include "core/shingle_partitioner.h"

#include <algorithm>
#include <numeric>

#include "common/hash.h"

namespace rstore {

namespace {

/// Seed of the min-hash family: fixed, so SHINGLE layouts are reproducible.
constexpr uint64_t kShingleSeed = 0x5253746f7265ull;  // "RStore"

}  // namespace

Result<Partitioning> ShinglePartitioner::Partition(
    const PartitionInput& input) {
  const std::vector<PlacementItem>& items = *input.items;
  const uint32_t l = std::max<uint32_t>(1, input.options->shingle_count);
  HashFamily family(l, kShingleSeed);

  // Algorithm 1: shingles[i] = (min_v h_1(v), ..., min_v h_l(v)).
  std::vector<std::vector<uint64_t>> shingles(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    shingles[i].resize(l, UINT64_MAX);
    for (VersionId v : items[i].versions) {
      for (uint32_t f = 0; f < l; ++f) {
        shingles[i][f] = std::min(shingles[i][f], family.Apply(f, v + 1));
      }
    }
  }

  // Algorithm 2: lexicographic sort by shingle vector; items with similar
  // version sets collide on early min-hashes and end up adjacent. Item id as
  // tiebreak keeps the result deterministic.
  std::vector<uint32_t> order(items.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (shingles[a] != shingles[b]) return shingles[a] < shingles[b];
    return items[a].id < items[b].id;
  });

  ChunkPacker packer(input.options->chunk_capacity_bytes,
                     input.options->chunk_overflow_fraction);
  for (uint32_t i : order) packer.Add(i, items[i].bytes);
  return packer.Finish(/*merge_partials=*/false);
}

}  // namespace rstore

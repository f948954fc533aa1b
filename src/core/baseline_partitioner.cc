#include "core/baseline_partitioner.h"

#include <map>

#include "core/item_index.h"

namespace rstore {

Result<Partitioning> DeltaBaselinePartitioner::Partition(
    const PartitionInput& input) {
  const VersionGraph& graph = input.dataset->graph;
  if (!graph.IsTree()) {
    return Status::InvalidArgument("DELTA baseline requires a version tree");
  }
  const std::vector<PlacementItem>& items = *input.items;
  // Group items by origin version; each version's group fills its own
  // chunk(s) (split only when a single delta exceeds capacity).
  std::vector<std::vector<uint32_t>> by_version(graph.size());
  for (uint32_t i = 0; i < items.size(); ++i) {
    if (items[i].origin_version >= graph.size()) {
      return Status::InvalidArgument("item with out-of-range origin version");
    }
    by_version[items[i].origin_version].push_back(i);
  }
  ChunkPacker packer(input.options->chunk_capacity_bytes,
                     input.options->chunk_overflow_fraction);
  for (VersionId v = 0; v < graph.size(); ++v) {
    if (by_version[v].empty()) continue;
    packer.StartNewChunk();
    for (uint32_t item : by_version[v]) packer.Add(item, items[item].bytes);
  }
  Partitioning out = packer.Finish(/*merge_partials=*/false);
  out.layout = LayoutKind::kDeltaChain;
  return out;
}

Result<Partitioning> SubChunkBaselinePartitioner::Partition(
    const PartitionInput& input) {
  const std::vector<PlacementItem>& items = *input.items;
  // One chunk per primary key, capacity ignored: the defining property of
  // the baseline is that a key's whole history lives together.
  std::map<std::string, std::vector<uint32_t>> by_key;
  for (uint32_t i = 0; i < items.size(); ++i) {
    by_key[items[i].id.key].push_back(i);
  }
  Partitioning out;
  out.layout = LayoutKind::kSubChunkPerKey;
  out.chunks.reserve(by_key.size());
  for (auto& [key, group] : by_key) {
    out.chunks.push_back(std::move(group));
  }
  return out;
}

Result<Partitioning> SingleAddressPartitioner::Partition(
    const PartitionInput& input) {
  const std::vector<PlacementItem>& items = *input.items;
  Partitioning out;
  out.layout = LayoutKind::kChunked;
  out.chunks.reserve(items.size());
  for (uint32_t i = 0; i < items.size(); ++i) {
    out.chunks.push_back({i});
  }
  return out;
}

}  // namespace rstore

#include "core/traversal_partitioner.h"

#include <deque>

#include "core/item_index.h"

namespace rstore {

Result<Partitioning> TraversalPartitioner::Partition(
    const PartitionInput& input) {
  const VersionGraph& graph = input.dataset->graph;
  if (!graph.IsTree()) {
    return Status::InvalidArgument(
        "traversal partitioner requires a version tree (run ConvertToTree)");
  }
  const std::vector<PlacementItem>& items = *input.items;
  ItemIndex index = ItemIndex::Build(graph, items);

  ChunkPacker packer(input.options->chunk_capacity_bytes,
                     input.options->chunk_overflow_fraction);
  auto place_version = [&](VersionId v) {
    for (uint32_t item : index.added[v]) {
      packer.Add(item, items[item].bytes);
    }
  };

  if (order_ == Order::kDepthFirst) {
    // Iterative pre-order DFS, children in id order.
    std::vector<VersionId> stack{0};
    while (!stack.empty()) {
      VersionId v = stack.back();
      stack.pop_back();
      place_version(v);
      const auto& children = graph.children(v);
      // Push in reverse so the smallest child id is visited first.
      for (auto it = children.rbegin(); it != children.rend(); ++it) {
        stack.push_back(*it);
      }
    }
  } else {
    std::deque<VersionId> queue{0};
    while (!queue.empty()) {
      VersionId v = queue.front();
      queue.pop_front();
      place_version(v);
      for (VersionId child : graph.children(v)) queue.push_back(child);
    }
  }
  return packer.Finish(/*merge_partials=*/false);
}

}  // namespace rstore

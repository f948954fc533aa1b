#include "core/bottom_up_partitioner.h"

#include <algorithm>
#include <deque>
#include <map>

#include "core/item_index.h"

namespace rstore {

namespace {

using Level = std::vector<uint32_t>;  // item indices, sorted
/// π collection: levels_[j] = S^{j+1}, items in chains of j+1 consecutive
/// versions. A deque so a parent can push its S¹ in front of the shifted
/// child levels in O(1).
using Pi = std::deque<Level>;

void SortUnique(Level* level) {
  std::sort(level->begin(), level->end());
  level->erase(std::unique(level->begin(), level->end()), level->end());
}

/// β limiting (§3.2.1): merge the smallest level into its shorter-chain
/// neighbour until at most `limit` levels remain.
void EnforceSubtreeLimit(Pi* pi, uint32_t limit) {
  if (limit == 0) return;
  while (pi->size() > limit) {
    size_t smallest = 0;
    for (size_t j = 1; j < pi->size(); ++j) {
      if ((*pi)[j].size() <= (*pi)[smallest].size()) smallest = j;
    }
    size_t target = smallest == 0 ? 1 : smallest - 1;
    Level& dst = (*pi)[target];
    Level& src = (*pi)[smallest];
    dst.insert(dst.end(), src.begin(), src.end());
    SortUnique(&dst);
    pi->erase(pi->begin() + static_cast<ptrdiff_t>(smallest));
  }
}

}  // namespace

Result<Partitioning> BottomUpPartitioner::Partition(
    const PartitionInput& input) {
  const VersionGraph& graph = input.dataset->graph;
  if (!graph.IsTree()) {
    return Status::InvalidArgument(
        "BOTTOM-UP requires a version tree (run ConvertToTree)");
  }
  const std::vector<PlacementItem>& items = *input.items;
  ItemIndex index = ItemIndex::Build(graph, items);

  std::vector<bool> placed(items.size(), false);
  ChunkPacker packer(input.options->chunk_capacity_bytes,
                     input.options->chunk_overflow_fraction);

  // Chunk a ψ group: exclusives keyed by chain length, longest first. A
  // fresh chunk opens per version (§3.2); the placed[] guard absorbs the
  // duplicates the union approximation can produce on branched trees.
  auto chunk_exclusives = [&](std::map<uint32_t, Level>& by_length) {
    bool opened = false;
    for (auto it = by_length.rbegin(); it != by_length.rend(); ++it) {
      for (uint32_t item : it->second) {
        if (placed[item]) continue;
        placed[item] = true;
        if (!opened) {
          packer.StartNewChunk();
          opened = true;
        }
        packer.Add(item, items[item].bytes);
      }
    }
  };

  struct Frame {
    VersionId v;
    size_t next_child = 0;
    bool entered = false;
    Pi merged;  // shifted child levels
    // Exclusives grouped child-major, then by chain length: records dying in
    // different child subtrees must not share chunks (they are never
    // co-retrieved), so each child's groups are chunked separately.
    std::vector<std::map<uint32_t, Level>> exclusives_per_child;
    bool merged_needs_dedup = false;
  };
  std::vector<Frame> stack;
  stack.push_back({0, 0, false, {}, {}, false});
  Pi result_pi;  // π returned by the frame that just popped

  while (!stack.empty()) {
    Frame& frame = stack.back();
    VersionId v = frame.v;
    if (!frame.entered) frame.entered = true;

    const auto& children = graph.children(v);
    if (frame.next_child > 0) {
      // A child just returned result_pi: fold it in.
      VersionId child = children[frame.next_child - 1];
      const Level& child_added = index.added[child];
      auto in_added = [&](uint32_t item) {
        return std::binary_search(child_added.begin(), child_added.end(),
                                  item);
      };
      bool multi_child = children.size() > 1;
      frame.exclusives_per_child.emplace_back();
      std::map<uint32_t, Level>& child_exclusives =
          frame.exclusives_per_child.back();
      for (size_t j = 0; j < result_pi.size(); ++j) {
        for (uint32_t item : result_pi[j]) {
          if (in_added(item)) {
            // Exclusive to the subtree below v: chain of length j+1.
            child_exclusives[static_cast<uint32_t>(j + 1)].push_back(item);
          } else {
            // Survives into v: chain of length j+2 starting at v.
            if (frame.merged.size() < j + 2) frame.merged.resize(j + 2);
            frame.merged[j + 1].push_back(item);
          }
        }
      }
      if (multi_child) frame.merged_needs_dedup = true;
      result_pi.clear();
    }

    if (frame.next_child < children.size()) {
      VersionId child = children[frame.next_child++];
      stack.push_back({child, 0, false, {}, {}, false});
      continue;
    }

    // All children folded: finish this version.
    for (auto& child_exclusives : frame.exclusives_per_child) {
      chunk_exclusives(child_exclusives);
    }

    Pi pi = std::move(frame.merged);
    if (frame.merged_needs_dedup) {
      for (Level& level : pi) SortUnique(&level);
    }
    if (children.empty()) {
      // Leaf: S¹ = everything present in the leaf.
      pi.clear();
      pi.push_back(index.leaf_items[v]);
    } else {
      // S¹_v = ∪_c ∆⁻(c).
      Level s1;
      for (VersionId child : children) {
        s1.insert(s1.end(), index.removed[child].begin(),
                  index.removed[child].end());
      }
      if (children.size() > 1) SortUnique(&s1);
      pi.push_front(std::move(s1));
    }
    EnforceSubtreeLimit(&pi, input.options->subtree_limit);

    if (v == 0) {
      // Root: chunk everything that remains, longest chains first.
      packer.StartNewChunk();
      for (auto it = pi.rbegin(); it != pi.rend(); ++it) {
        for (uint32_t item : *it) {
          if (placed[item]) continue;
          placed[item] = true;
          packer.Add(item, items[item].bytes);
        }
      }
      stack.pop_back();
    } else {
      result_pi = std::move(pi);
      stack.pop_back();
    }
  }

  // Defensive sweep: an item present in no version at all would never flow
  // through the traversal.
  for (uint32_t i = 0; i < items.size(); ++i) {
    if (!placed[i]) packer.Add(i, items[i].bytes);
  }
  return packer.Finish(/*merge_partials=*/true);
}

}  // namespace rstore

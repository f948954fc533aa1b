#include "core/sub_chunk_builder.h"

#include <algorithm>
#include <map>
#include <thread>
#include <unordered_map>

#include "common/parallel.h"

namespace rstore {

namespace {

/// One record version of a primary key, linked to the record it superseded.
struct RecordNode {
  CompositeKey ck;
  int parent = -1;
  std::vector<int> children;
};

/// The per-key record forest.
struct KeyForest {
  std::vector<RecordNode> nodes;
  std::vector<int> roots;
};

/// Emits `component` (node ids, component root first in parent-before-child
/// order) as one sub-chunk.
Status EmitComponent(const KeyForest& forest, const std::vector<int>& component,
                     const RecordPayloadMap& payloads,
                     const RecordVersionMap& record_versions,
                     const Options& options, SubChunkBuildResult* out) {
  std::vector<SubChunk::Member> members;
  members.reserve(component.size());
  std::unordered_map<int, uint32_t> position;
  for (int node_id : component) {
    const RecordNode& node = forest.nodes[node_id];
    auto pit = payloads.find(node.ck);
    if (pit == payloads.end()) {
      return Status::InvalidArgument("missing payload for " +
                                     node.ck.ToString());
    }
    SubChunk::Member m;
    m.key = node.ck;
    uint32_t pos = static_cast<uint32_t>(members.size());
    auto parent_pos = position.find(node.parent);
    m.parent_index =
        (pos == 0 || parent_pos == position.end()) ? 0 : parent_pos->second;
    if (pos == 0) m.parent_index = 0;
    m.payload = pit->second;
    position.emplace(node_id, pos);
    members.push_back(std::move(m));
  }
  auto sc = SubChunk::Build(std::move(members), options.compression);
  if (!sc.ok()) return sc.status();

  PlacementItem item;
  item.id = sc->id();
  item.origin_version = sc->id().version;
  // Union of the member records' version sets.
  for (const CompositeKey& ck : sc->keys()) {
    auto vit = record_versions.find(ck);
    if (vit != record_versions.end()) {
      item.versions.insert(item.versions.end(), vit->second.begin(),
                           vit->second.end());
    }
  }
  std::sort(item.versions.begin(), item.versions.end());
  item.versions.erase(
      std::unique(item.versions.begin(), item.versions.end()),
      item.versions.end());
  item.bytes = sc->serialized_size();

  out->sub_chunks.push_back(*std::move(sc));
  out->items.push_back(std::move(item));
  return Status::OK();
}

/// Carves the record tree under `node_id` into connected components of at
/// most k records (greedy bottom-up; see header). Returns the component
/// containing `node_id` if it has not been emitted yet, in parent-first
/// order.
Status Carve(const KeyForest& forest, int node_id, uint32_t k,
             const RecordPayloadMap& payloads,
             const RecordVersionMap& record_versions, const Options& options,
             SubChunkBuildResult* out, std::vector<int>* component) {
  std::vector<std::vector<int>> child_components;
  for (int child : forest.nodes[node_id].children) {
    std::vector<int> cc;
    RSTORE_RETURN_IF_ERROR(Carve(forest, child, k, payloads, record_versions,
                                 options, out, &cc));
    if (!cc.empty()) child_components.push_back(std::move(cc));
  }
  size_t total = 1;
  for (const auto& cc : child_components) total += cc.size();
  // Cut the largest child components off until the rest fits with the node.
  std::sort(child_components.begin(), child_components.end(),
            [](const auto& a, const auto& b) { return a.size() > b.size(); });
  size_t cut = 0;
  while (total > k && cut < child_components.size()) {
    RSTORE_RETURN_IF_ERROR(EmitComponent(forest, child_components[cut],
                                         payloads, record_versions, options,
                                         out));
    total -= child_components[cut].size();
    ++cut;
  }
  component->clear();
  component->push_back(node_id);
  for (size_t i = cut; i < child_components.size(); ++i) {
    component->insert(component->end(), child_components[i].begin(),
                      child_components[i].end());
  }
  if (component->size() == k) {
    RSTORE_RETURN_IF_ERROR(EmitComponent(forest, *component, payloads,
                                         record_versions, options, out));
    component->clear();
  }
  return Status::OK();
}

}  // namespace

uint64_t SubChunkBuildResult::total_compressed_bytes() const {
  uint64_t total = 0;
  for (const PlacementItem& item : items) total += item.bytes;
  return total;
}

uint64_t SubChunkBuildResult::total_uncompressed_bytes() const {
  uint64_t total = 0;
  for (const SubChunk& sc : sub_chunks) total += sc.uncompressed_bytes();
  return total;
}

double SubChunkBuildResult::compression_ratio() const {
  uint64_t compressed = total_compressed_bytes();
  if (compressed == 0) return 1.0;
  return static_cast<double>(total_uncompressed_bytes()) /
         static_cast<double>(compressed);
}

unsigned CarveWorkers(size_t records, uint32_t ingest_shards, unsigned cores) {
  const unsigned limit = ingest_shards == 0 ? cores
                                            : std::min(ingest_shards, cores);
  return static_cast<unsigned>(std::max<size_t>(
      1, std::min<size_t>(limit, records / kCarveGrainRecords)));
}

Result<SubChunkBuildResult> BuildSubChunks(
    const VersionedDataset& dataset, const RecordPayloadMap& payloads,
    const RecordVersionMap& record_versions, const Options& options) {
  if (!dataset.graph.IsTree()) {
    return Status::InvalidArgument(
        "sub-chunk construction requires a version tree");
  }
  const uint32_t k = std::max<uint32_t>(1, options.max_sub_chunk_records);
  SubChunkBuildResult out;
  out.sub_chunks.reserve(record_versions.size() / k + 1);

  if (options.algorithm == PartitionAlgorithm::kDeltaBaseline) {
    // Record-level compression for the DELTA layout (paper Table 1): each
    // record is its own unit, delta-encoded against the record it
    // supersedes, which lives in an ancestor version's delta object. The
    // base payload may be unavailable for the oldest records of an online
    // batch; those are stored whole.
    for (VersionId v = 0; v < dataset.graph.size(); ++v) {
      const VersionDelta& delta = dataset.deltas[v];
      std::unordered_map<std::string, const CompositeKey*> removed_by_key;
      for (const CompositeKey& ck : delta.removed) {
        removed_by_key.emplace(ck.key, &ck);
      }
      for (const CompositeKey& ck : delta.added) {
        auto pit = payloads.find(ck);
        if (pit == payloads.end()) {
          return Status::InvalidArgument("missing payload for " +
                                         ck.ToString());
        }
        SubChunk::Member member;
        member.key = ck;
        member.payload = pit->second;
        auto rit = removed_by_key.find(ck.key);
        if (rit != removed_by_key.end()) {
          auto base = payloads.find(*rit->second);
          if (base != payloads.end()) {
            member.external_parent = *rit->second;
            member.external_parent_payload = base->second;
          }
        }
        auto sc = SubChunk::Build({std::move(member)}, options.compression);
        if (!sc.ok()) return sc.status();
        PlacementItem item;
        item.id = ck;
        item.origin_version = v;
        auto vit = record_versions.find(ck);
        if (vit != record_versions.end()) item.versions = vit->second;
        item.bytes = sc->serialized_size();
        out.sub_chunks.push_back(*std::move(sc));
        out.items.push_back(std::move(item));
      }
    }
    return out;
  }

  // Build the per-key record forests from the deltas: an added 〈K,Vc〉 with
  // a matching removed 〈K,Vp〉 in the same delta supersedes that record.
  std::map<std::string, KeyForest> forests;
  std::unordered_map<CompositeKey, int, CompositeKeyHash> node_of;
  for (VersionId v = 0; v < dataset.graph.size(); ++v) {
    const VersionDelta& delta = dataset.deltas[v];
    std::unordered_map<std::string, const CompositeKey*> removed_by_key;
    for (const CompositeKey& ck : delta.removed) {
      removed_by_key.emplace(ck.key, &ck);
    }
    for (const CompositeKey& ck : delta.added) {
      KeyForest& forest = forests[ck.key];
      int id = static_cast<int>(forest.nodes.size());
      RecordNode node;
      node.ck = ck;
      auto rit = removed_by_key.find(ck.key);
      if (rit != removed_by_key.end()) {
        auto pit = node_of.find(*rit->second);
        if (pit != node_of.end()) {
          node.parent = pit->second;
          forest.nodes[pit->second].children.push_back(id);
        }
      }
      if (node.parent < 0) forest.roots.push_back(id);
      node_of.emplace(ck, id);
      forest.nodes.push_back(std::move(node));
    }
  }

  // Contiguous blocks of sorted keys are carved into private slots, then the
  // slots are concatenated in block order. Every key's emission is
  // self-contained (Carve/EmitComponent only read shared state), so the
  // output is byte-identical at any thread count. Blocks (a handful per
  // thread, not one per key) keep the dispatch overhead negligible next to
  // the per-key carve + compression work. A drain-sized batch carves on the
  // calling thread (see kCarveGrainRecords).
  std::vector<const KeyForest*> forest_list;
  forest_list.reserve(forests.size());
  for (const auto& [key, forest] : forests) forest_list.push_back(&forest);
  const size_t n = forest_list.size();
  const unsigned threads =
      CarveWorkers(node_of.size(), options.ingest_shards,
                   std::max(1u, std::thread::hardware_concurrency()));
  const size_t num_blocks =
      std::min<size_t>(n, static_cast<size_t>(threads) * 8);
  std::vector<SubChunkBuildResult> slots(num_blocks);
  std::vector<Status> statuses(num_blocks, Status::OK());
  ParallelFor(
      num_blocks,
      [&](size_t b) {
        const size_t begin = b * n / num_blocks;
        const size_t end = (b + 1) * n / num_blocks;
        for (size_t i = begin; i < end; ++i) {
          const KeyForest& forest = *forest_list[i];
          for (int root : forest.roots) {
            std::vector<int> component;
            Status s = Carve(forest, root, k, payloads, record_versions,
                             options, &slots[b], &component);
            if (s.ok() && !component.empty()) {
              s = EmitComponent(forest, component, payloads, record_versions,
                                options, &slots[b]);
            }
            if (!s.ok()) {
              statuses[b] = s;
              return;
            }
          }
        }
      },
      threads);
  for (size_t b = 0; b < num_blocks; ++b) {
    RSTORE_RETURN_IF_ERROR(statuses[b]);
    for (SubChunk& sc : slots[b].sub_chunks) {
      out.sub_chunks.push_back(std::move(sc));
    }
    for (PlacementItem& item : slots[b].items) {
      out.items.push_back(std::move(item));
    }
  }
  return out;
}

}  // namespace rstore

#include "version/dataset.h"

#include <algorithm>
#include <type_traits>

#include "common/logging.h"

namespace rstore {

Status VersionedDataset::Validate() const {
  if (graph.size() != deltas.size()) {
    return Status::InvalidArgument("graph/delta count mismatch");
  }
  if (graph.empty()) return Status::OK();
  if (!deltas[0].removed.empty()) {
    return Status::InvalidArgument("root delta cannot remove records");
  }

  // DFS over the primary tree with a running membership keyed by primary
  // key: checks every delta against the actual parent membership, and that
  // each version holds at most one record per key, in O(total membership).
  std::unordered_map<std::string_view, const CompositeKey*> current;

  // Iterative DFS with explicit apply/undo framing.
  struct Frame {
    VersionId v;
    size_t next_child = 0;
    bool entered = false;
  };
  std::vector<Frame> stack{{0, 0, false}};
  while (!stack.empty()) {
    Frame& frame = stack.back();
    VersionId v = frame.v;
    if (!frame.entered) {
      frame.entered = true;
      const VersionDelta& delta = deltas[v];
      Status s = delta.CheckConsistent();
      if (!s.ok()) return s;
      for (const CompositeKey& ck : delta.removed) {
        auto it = current.find(ck.key);
        if (it == current.end() || *it->second != ck) {
          return Status::InvalidArgument(
              "delta of V" + std::to_string(v) + " removes absent record " +
              ck.ToString());
        }
        current.erase(it);
      }
      for (const CompositeKey& ck : delta.added) {
        // Native adds originate here; foreign (merge-arrival) adds must come
        // from an ancestor in the DAG.
        if (ck.version != v && !graph.IsAncestor(ck.version, v)) {
          return Status::InvalidArgument(
              "delta of V" + std::to_string(v) + " adds record " +
              ck.ToString() + " from a non-ancestor version");
        }
        auto [it, inserted] = current.emplace(ck.key, &ck);
        if (!inserted) {
          return Status::InvalidArgument(
              "delta of V" + std::to_string(v) + " adds " + ck.ToString() +
              " but V" + std::to_string(v) + " already holds " +
              it->second->ToString());
        }
      }
    }
    // Descend into primary children only (the membership tree).
    const auto& children = graph.children(v);
    bool descended = false;
    while (frame.next_child < children.size()) {
      VersionId child = children[frame.next_child++];
      if (graph.PrimaryParent(child) == v) {
        stack.push_back({child, 0, false});
        descended = true;
        break;
      }
    }
    if (descended) continue;
    // Exit: undo the delta.
    const VersionDelta& delta = deltas[v];
    for (const CompositeKey& ck : delta.added) current.erase(ck.key);
    for (const CompositeKey& ck : delta.removed) current.emplace(ck.key, &ck);
    stack.pop_back();
  }
  return Status::OK();
}

VersionMembership VersionedDataset::MaterializeVersion(VersionId v) const {
  RSTORE_CHECK(v < graph.size());
  VersionMembership members;
  for (VersionId step : graph.PathFromRoot(v)) {
    const VersionDelta& delta = deltas[step];
    for (const CompositeKey& ck : delta.removed) members.erase(ck);
    for (const CompositeKey& ck : delta.added) members.insert(ck);
  }
  return members;
}

RecordVersionMap VersionedDataset::BuildRecordVersionMap() const {
  RecordVersionMap map;
  if (graph.empty()) return map;
  // DFS over the primary tree with a running set; on entering v, every
  // member of the running set belongs to v.
  VersionMembership current;
  struct Frame {
    VersionId v;
    size_t next_child = 0;
    bool entered = false;
  };
  std::vector<Frame> stack{{0, 0, false}};
  while (!stack.empty()) {
    Frame& frame = stack.back();
    VersionId v = frame.v;
    if (!frame.entered) {
      frame.entered = true;
      const VersionDelta& delta = deltas[v];
      for (const CompositeKey& ck : delta.removed) current.erase(ck);
      for (const CompositeKey& ck : delta.added) current.insert(ck);
      for (const CompositeKey& ck : current) map[ck].push_back(v);
    }
    const auto& children = graph.children(v);
    bool descended = false;
    while (frame.next_child < children.size()) {
      VersionId child = children[frame.next_child++];
      if (graph.PrimaryParent(child) == v) {
        stack.push_back({child, 0, false});
        descended = true;
        break;
      }
    }
    if (descended) continue;
    const VersionDelta& delta = deltas[v];
    for (const CompositeKey& ck : delta.added) current.erase(ck);
    for (const CompositeKey& ck : delta.removed) current.insert(ck);
    stack.pop_back();
  }
  // DFS visits children in increasing-id order from any node, but sibling
  // subtrees can interleave id ranges; sort each list.
  for (auto& [ck, versions] : map) {
    std::sort(versions.begin(), versions.end());
  }
  return map;
}

uint64_t VersionedDataset::CountDistinctRecords() const {
  uint64_t count = 0;
  for (const VersionDelta& delta : deltas) count += delta.added.size();
  return count;
}

uint64_t VersionedDataset::TotalMembership() const {
  // Membership of v = membership of parent - removed + added; accumulate
  // along the primary tree.
  if (graph.empty()) return 0;
  std::vector<uint64_t> size(graph.size(), 0);
  uint64_t total = 0;
  for (VersionId v = 0; v < graph.size(); ++v) {
    uint64_t parent_size =
        graph.PrimaryParent(v) == kInvalidVersion
            ? 0
            : size[graph.PrimaryParent(v)];
    size[v] = parent_size + deltas[v].added.size() - deltas[v].removed.size();
    total += size[v];
  }
  return total;
}

// The cursor keeps pointers into deltas[v].added/removed across appends:
// they survive the outer vector's reallocation only because it moves each
// delta (taking over its element buffers) instead of copying it.
static_assert(std::is_nothrow_move_constructible_v<VersionDelta>);

void MembershipCursor::Reset() {
  version_ = kInvalidVersion;
  members_.clear();
}

void MembershipCursor::MoveTo(VersionId target) {
  const VersionGraph& graph = dataset_->graph;
  RSTORE_CHECK(target < graph.size());
  if (target == version_) return;
  auto delta_size = [this](VersionId v) {
    const VersionDelta& delta = dataset_->deltas[v];
    return delta.added.size() + delta.removed.size();
  };
  down_.clear();
  VersionId up = version_;
  VersionId down = target;
  bool replay = version_ == kInvalidVersion;
  if (!replay) {
    // Climb from both ends to the common ancestor (ids are topological, so
    // the larger id is never the ancestor), pricing the undo side.
    size_t undo_cost = 0;
    while (up != down) {
      if (up > down) {
        undo_cost += delta_size(up);
        up = graph.PrimaryParent(up);
      } else {
        down_.push_back(down);
        down = graph.PrimaryParent(down);
      }
    }
    // A replay clears the members and re-applies root -> ancestor instead;
    // stop pricing it as soon as it loses.
    size_t replay_cost = members_.size();
    for (VersionId v = up; v != kInvalidVersion && replay_cost <= undo_cost;
         v = graph.PrimaryParent(v)) {
      replay_cost += delta_size(v);
    }
    replay = replay_cost <= undo_cost;
  }
  if (replay) {
    for (; down != kInvalidVersion; down = graph.PrimaryParent(down)) {
      down_.push_back(down);
    }
    members_.clear();
  } else {
    for (VersionId v = version_; v != up; v = graph.PrimaryParent(v)) Undo(v);
  }
  for (auto it = down_.rbegin(); it != down_.rend(); ++it) Apply(*it);
  version_ = target;
}

void MembershipCursor::Apply(VersionId v) {
  const VersionDelta& delta = dataset_->deltas[v];
  for (const CompositeKey& ck : delta.removed) members_.erase(ck.key);
  for (const CompositeKey& ck : delta.added) members_[ck.key] = &ck;
}

void MembershipCursor::Undo(VersionId v) {
  const VersionDelta& delta = dataset_->deltas[v];
  for (const CompositeKey& ck : delta.added) members_.erase(ck.key);
  for (const CompositeKey& ck : delta.removed) members_[ck.key] = &ck;
}

}  // namespace rstore

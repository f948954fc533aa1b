// Folds the span trees the program emits (TraceContext) into per-span-name
// self time: a span's wall duration minus the part of its interval that its
// children cover. Summed over a tree, self times give back the root's
// duration exactly when children nest inside their parents without
// overlapping; FoldSpans counts the trees that miss it.

#ifndef PERFBENCH_SPAN_FOLD_H_
#define PERFBENCH_SPAN_FOLD_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/trace.h"

namespace perfbench {

struct SpanFold {
  /// Self wall time and span count per span name.
  std::map<std::string, double> self_us;
  std::map<std::string, uint64_t> count;
  /// Σ root wall durations, and Σ self over every span of those trees.
  double root_us = 0;
  double self_sum_us = 0;
  uint64_t roots = 0;
  /// Roots whose tree's self times miss the root duration by more than
  /// max(2 µs, 3 %) — children escaping or overlapping their parent.
  uint64_t unreconciled_roots = 0;

  double self(const std::string& name) const {
    auto it = self_us.find(name);
    return it == self_us.end() ? 0.0 : it->second;
  }
  uint64_t spans(const std::string& name) const {
    auto it = count.find(name);
    return it == count.end() ? 0 : it->second;
  }
  /// Self time of every span whose name starts with `prefix`.
  double self_with_prefix(const std::string& prefix) const {
    double sum = 0;
    for (const auto& [name, us] : self_us) {
      if (name.compare(0, prefix.size(), prefix) == 0) sum += us;
    }
    return sum;
  }
};

/// The per-node children of a MultiGet are simulated-clock spans of zero
/// wall length; they fold under one name instead of one per node.
inline std::string FoldedName(const std::string& name) {
  if (name.compare(0, 4, "node") == 0) return "kvs.node";
  return name;
}

/// Adds one closed span tree (or forest) to `fold`.
inline void FoldSpans(const std::vector<rstore::TraceSpan>& spans,
                      SpanFold* fold) {
  const size_t n = spans.size();
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(n);
  for (const rstore::TraceSpan& s : spans) {
    if (s.parent != rstore::TraceSpan::kNoParent && s.parent < n) {
      children[s.parent].emplace_back(s.wall_start_us, s.wall_end_us);
    }
  }
  std::vector<double> self(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const rstore::TraceSpan& s = spans[i];
    // Union of the children's intervals, clipped to this span.
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cursor = s.wall_start_us;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, cursor);
      hi = std::min(hi, s.wall_end_us);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = static_cast<double>(s.wall_duration_us() - covered);
    const std::string name = FoldedName(s.name);
    fold->self_us[name] += self[i];
    fold->count[name] += 1;
  }
  // Per-root reconciliation: Σ self over the tree vs the root's duration.
  std::vector<size_t> root_of(n, 0);
  std::map<size_t, double> tree_self;
  for (size_t i = 0; i < n; ++i) {
    const rstore::TraceSpan& s = spans[i];
    // Parents precede children, so the parent's root is already known.
    root_of[i] = (s.parent == rstore::TraceSpan::kNoParent || s.parent >= n)
                     ? i
                     : root_of[s.parent];
    tree_self[root_of[i]] += self[i];
  }
  for (const auto& [root, sum] : tree_self) {
    const double duration = static_cast<double>(spans[root].wall_duration_us());
    fold->roots += 1;
    fold->root_us += duration;
    fold->self_sum_us += sum;
    if (std::abs(sum - duration) > std::max(2.0, 0.03 * duration)) {
      fold->unreconciled_roots += 1;
    }
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_FOLD_H_

#ifndef RSTORE_COMMON_TRACE_H_
#define RSTORE_COMMON_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rstore {

/// One node of a query's span tree. Spans carry two clocks:
///   - wall time: microseconds since the context was created (steady clock),
///     i.e. what the process actually spent;
///   - simulated time: the LatencyModel's modeled backend cost, advanced
///     explicitly by the code that charges it (see TraceContext::AdvanceSim).
/// The two diverge by design — the simulator executes a 4-node MultiGet
/// serially in wall time but charges only the slowest node's share — and
/// seeing both side by side is the point of the exporter's two tracks.
struct TraceSpan {
  static constexpr uint32_t kNoParent = 0xffffffffu;

  uint32_t id = 0;
  uint32_t parent = kNoParent;
  uint32_t depth = 0;
  std::string name;
  /// Free-form key/value annotations (counts, byte totals, node ids).
  std::vector<std::pair<std::string, std::string>> attributes;
  int64_t wall_start_us = 0;
  int64_t wall_end_us = 0;
  uint64_t sim_start_us = 0;
  uint64_t sim_end_us = 0;

  int64_t wall_duration_us() const { return wall_end_us - wall_start_us; }
  uint64_t sim_duration_us() const { return sim_end_us - sim_start_us; }
};

/// Collects the span tree of one traced operation (a query, a flush).
///
/// NOT thread-safe: a context belongs to the thread running the traced
/// operation, and spans must close LIFO (scoped usage via ScopedSpan
/// guarantees this). Code that fans work out (ParallelFor sub-chunk
/// carving, simulated per-node service) records child work either from the
/// coordinating thread or via AddSimulatedSpan with explicit timestamps.
///
/// The simulated clock starts at 0 and only moves when instrumented code
/// charges modeled time (Cluster does this for every request), so a span's
/// sim_duration is exactly the modeled backend cost incurred within it.
class TraceContext {
 public:
  TraceContext();
  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  /// Opens a span as a child of the innermost open span (or a root).
  /// Returns its id. Prefer ScopedSpan.
  uint32_t StartSpan(std::string name);

  /// Closes `id`, stamping wall/simulated end times. Spans close LIFO.
  void EndSpan(uint32_t id);

  /// Attaches a key/value annotation to an open or closed span.
  void Annotate(uint32_t id, std::string key, std::string value);

  /// Records an already-completed child of the innermost open span covering
  /// the explicit simulated interval [sim_start, sim_end] — how simulated-
  /// parallel work (per-node MultiGet shares) enters the tree: all siblings
  /// start at the same simulated instant even though the coordinator
  /// executed them serially in wall time.
  uint32_t AddSimulatedSpan(std::string name, uint64_t sim_start_us,
                            uint64_t sim_end_us);

  /// The simulated clock. Advance only with modeled cost actually charged
  /// (keep it reconciled with KVStats::simulated_micros deltas).
  uint64_t sim_now_us() const { return sim_now_us_; }
  void AdvanceSim(uint64_t micros) { sim_now_us_ += micros; }

  /// Wall microseconds since this context was created.
  int64_t WallNowMicros() const;

  /// Every span recorded so far, in creation order (parents before
  /// children). Open spans have wall_end_us == sim_end_us == 0 stamps
  /// pending; export only after the tree is fully closed.
  const std::vector<TraceSpan>& spans() const { return spans_; }

  /// Chrome trace-event JSON (load via about://tracing or Perfetto).
  /// Each span becomes two complete ("ph":"X") events: one on the
  /// "wall clock" process track and one on the "simulated clock" track.
  std::string ToChromeTraceJson() const;

  /// Human-readable indented tree with both durations per span.
  std::string ToDebugString() const;

 private:
  std::vector<TraceSpan> spans_;
  std::vector<uint32_t> open_;  // innermost last
  uint64_t sim_now_us_ = 0;
  int64_t wall_base_us_ = 0;  // steady-clock origin of this context
};

/// RAII span. A null context makes every operation a no-op, so hot paths
/// stay branch-cheap when tracing is off:
///
///   ScopedSpan span(trace, "query.fetch_chunks");   // trace may be null
///   span.Annotate("chunks", std::to_string(ids.size()));
class ScopedSpan {
 public:
  ScopedSpan(TraceContext* context, const char* name)
      : context_(context),
        id_(context == nullptr ? TraceSpan::kNoParent
                               : context->StartSpan(name)) {}
  ~ScopedSpan() { End(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Closes the span early (e.g. sequential phases in one scope); the
  /// destructor then does nothing. Idempotent.
  void End() {
    if (context_ != nullptr) context_->EndSpan(id_);
    context_ = nullptr;
  }

  void Annotate(const std::string& key, std::string value) {
    if (context_ != nullptr) context_->Annotate(id_, key, std::move(value));
  }

  TraceContext* context() const { return context_; }
  uint32_t id() const { return id_; }

 private:
  TraceContext* context_;
  uint32_t id_;
};

}  // namespace rstore

#endif  // RSTORE_COMMON_TRACE_H_

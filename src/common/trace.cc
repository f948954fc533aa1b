#include "common/trace.h"

#include <chrono>

#include "common/logging.h"
#include "common/string_util.h"

namespace rstore {

namespace {

int64_t SteadyNowMicros() {
  // Span timestamps are observability-only: they annotate traces with real
  // elapsed time and never feed scheduling, retries, or chaos decisions, so
  // reading the clock here cannot perturb deterministic replay.
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now()  // analyze:allow-sim-clock-purity
                 .time_since_epoch())
      .count();
}

/// One complete ("X") trace event. Chrome nests same-track events by
/// timestamp containment, so parent/child structure survives the flattening.
void AppendCompleteEvent(std::string* out, const TraceSpan& span, int pid,
                         int64_t ts, int64_t dur) {
  *out += StringPrintf(
      "{\"name\":\"%s\",\"cat\":\"rstore\",\"ph\":\"X\",\"pid\":%d,"
      "\"tid\":1,\"ts\":%lld,\"dur\":%lld,\"args\":{",
      JsonEscape(span.name).c_str(), pid, (long long)ts, (long long)dur);
  *out += StringPrintf("\"span_id\":%u", span.id);
  if (span.parent != TraceSpan::kNoParent) {
    *out += StringPrintf(",\"parent_id\":%u", span.parent);
  }
  for (const auto& [key, value] : span.attributes) {
    *out += StringPrintf(",\"%s\":\"%s\"", JsonEscape(key).c_str(),
                         JsonEscape(value).c_str());
  }
  *out += "}}";
}

}  // namespace

TraceContext::TraceContext() : wall_base_us_(SteadyNowMicros()) {}

int64_t TraceContext::WallNowMicros() const {
  return SteadyNowMicros() - wall_base_us_;
}

uint32_t TraceContext::StartSpan(std::string name) {
  TraceSpan span;
  span.id = static_cast<uint32_t>(spans_.size());
  if (!open_.empty()) {
    span.parent = open_.back();
    span.depth = spans_[span.parent].depth + 1;
  }
  span.name = std::move(name);
  span.wall_start_us = WallNowMicros();
  span.sim_start_us = sim_now_us_;
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void TraceContext::EndSpan(uint32_t id) {
  RSTORE_CHECK(id < spans_.size()) << "unknown span id " << id;
  RSTORE_DCHECK(!open_.empty() && open_.back() == id)
      << "spans must close LIFO; closing " << id << " while "
      << (open_.empty() ? -1 : static_cast<int>(open_.back()))
      << " is innermost";
  // Release builds recover from mis-nesting by force-closing intervening
  // spans instead of corrupting the open stack.
  while (!open_.empty()) {
    uint32_t innermost = open_.back();
    open_.pop_back();
    spans_[innermost].wall_end_us = WallNowMicros();
    spans_[innermost].sim_end_us = sim_now_us_;
    if (innermost == id) break;
  }
}

void TraceContext::Annotate(uint32_t id, std::string key, std::string value) {
  RSTORE_CHECK(id < spans_.size()) << "unknown span id " << id;
  spans_[id].attributes.emplace_back(std::move(key), std::move(value));
}

uint32_t TraceContext::AddSimulatedSpan(std::string name,
                                        uint64_t sim_start_us,
                                        uint64_t sim_end_us) {
  RSTORE_DCHECK(sim_start_us <= sim_end_us);
  TraceSpan span;
  span.id = static_cast<uint32_t>(spans_.size());
  if (!open_.empty()) {
    span.parent = open_.back();
    span.depth = spans_[span.parent].depth + 1;
  }
  span.name = std::move(name);
  const int64_t wall_now = WallNowMicros();
  span.wall_start_us = wall_now;
  span.wall_end_us = wall_now;
  span.sim_start_us = sim_start_us;
  span.sim_end_us = sim_end_us;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::string TraceContext::ToChromeTraceJson() const {
  std::string out = "{\"traceEvents\":[";
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"wall clock\"}},"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,"
      "\"args\":{\"name\":\"simulated clock\"}}";
  for (const TraceSpan& span : spans_) {
    out += ",";
    AppendCompleteEvent(&out, span, /*pid=*/1, span.wall_start_us,
                        span.wall_duration_us());
    out += ",";
    AppendCompleteEvent(&out, span, /*pid=*/2,
                        static_cast<int64_t>(span.sim_start_us),
                        static_cast<int64_t>(span.sim_duration_us()));
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

std::string TraceContext::ToDebugString() const {
  std::string out;
  for (const TraceSpan& span : spans_) {
    out += StringPrintf("%*s%s  sim=%lluus wall=%lldus", span.depth * 2, "",
                        span.name.c_str(),
                        (unsigned long long)span.sim_duration_us(),
                        (long long)span.wall_duration_us());
    for (const auto& [key, value] : span.attributes) {
      out += StringPrintf("  %s=%s", key.c_str(), value.c_str());
    }
    out += "\n";
  }
  return out;
}

}  // namespace rstore

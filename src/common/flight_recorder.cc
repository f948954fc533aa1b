#include "common/flight_recorder.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace rstore {

namespace {

void AppendRecordJson(const FlightRecord& r, std::string* out) {
  *out += StringPrintf(
      "{\"id\":%llu,\"name\":\"%s\",\"status\":\"%s\","
      "\"total_us\":%llu,\"queue_wait_us\":%llu,\"service_us\":%llu,"
      "\"retry_penalty_us\":%llu,\"hedge_delta_us\":%llu,"
      "\"retries\":%llu,\"hedges\":%llu,\"hedge_wins\":%llu,"
      "\"timeouts\":%llu,\"missing_chunks\":%llu",
      (unsigned long long)r.id, JsonEscape(r.name).c_str(),
      JsonEscape(r.status).c_str(),
      (unsigned long long)r.latency.simulated_micros,
      (unsigned long long)r.latency.queue_wait_us,
      (unsigned long long)r.latency.service_us,
      (unsigned long long)r.latency.retry_penalty_us,
      (unsigned long long)r.latency.hedge_delta_us,
      (unsigned long long)r.retries,
      (unsigned long long)r.hedges, (unsigned long long)r.hedge_wins,
      (unsigned long long)r.timeouts, (unsigned long long)r.missing_chunks);
  *out += ",\"degradation\":[";
  for (size_t i = 0; i < r.degradation.size(); ++i) {
    *out += StringPrintf("%s\"%s\"", i == 0 ? "" : ",",
                         JsonEscape(r.degradation[i]).c_str());
  }
  *out += "],\"spans\":[";
  for (size_t i = 0; i < r.spans.size(); ++i) {
    const FlightSpan& span = r.spans[i];
    *out += StringPrintf(
        "%s{\"name\":\"%s\",\"depth\":%u,\"sim_start_us\":%llu,"
        "\"sim_end_us\":%llu}",
        i == 0 ? "" : ",", JsonEscape(span.name).c_str(), span.depth,
        (unsigned long long)span.sim_start_us,
        (unsigned long long)span.sim_end_us);
  }
  *out += "]}";
}

}  // namespace

FlightRecorder::FlightRecorder(const FlightRecorderOptions& options)
    : options_(options) {
  RSTORE_CHECK(options_.ring_size > 0);
  RSTORE_CHECK(options_.slowest_size > 0);
  RSTORE_CHECK(options_.sample_ring_size > 0);
  MutexLock lock(mu_);
  recent_.resize(options_.ring_size);
  samples_.resize(options_.sample_ring_size);
  slowest_.reserve(options_.slowest_size);
}

FlightRecorder& FlightRecorder::Default() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::Record(FlightRecord record) {
  MutexLock lock(mu_);
  // Slowest-N selection first (the ring steals the record afterwards).
  // Strictly-greater comparison keeps the earliest of tied records.
  auto slower = [](const FlightRecord& a, const FlightRecord& b) {
    return a.latency.simulated_micros > b.latency.simulated_micros;
  };
  if (slowest_.size() < options_.slowest_size) {
    slowest_.push_back(record);
    std::stable_sort(slowest_.begin(), slowest_.end(), slower);
  } else if (slower(record, slowest_.back())) {
    slowest_.back() = record;
    std::stable_sort(slowest_.begin(), slowest_.end(), slower);
  }
  recent_[recent_pos_] = std::move(record);
  recent_pos_ = (recent_pos_ + 1) % recent_.size();
  ++recent_seen_;
}

void FlightRecorder::AddSample(const FlightSample& sample) {
  MutexLock lock(mu_);
  samples_[sample_pos_] = sample;
  sample_pos_ = (sample_pos_ + 1) % samples_.size();
  ++samples_seen_;
}

std::vector<FlightRecord> FlightRecorder::Recent() const {
  MutexLock lock(mu_);
  const size_t n = std::min<uint64_t>(recent_seen_, recent_.size());
  std::vector<FlightRecord> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // Newest first: walk backwards from the write cursor.
    const size_t idx = (recent_pos_ + recent_.size() - 1 - i) % recent_.size();
    out.push_back(recent_[idx]);
  }
  return out;
}

std::vector<FlightRecord> FlightRecorder::Slowest() const {
  MutexLock lock(mu_);
  return slowest_;
}

std::vector<FlightSample> FlightRecorder::Samples() const {
  MutexLock lock(mu_);
  const size_t n = std::min<uint64_t>(samples_seen_, samples_.size());
  std::vector<FlightSample> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // Oldest first: the write cursor points at the oldest slot when full.
    const size_t idx = (sample_pos_ + samples_.size() - n + i) % samples_.size();
    out.push_back(samples_[idx]);
  }
  return out;
}

std::string FlightRecorder::DumpJson() const {
  const std::vector<FlightRecord> slowest = Slowest();
  const std::vector<FlightRecord> recent = Recent();
  const std::vector<FlightSample> samples = Samples();
  std::string out = "{\"slowest\":[";
  for (size_t i = 0; i < slowest.size(); ++i) {
    if (i > 0) out += ",";
    AppendRecordJson(slowest[i], &out);
  }
  out += "],\"recent\":[";
  for (size_t i = 0; i < recent.size(); ++i) {
    if (i > 0) out += ",";
    AppendRecordJson(recent[i], &out);
  }
  out += "],\"samples\":[";
  for (size_t i = 0; i < samples.size(); ++i) {
    const FlightSample& s = samples[i];
    out += StringPrintf(
        "%s{\"sim_us\":%llu,\"node\":%u,\"busy_horizon_us\":%llu,"
        "\"backlog_us\":%llu}",
        i == 0 ? "" : ",", (unsigned long long)s.sim_us, s.node,
        (unsigned long long)s.busy_horizon_us,
        (unsigned long long)s.backlog_us);
  }
  out += "]}";
  return out;
}

void FlightRecorder::ResetForTest() {
  MutexLock lock(mu_);
  for (FlightRecord& r : recent_) r = FlightRecord();
  recent_pos_ = 0;
  recent_seen_ = 0;
  slowest_.clear();
  for (FlightSample& s : samples_) s = FlightSample();
  sample_pos_ = 0;
  samples_seen_ = 0;
}

}  // namespace rstore

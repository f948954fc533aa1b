#include "common/metrics.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"

namespace rstore {

Histogram::Histogram(std::vector<uint64_t> boundaries)
    : boundaries_(std::move(boundaries)) {
  RSTORE_CHECK(!boundaries_.empty()) << "histogram needs >= 1 boundary";
  for (size_t i = 1; i < boundaries_.size(); ++i) {
    RSTORE_CHECK(boundaries_[i - 1] < boundaries_[i])
        << "histogram boundaries must be strictly increasing";
  }
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(boundaries_.size() + 1);
  for (size_t i = 0; i <= boundaries_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Observe(uint64_t value) {
  // First bucket whose upper bound covers the value (le semantics); values
  // above the last boundary land in the +Inf bucket at index size().
  size_t bucket = std::lower_bound(boundaries_.begin(), boundaries_.end(),
                                   value) -
                  boundaries_.begin();
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

void Histogram::ObserveWithExemplar(uint64_t value,
                                    const HistogramExemplar& exemplar) {
  const size_t bucket = std::lower_bound(boundaries_.begin(),
                                         boundaries_.end(), value) -
                        boundaries_.begin();
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  MutexLock lock(exemplar_mu_);
  if (exemplars_.empty()) exemplars_.resize(boundaries_.size() + 1);
  exemplars_[bucket] = exemplar;
  exemplars_[bucket].valid = true;
  exemplars_[bucket].latency.simulated_micros = value;
}

std::vector<HistogramExemplar> Histogram::exemplars() const {
  MutexLock lock(exemplar_mu_);
  return exemplars_;
}

void Histogram::ResetForTest() {
  for (size_t i = 0; i <= boundaries_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  MutexLock lock(exemplar_mu_);
  exemplars_.clear();
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::vector<uint64_t> out(boundaries_.size() + 1);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

std::vector<uint64_t> Histogram::ExponentialBoundaries(uint64_t start,
                                                       double factor,
                                                       size_t count) {
  RSTORE_CHECK(start > 0 && factor > 1.0 && count > 0);
  std::vector<uint64_t> out;
  out.reserve(count);
  double bound = static_cast<double>(start);
  for (size_t i = 0; i < count; ++i) {
    uint64_t rounded = static_cast<uint64_t>(bound);
    if (!out.empty() && rounded <= out.back()) rounded = out.back() + 1;
    out.push_back(rounded);
    bound *= factor;
  }
  return out;
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry registry;
  return registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  Entry& entry = metrics_[name];
  if (entry.counter == nullptr) {
    RSTORE_CHECK(entry.gauge == nullptr && entry.histogram == nullptr)
        << "metric '" << name << "' already registered as a different kind";
    entry.kind = Kind::kCounter;
    entry.counter = std::make_unique<Counter>();
  }
  return entry.counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  Entry& entry = metrics_[name];
  if (entry.gauge == nullptr) {
    RSTORE_CHECK(entry.counter == nullptr && entry.histogram == nullptr)
        << "metric '" << name << "' already registered as a different kind";
    entry.kind = Kind::kGauge;
    entry.gauge = std::make_unique<Gauge>();
  }
  return entry.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<uint64_t> boundaries) {
  MutexLock lock(mu_);
  Entry& entry = metrics_[name];
  if (entry.histogram == nullptr) {
    RSTORE_CHECK(entry.counter == nullptr && entry.gauge == nullptr)
        << "metric '" << name << "' already registered as a different kind";
    entry.kind = Kind::kHistogram;
    entry.histogram = std::make_unique<Histogram>(std::move(boundaries));
  }
  return entry.histogram.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  MutexLock lock(mu_);
  for (const auto& [name, entry] : metrics_) {
    switch (entry.kind) {
      case Kind::kCounter:
        snapshot.counters.emplace_back(name, entry.counter->value());
        break;
      case Kind::kGauge:
        snapshot.gauges.emplace_back(name, entry.gauge->value());
        break;
      case Kind::kHistogram: {
        MetricsSnapshot::HistogramValue h;
        h.name = name;
        h.boundaries = entry.histogram->boundaries();
        h.bucket_counts = entry.histogram->bucket_counts();
        h.exemplars = entry.histogram->exemplars();
        h.count = entry.histogram->count();
        h.sum = entry.histogram->sum();
        snapshot.histograms.push_back(std::move(h));
        break;
      }
    }
  }
  return snapshot;
}

std::string MetricsRegistry::PrometheusText() const {
  MetricsSnapshot snapshot = Snapshot();
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    out += StringPrintf("# TYPE %s counter\n%s %llu\n", name.c_str(),
                        name.c_str(), (unsigned long long)value);
  }
  for (const auto& [name, value] : snapshot.gauges) {
    out += StringPrintf("# TYPE %s gauge\n%s %lld\n", name.c_str(),
                        name.c_str(), (long long)value);
  }
  for (const MetricsSnapshot::HistogramValue& h : snapshot.histograms) {
    out += StringPrintf("# TYPE %s histogram\n", h.name.c_str());
    // OpenMetrics-style exemplar suffix: "<series> # {trace_id=...} value".
    auto exemplar_suffix = [&h](size_t bucket) -> std::string {
      if (bucket >= h.exemplars.size() || !h.exemplars[bucket].valid) {
        return "";
      }
      const HistogramExemplar& e = h.exemplars[bucket];
      return StringPrintf(" # {trace_id=\"%llu\"} %llu",
                          (unsigned long long)e.id,
                          (unsigned long long)e.latency.simulated_micros);
    };
    uint64_t cumulative = 0;
    for (size_t i = 0; i < h.boundaries.size(); ++i) {
      cumulative += h.bucket_counts[i];
      out += StringPrintf("%s_bucket{le=\"%llu\"} %llu%s\n", h.name.c_str(),
                          (unsigned long long)h.boundaries[i],
                          (unsigned long long)cumulative,
                          exemplar_suffix(i).c_str());
    }
    cumulative += h.bucket_counts.back();
    out += StringPrintf("%s_bucket{le=\"+Inf\"} %llu%s\n", h.name.c_str(),
                        (unsigned long long)cumulative,
                        exemplar_suffix(h.boundaries.size()).c_str());
    out += StringPrintf("%s_sum %llu\n", h.name.c_str(),
                        (unsigned long long)h.sum);
    out += StringPrintf("%s_count %llu\n", h.name.c_str(),
                        (unsigned long long)h.count);
  }
  return out;
}

std::string MetricsRegistry::JsonSnapshot() const {
  MetricsSnapshot snapshot = Snapshot();
  std::string out = "{\"counters\":{";
  for (size_t i = 0; i < snapshot.counters.size(); ++i) {
    out += StringPrintf("%s\"%s\":%llu", i == 0 ? "" : ",",
                        JsonEscape(snapshot.counters[i].first).c_str(),
                        (unsigned long long)snapshot.counters[i].second);
  }
  out += "},\"gauges\":{";
  for (size_t i = 0; i < snapshot.gauges.size(); ++i) {
    out += StringPrintf("%s\"%s\":%lld", i == 0 ? "" : ",",
                        JsonEscape(snapshot.gauges[i].first).c_str(),
                        (long long)snapshot.gauges[i].second);
  }
  out += "},\"histograms\":{";
  for (size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const MetricsSnapshot::HistogramValue& h = snapshot.histograms[i];
    out += StringPrintf("%s\"%s\":{\"boundaries\":[", i == 0 ? "" : ",",
                        JsonEscape(h.name).c_str());
    for (size_t b = 0; b < h.boundaries.size(); ++b) {
      out += StringPrintf("%s%llu", b == 0 ? "" : ",",
                          (unsigned long long)h.boundaries[b]);
    }
    out += "],\"counts\":[";
    for (size_t b = 0; b < h.bucket_counts.size(); ++b) {
      out += StringPrintf("%s%llu", b == 0 ? "" : ",",
                          (unsigned long long)h.bucket_counts[b]);
    }
    out += "],\"exemplars\":[";
    bool first_exemplar = true;
    for (size_t b = 0; b < h.exemplars.size(); ++b) {
      const HistogramExemplar& e = h.exemplars[b];
      if (!e.valid) continue;
      out += StringPrintf(
          "%s{\"bucket\":%zu,\"id\":%llu,\"value\":%llu,"
          "\"queue_wait_us\":%llu,\"service_us\":%llu,"
          "\"retry_penalty_us\":%llu,\"hedge_delta_us\":%llu}",
          first_exemplar ? "" : ",", b, (unsigned long long)e.id,
          (unsigned long long)e.latency.simulated_micros,
          (unsigned long long)e.latency.queue_wait_us,
          (unsigned long long)e.latency.service_us,
          (unsigned long long)e.latency.retry_penalty_us,
          (unsigned long long)e.latency.hedge_delta_us);
      first_exemplar = false;
    }
    out += StringPrintf("],\"sum\":%llu,\"count\":%llu}",
                        (unsigned long long)h.sum,
                        (unsigned long long)h.count);
  }
  out += "}}";
  return out;
}

void MetricsRegistry::ResetForTest() {
  MutexLock lock(mu_);
  // In place: handles cached at instrumentation sites must stay valid.
  for (auto& [name, entry] : metrics_) {
    switch (entry.kind) {
      case Kind::kCounter:
        entry.counter->ResetForTest();
        break;
      case Kind::kGauge:
        entry.gauge->Set(0);
        break;
      case Kind::kHistogram:
        entry.histogram->ResetForTest();
        break;
    }
  }
}

}  // namespace rstore

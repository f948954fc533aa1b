#include "common/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "json/json_parser.h"

namespace rstore {
namespace {

TEST(CounterTest, IncrementsMonotonically) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.ResetForTest();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  gauge.Set(10);
  gauge.Add(-25);
  EXPECT_EQ(gauge.value(), -15);
}

TEST(HistogramTest, LeBucketSemantics) {
  Histogram histogram({10, 100});
  histogram.Observe(5);    // <= 10
  histogram.Observe(10);   // <= 10 (le semantics: boundary is inclusive)
  histogram.Observe(50);   // <= 100
  histogram.Observe(1000); // +Inf
  std::vector<uint64_t> counts = histogram.bucket_counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(histogram.count(), 4u);
  EXPECT_EQ(histogram.sum(), 5u + 10u + 50u + 1000u);
}

TEST(HistogramTest, ExponentialBoundariesStrictlyIncrease) {
  // factor close to 1 forces the rounding-collision path.
  std::vector<uint64_t> bounds = Histogram::ExponentialBoundaries(1, 1.1, 12);
  ASSERT_EQ(bounds.size(), 12u);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
  EXPECT_EQ(bounds[0], 1u);
}

TEST(MetricsRegistryTest, HandlesAreStableAndShared) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("rstore_test_ops_total");
  Counter* b = registry.GetCounter("rstore_test_ops_total");
  EXPECT_EQ(a, b);
  a->Increment(3);
  EXPECT_EQ(b->value(), 3u);
  // First histogram registration wins; later boundaries are ignored.
  Histogram* h1 = registry.GetHistogram("rstore_test_sizes", {1, 2, 3});
  Histogram* h2 = registry.GetHistogram("rstore_test_sizes", {99});
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1->boundaries().size(), 3u);
}

TEST(MetricsRegistryTest, SnapshotSortedByName) {
  MetricsRegistry registry;
  registry.GetCounter("rstore_b_total")->Increment();
  registry.GetCounter("rstore_a_total")->Increment(2);
  registry.GetGauge("rstore_depth")->Set(-7);
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].first, "rstore_a_total");
  EXPECT_EQ(snapshot.counters[0].second, 2u);
  EXPECT_EQ(snapshot.counters[1].first, "rstore_b_total");
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].second, -7);
}

TEST(MetricsRegistryTest, PrometheusTextRoundTrip) {
  MetricsRegistry registry;
  registry.GetCounter("rstore_reqs_total")->Increment(42);
  registry.GetGauge("rstore_queue_depth")->Set(-3);
  Histogram* h = registry.GetHistogram("rstore_batch_keys", {10, 100});
  h->Observe(5);
  h->Observe(50);
  h->Observe(500);
  std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# TYPE rstore_reqs_total counter\n"
                      "rstore_reqs_total 42\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE rstore_queue_depth gauge\n"
                      "rstore_queue_depth -3\n"),
            std::string::npos);
  // Histogram buckets are cumulative and end in +Inf == count.
  EXPECT_NE(text.find("rstore_batch_keys_bucket{le=\"10\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("rstore_batch_keys_bucket{le=\"100\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("rstore_batch_keys_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("rstore_batch_keys_sum 555\n"), std::string::npos);
  EXPECT_NE(text.find("rstore_batch_keys_count 3\n"), std::string::npos);
}

TEST(MetricsRegistryTest, JsonSnapshotRoundTrip) {
  MetricsRegistry registry;
  registry.GetCounter("rstore_reqs_total")->Increment(42);
  registry.GetGauge("rstore_queue_depth")->Set(-3);
  Histogram* h = registry.GetHistogram("rstore_batch_keys", {10, 100});
  h->Observe(5);
  h->Observe(500);

  auto parsed = json::Parse(registry.JsonSnapshot());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* counters = parsed->Find("counters");
  ASSERT_NE(counters, nullptr);
  const json::Value* reqs = counters->Find("rstore_reqs_total");
  ASSERT_NE(reqs, nullptr);
  EXPECT_EQ(reqs->as_int(), 42);
  const json::Value* gauges = parsed->Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->Find("rstore_queue_depth")->as_int(), -3);
  const json::Value* histograms = parsed->Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const json::Value* batch = histograms->Find("rstore_batch_keys");
  ASSERT_NE(batch, nullptr);
  ASSERT_NE(batch->Find("boundaries"), nullptr);
  EXPECT_EQ(batch->Find("boundaries")->as_array().size(), 2u);
  // counts carries the +Inf bucket as its last entry.
  ASSERT_NE(batch->Find("counts"), nullptr);
  const json::Value::Array& counts = batch->Find("counts")->as_array();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0].as_int(), 1);
  EXPECT_EQ(counts[2].as_int(), 1);
  EXPECT_EQ(batch->Find("count")->as_int(), 2);
  EXPECT_EQ(batch->Find("sum")->as_int(), 505);
}

TEST(MetricsRegistryTest, ResetForTestPreservesHandles) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("rstore_x_total");
  Histogram* h = registry.GetHistogram("rstore_y_us", {8});
  counter->Increment(9);
  h->Observe(1);
  registry.ResetForTest();
  EXPECT_EQ(counter->value(), 0u);
  EXPECT_EQ(h->count(), 0u);
  counter->Increment();  // old handle still updates the registered metric
  EXPECT_EQ(registry.Snapshot().counters[0].second, 1u);
}

TEST(MetricsRegistryTest, ConcurrentUpdatesDontLose) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("rstore_contended_total");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, counter] {
      for (int i = 0; i < kIncrements; ++i) {
        counter->Increment();
        // Re-resolving concurrently must return the same handle.
        registry.GetCounter("rstore_contended_total");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter->value(),
            static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(HistogramExemplarTest, ExemplarLandsInValueBucketLastWriterWins) {
  Histogram histogram({10, 100});
  // No exemplar-carrying observation yet: storage stays unallocated.
  EXPECT_TRUE(histogram.exemplars().empty());

  HistogramExemplar e;
  e.id = 7;
  e.latency.queue_wait_us = 40;
  e.latency.service_us = 10;
  histogram.ObserveWithExemplar(50, e);
  std::vector<HistogramExemplar> exemplars = histogram.exemplars();
  ASSERT_EQ(exemplars.size(), 3u);  // two boundaries + the +Inf bucket
  EXPECT_FALSE(exemplars[0].valid);
  ASSERT_TRUE(exemplars[1].valid);  // 50 lands in le=100
  EXPECT_EQ(exemplars[1].id, 7u);
  // The value recorded from the observation.
  EXPECT_EQ(exemplars[1].latency.simulated_micros, 50u);
  EXPECT_EQ(exemplars[1].latency.queue_wait_us, 40u);
  EXPECT_FALSE(exemplars[2].valid);

  // A later observation in the same bucket replaces the exemplar...
  e.id = 8;
  histogram.ObserveWithExemplar(60, e);
  // ...and one above the last boundary lands in +Inf.
  e.id = 9;
  histogram.ObserveWithExemplar(5000, e);
  exemplars = histogram.exemplars();
  EXPECT_EQ(exemplars[1].id, 8u);
  EXPECT_EQ(exemplars[1].latency.simulated_micros, 60u);
  ASSERT_TRUE(exemplars[2].valid);
  EXPECT_EQ(exemplars[2].id, 9u);

  // Tallies are shared with plain Observe().
  EXPECT_EQ(histogram.count(), 3u);
}

TEST(HistogramExemplarTest, ExportersCarryExemplars) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("rstore_query_micros", {10, 100});
  HistogramExemplar e;
  e.id = 42;
  e.latency.queue_wait_us = 30;
  e.latency.service_us = 20;
  h->ObserveWithExemplar(50, e);
  h->Observe(5);  // exemplar-free observations leave no exemplar behind

  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("rstore_query_micros_bucket{le=\"100\"} 2"
                      " # {trace_id=\"42\"} 50\n"),
            std::string::npos);
  // The exemplar-free bucket has no suffix.
  EXPECT_NE(text.find("rstore_query_micros_bucket{le=\"10\"} 1\n"),
            std::string::npos);

  auto parsed = json::Parse(registry.JsonSnapshot());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* hist =
      parsed->Find("histograms")->Find("rstore_query_micros");
  ASSERT_NE(hist, nullptr);
  const json::Value* exemplars = hist->Find("exemplars");
  ASSERT_NE(exemplars, nullptr);
  ASSERT_EQ(exemplars->as_array().size(), 1u);
  const json::Value& ex = exemplars->as_array()[0];
  EXPECT_EQ(ex.Find("bucket")->as_int(), 1);
  EXPECT_EQ(ex.Find("id")->as_int(), 42);
  EXPECT_EQ(ex.Find("value")->as_int(), 50);
  EXPECT_EQ(ex.Find("queue_wait_us")->as_int(), 30);
  EXPECT_EQ(ex.Find("service_us")->as_int(), 20);
}

}  // namespace
}  // namespace rstore

// Concurrent-writer stress for the flight recorder: many threads record,
// sample, and read simultaneously. The assertions are deliberately loose
// (bounded sizes, well-formed output) — the test's real teeth are the TSan
// job, whose CI filter matches this suite by name.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/flight_recorder.h"
#include "json/json_parser.h"

namespace rstore {
namespace {

TEST(FlightRecorderConcurrencyTest, ConcurrentRecordSampleAndRead) {
  FlightRecorderOptions options;
  options.ring_size = 16;
  options.slowest_size = 8;
  options.sample_ring_size = 32;
  FlightRecorder recorder(options);

  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr int kPerThread = 500;

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&recorder, w] {
      for (int i = 0; i < kPerThread; ++i) {
        FlightRecord r;
        r.id = recorder.NextQueryId();
        r.name = "writer" + std::to_string(w);
        r.latency.simulated_micros = static_cast<uint64_t>(i * (w + 1));
        r.latency.service_us = r.latency.simulated_micros;
        recorder.Record(std::move(r));

        FlightSample s;
        s.sim_us = static_cast<uint64_t>(i);
        s.node = static_cast<uint32_t>(w);
        s.busy_horizon_us = s.sim_us + 10;
        s.backlog_us = 10;
        recorder.AddSample(s);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&recorder, &stop] {
      while (!stop.load(std::memory_order_acquire)) {
        (void)recorder.Recent();
        (void)recorder.Slowest();
        (void)recorder.DumpJson();
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(recorder.Recent().size(), options.ring_size);
  const std::vector<FlightRecord> slowest = recorder.Slowest();
  ASSERT_EQ(slowest.size(), options.slowest_size);
  for (size_t i = 1; i < slowest.size(); ++i) {
    EXPECT_GE(slowest[i - 1].latency.simulated_micros,
              slowest[i].latency.simulated_micros);
  }
  EXPECT_EQ(recorder.Samples().size(), options.sample_ring_size);
  // The dump must stay well-formed no matter how writes interleaved.
  EXPECT_TRUE(json::Parse(recorder.DumpJson()).ok());
  // Ids are claimed lock-free; all kWriters * kPerThread must be distinct,
  // so the counter sits exactly at the total afterwards.
  EXPECT_EQ(recorder.NextQueryId(),
            static_cast<uint64_t>(kWriters * kPerThread) + 1);
}

}  // namespace
}  // namespace rstore

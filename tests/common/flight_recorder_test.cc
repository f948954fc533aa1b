#include "common/flight_recorder.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "json/json_parser.h"

namespace rstore {
namespace {

FlightRecord MakeRecord(uint64_t id, uint64_t total_us) {
  FlightRecord r;
  r.id = id;
  r.name = "q" + std::to_string(id);
  r.latency.simulated_micros = total_us;
  // Attribution that satisfies the conservation invariant so the record is
  // representative of what the production epilogue feeds in.
  r.latency.service_us = total_us;
  return r;
}

std::vector<uint64_t> Ids(const std::vector<FlightRecord>& records) {
  std::vector<uint64_t> out;
  out.reserve(records.size());
  for (const FlightRecord& r : records) out.push_back(r.id);
  return out;
}

TEST(FlightRecorderTest, RecentRingIsNewestFirstAndEvictsOldest) {
  FlightRecorderOptions options;
  options.ring_size = 4;
  FlightRecorder recorder(options);

  recorder.Record(MakeRecord(1, 10));
  recorder.Record(MakeRecord(2, 20));
  EXPECT_EQ(Ids(recorder.Recent()), (std::vector<uint64_t>{2, 1}));

  for (uint64_t id = 3; id <= 6; ++id) recorder.Record(MakeRecord(id, 10));
  // 1 and 2 were evicted, newest first among the survivors.
  EXPECT_EQ(Ids(recorder.Recent()), (std::vector<uint64_t>{6, 5, 4, 3}));
}

TEST(FlightRecorderTest, SlowestSelectionKeepsTopNSlowestFirst) {
  FlightRecorderOptions options;
  options.slowest_size = 3;
  FlightRecorder recorder(options);

  recorder.Record(MakeRecord(1, 10));
  recorder.Record(MakeRecord(2, 30));
  recorder.Record(MakeRecord(3, 20));
  EXPECT_EQ(Ids(recorder.Slowest()), (std::vector<uint64_t>{2, 3, 1}));

  // 25 displaces the current minimum (10)...
  recorder.Record(MakeRecord(4, 25));
  EXPECT_EQ(Ids(recorder.Slowest()), (std::vector<uint64_t>{2, 4, 3}));
  // ...a faster query does not qualify...
  recorder.Record(MakeRecord(5, 5));
  EXPECT_EQ(Ids(recorder.Slowest()), (std::vector<uint64_t>{2, 4, 3}));
  // ...and a tie with the minimum keeps the earlier record (strictly
  // greater comparison).
  recorder.Record(MakeRecord(6, 20));
  EXPECT_EQ(Ids(recorder.Slowest()), (std::vector<uint64_t>{2, 4, 3}));
  // Equal to the current maximum: qualifies (beats the min) but sorts
  // after the earlier 30 (stable sort).
  recorder.Record(MakeRecord(7, 30));
  EXPECT_EQ(Ids(recorder.Slowest()), (std::vector<uint64_t>{2, 7, 4}));
}

TEST(FlightRecorderTest, SamplesRingIsOldestFirst) {
  FlightRecorderOptions options;
  options.sample_ring_size = 3;
  FlightRecorder recorder(options);

  for (uint64_t t = 1; t <= 5; ++t) {
    FlightSample s;
    s.sim_us = t * 100;
    s.node = static_cast<uint32_t>(t);
    s.busy_horizon_us = t * 100 + 50;
    s.backlog_us = 50;
    recorder.AddSample(s);
  }
  const std::vector<FlightSample> samples = recorder.Samples();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].sim_us, 300u);
  EXPECT_EQ(samples[1].sim_us, 400u);
  EXPECT_EQ(samples[2].sim_us, 500u);
  EXPECT_EQ(samples[2].backlog_us, 50u);
}

TEST(FlightRecorderTest, NextQueryIdIsMonotonicAndSurvivesReset) {
  FlightRecorder recorder{FlightRecorderOptions()};
  const uint64_t first = recorder.NextQueryId();
  EXPECT_EQ(recorder.NextQueryId(), first + 1);
  recorder.ResetForTest();
  // Reset drops records, not identity: ids keep climbing so exemplar ids
  // stay unique across test-style resets.
  EXPECT_EQ(recorder.NextQueryId(), first + 2);
}

TEST(FlightRecorderTest, ResetForTestDropsRecordsAndSamples) {
  FlightRecorder recorder{FlightRecorderOptions()};
  recorder.Record(MakeRecord(1, 10));
  recorder.AddSample(FlightSample{});
  recorder.ResetForTest();
  EXPECT_TRUE(recorder.Recent().empty());
  EXPECT_TRUE(recorder.Slowest().empty());
  EXPECT_TRUE(recorder.Samples().empty());
}

TEST(FlightRecorderTest, DumpJsonIsParseableAndComplete) {
  FlightRecorderOptions options;
  options.ring_size = 8;
  options.slowest_size = 4;
  FlightRecorder recorder(options);

  FlightRecord r = MakeRecord(7, 120);
  r.name = "get_range";
  r.status = "IO error: all replicas down";
  r.latency.queue_wait_us = 30;
  r.latency.service_us = 80;
  r.latency.retry_penalty_us = 15;
  r.latency.hedge_delta_us = 5;
  r.retries = 1;
  r.degradation.push_back("node 2 \"down\"");  // exercises escaping
  FlightSpan span;
  span.name = "fetch_chunks";
  span.depth = 1;
  span.sim_start_us = 10;
  span.sim_end_us = 90;
  r.spans.push_back(span);
  recorder.Record(std::move(r));

  FlightSample s;
  s.sim_us = 400;
  s.node = 3;
  s.busy_horizon_us = 650;
  s.backlog_us = 250;
  recorder.AddSample(s);

  auto parsed = json::Parse(recorder.DumpJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const json::Value* slowest = parsed->Find("slowest");
  ASSERT_NE(slowest, nullptr);
  ASSERT_EQ(slowest->as_array().size(), 1u);
  const json::Value& rec = slowest->as_array()[0];
  EXPECT_EQ(rec.Find("id")->as_int(), 7);
  EXPECT_EQ(rec.Find("name")->as_string(), "get_range");
  EXPECT_EQ(rec.Find("status")->as_string(), "IO error: all replicas down");
  EXPECT_EQ(rec.Find("total_us")->as_int(), 120);
  EXPECT_EQ(rec.Find("queue_wait_us")->as_int(), 30);
  EXPECT_EQ(rec.Find("service_us")->as_int(), 80);
  EXPECT_EQ(rec.Find("retry_penalty_us")->as_int(), 15);
  EXPECT_EQ(rec.Find("hedge_delta_us")->as_int(), 5);
  EXPECT_EQ(rec.Find("retries")->as_int(), 1);
  ASSERT_EQ(rec.Find("degradation")->as_array().size(), 1u);
  EXPECT_EQ(rec.Find("degradation")->as_array()[0].as_string(),
            "node 2 \"down\"");
  ASSERT_EQ(rec.Find("spans")->as_array().size(), 1u);
  const json::Value& sp = rec.Find("spans")->as_array()[0];
  EXPECT_EQ(sp.Find("name")->as_string(), "fetch_chunks");
  EXPECT_EQ(sp.Find("sim_end_us")->as_int(), 90);

  const json::Value* recent = parsed->Find("recent");
  ASSERT_NE(recent, nullptr);
  EXPECT_EQ(recent->as_array().size(), 1u);

  const json::Value* samples = parsed->Find("samples");
  ASSERT_NE(samples, nullptr);
  ASSERT_EQ(samples->as_array().size(), 1u);
  EXPECT_EQ(samples->as_array()[0].Find("backlog_us")->as_int(), 250);
}

}  // namespace
}  // namespace rstore

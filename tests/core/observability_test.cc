// End-to-end observability: a traced full-version query over the simulated
// cluster must produce a span tree whose simulated durations reconcile
// exactly with the latency model's charges (KVStats::simulated_micros), and
// whose Chrome trace-event export is schema-valid JSON. This is the
// contract that makes `trace <query>` output trustworthy: the trace is not
// a parallel bookkeeping system, it is the same numbers.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/executor.h"
#include "common/flight_recorder.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/report.h"
#include "core_test_util.h"
#include "json/json_parser.h"
#include "kvstore/cluster.h"

namespace rstore {
namespace {

using testing::ExampleData;
using testing::MakeChain;

struct TracedQuery {
  Cluster cluster;
  std::unique_ptr<RStore> store;
  QueryStats stats;
  TraceContext trace;
  uint64_t charged_micros = 0;

  TracedQuery() : cluster(ClusterOptions()) {}
};

/// Loads a chain dataset into a 4-node cluster and runs one traced
/// full-version query, capturing the cluster-side charge alongside.
std::unique_ptr<TracedQuery> RunTracedGetVersion() {
  auto out = std::make_unique<TracedQuery>();
  ExampleData data = MakeChain(12, 8, 3);
  Options options;
  options.chunk_capacity_bytes = 600;
  auto store = RStore::Open(&out->cluster, options);
  EXPECT_TRUE(store.ok());
  out->store = std::move(*store);
  EXPECT_TRUE(out->store->BulkLoad(data.dataset, data.payloads).ok());

  const uint64_t before = out->cluster.stats().simulated_micros;
  auto records =
      out->store->GetVersion(11, &out->stats, &out->trace);
  EXPECT_TRUE(records.ok());
  EXPECT_FALSE(records->empty());
  out->charged_micros = out->cluster.stats().simulated_micros - before;
  return out;
}

TEST(ObservabilityTest, TraceReconcilesWithClusterCharges) {
  auto q = RunTracedGetVersion();
  const std::vector<TraceSpan>& spans = q->trace.spans();
  ASSERT_FALSE(spans.empty());

  // The root span covers the whole query and its simulated duration is
  // exactly what the cluster charged during the call.
  EXPECT_EQ(spans[0].name, "query.get_version");
  EXPECT_EQ(spans[0].parent, TraceSpan::kNoParent);
  EXPECT_GT(q->charged_micros, 0u);
  EXPECT_EQ(spans[0].sim_duration_us(), q->charged_micros);
  EXPECT_EQ(q->stats.simulated_micros, q->charged_micros);

  // Each kvs.multiget span charges coordinator overhead plus the slowest of
  // its per-node children, which all start at the batch's simulated instant.
  const LatencyModel latency = ClusterOptions().latency;
  uint64_t multiget_micros = 0;
  size_t multigets = 0, node_spans = 0;
  for (const TraceSpan& span : spans) {
    if (span.name != "kvs.multiget") continue;
    ++multigets;
    multiget_micros += span.sim_duration_us();
    uint64_t slowest_child = 0;
    for (const TraceSpan& child : spans) {
      if (child.parent != span.id) continue;
      ASSERT_EQ(child.name.rfind("node", 0), 0u) << child.name;
      ++node_spans;
      EXPECT_EQ(child.sim_start_us, span.sim_start_us);
      slowest_child = std::max(slowest_child, child.sim_duration_us());
    }
    EXPECT_GT(slowest_child, 0u);
    EXPECT_EQ(span.sim_duration_us(),
              latency.coordinator_overhead_us + slowest_child);
  }
  EXPECT_GT(multigets, 0u);
  EXPECT_GT(node_spans, 0u);
  // All of the query's simulated cost is attributed to multiget batches —
  // the trace does not invent or drop charges.
  EXPECT_EQ(multiget_micros, q->charged_micros);
}

TEST(ObservabilityTest, SpanTreeIsWellFormed) {
  auto q = RunTracedGetVersion();
  const std::vector<TraceSpan>& spans = q->trace.spans();
  for (const TraceSpan& span : spans) {
    // Closed spans have coherent stamps on both clocks.
    EXPECT_GE(span.wall_end_us, span.wall_start_us) << span.name;
    EXPECT_GE(span.sim_end_us, span.sim_start_us) << span.name;
    if (span.parent == TraceSpan::kNoParent) continue;
    ASSERT_LT(span.parent, span.id) << "parents precede children";
    const TraceSpan& parent = spans[span.parent];
    EXPECT_EQ(span.depth, parent.depth + 1);
    // Parent/child simulated-time containment.
    EXPECT_GE(span.sim_start_us, parent.sim_start_us) << span.name;
    EXPECT_LE(span.sim_end_us, parent.sim_end_us) << span.name;
  }
}

TEST(ObservabilityTest, ChromeTraceExportIsSchemaValid) {
  auto q = RunTracedGetVersion();
  auto parsed = json::Parse(q->trace.ToChromeTraceJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  EXPECT_EQ(events->as_array().size(),
            2u + 2 * q->trace.spans().size());
  size_t simulated_events = 0;
  for (const json::Value& event : events->as_array()) {
    ASSERT_NE(event.Find("ph"), nullptr);
    const std::string& ph = event.Find("ph")->as_string();
    if (ph == "M") continue;  // track-name metadata
    ASSERT_EQ(ph, "X");
    EXPECT_GE(event.Find("ts")->as_int(), 0);
    EXPECT_GE(event.Find("dur")->as_int(), 0);
    const int64_t pid = event.Find("pid")->as_int();
    ASSERT_TRUE(pid == 1 || pid == 2);
    if (pid == 2) ++simulated_events;
    const json::Value* args = event.Find("args");
    ASSERT_NE(args, nullptr);
    const json::Value* span_id = args->Find("span_id");
    ASSERT_NE(span_id, nullptr);
    ASSERT_LT(span_id->as_int(),
              static_cast<int64_t>(q->trace.spans().size()));
    // Non-root events name their parent, closing the loop for tools that
    // rebuild the tree from the flat event list.
    const TraceSpan& span = q->trace.spans()[span_id->as_int()];
    if (span.parent != TraceSpan::kNoParent) {
      ASSERT_NE(args->Find("parent_id"), nullptr);
      EXPECT_EQ(args->Find("parent_id")->as_int(), span.parent);
    }
  }
  EXPECT_EQ(simulated_events, q->trace.spans().size());
}

// Under an active fault schedule the trace gains node<N>.retry<k> and
// node<N>.hedge children, and the reconciliation contract must still hold
// exactly: the root's simulated duration is the cluster's charge, every
// batch charges coordinator overhead plus its latest child event, and no
// child escapes its parent's interval.
TEST(ObservabilityTest, FaultPathTraceReconcilesWithCharges) {
  ClusterOptions cluster_options;
  cluster_options.replication_factor = 2;
  cluster_options.faults.default_profile.transient_error_rate = 0.2;
  // Every request is slow (x10), so every batch group crosses the hedge
  // threshold deterministically — the hedge path is exercised on each run.
  // (A one-key group models ~160us of pipelined service, 1600us slowed;
  // the threshold sits between those, above any un-slowed group.)
  cluster_options.faults.default_profile.slow_rate = 1.0;
  cluster_options.faults.default_profile.slow_multiplier = 10.0;
  cluster_options.latency.hedge_threshold_us = 1000;
  cluster_options.retry.max_attempts = 4;
  Cluster cluster(cluster_options);
  ExampleData data = MakeChain(12, 8, 3);
  Options options;
  options.chunk_capacity_bytes = 600;
  auto store = RStore::Open(&cluster, options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());

  QueryStats stats;
  TraceContext trace;
  const uint64_t before = cluster.stats().simulated_micros;
  auto records = (*store)->GetVersion(11, &stats, &trace);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  const uint64_t charged = cluster.stats().simulated_micros - before;

  const std::vector<TraceSpan>& spans = trace.spans();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans[0].sim_duration_us(), charged);
  EXPECT_EQ(stats.simulated_micros, charged);

  const LatencyModel& latency = cluster_options.latency;
  uint64_t multiget_micros = 0;
  size_t fault_spans = 0;
  for (const TraceSpan& span : spans) {
    if (span.name != "kvs.multiget") continue;
    multiget_micros += span.sim_duration_us();
    uint64_t latest_child_end = span.sim_start_us;
    size_t children = 0;
    for (const TraceSpan& child : spans) {
      if (child.parent != span.id) continue;
      ++children;
      ASSERT_EQ(child.name.rfind("node", 0), 0u) << child.name;
      if (child.name.find(".retry") != std::string::npos ||
          child.name.find(".hedge") != std::string::npos) {
        ++fault_spans;
      }
      // Containment: retries, hedges and abandoned requests all close
      // inside the batch's charged interval.
      EXPECT_GE(child.sim_start_us, span.sim_start_us) << child.name;
      EXPECT_LE(child.sim_end_us, span.sim_end_us) << child.name;
      latest_child_end = std::max(latest_child_end, child.sim_end_us);
    }
    ASSERT_GT(children, 0u);
    // Exactly coordinator overhead plus the batch's latest event — retry
    // chains and hedges shift events later, but never invent time the
    // cluster did not charge.
    EXPECT_EQ(span.sim_duration_us(),
              latency.coordinator_overhead_us +
                  (latest_child_end - span.sim_start_us));
  }
  EXPECT_EQ(multiget_micros, charged);
  // The schedule actually produced retry/hedge sub-spans (the cluster-side
  // counters agree), so the assertions above covered the fault paths.
  EXPECT_GT(fault_spans, 0u);
  const KVStats kv = cluster.stats();
  EXPECT_GT(kv.retries, 0u);
  EXPECT_GT(kv.hedges, 0u);
}

// The async engine keeps the same reconciliation contract per query even
// when queries overlap: each in-flight query carries its own TraceContext,
// whose root span must equal that query's QueryStats::simulated_micros
// (queueing behind other queries' batches included), with every micro
// attributed to a kvs.multiget sub-span. Across queries, the per-query
// charges must sum to exactly what the cluster charged — concurrency moves
// time around, it never invents or drops any.
TEST(ObservabilityTest, AsyncTracesReconcilePerQueryUnderConcurrency) {
  Cluster cluster((ClusterOptions()));
  ExampleData data = MakeChain(12, 8, 3);
  Options options;
  options.chunk_capacity_bytes = 600;
  auto store = RStore::Open(&cluster, options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());

  constexpr size_t kInFlight = 4;
  Executor executor;
  std::vector<TraceContext> traces(kInFlight);
  std::vector<AsyncQueryResult> results(kInFlight);
  const uint64_t before = cluster.stats().simulated_micros;
  for (size_t i = 0; i < kInFlight; ++i) {
    (*store)
        ->GetVersionAsync(&executor, static_cast<VersionId>(8 + i),
                          &traces[i])
        .OnReady([&results, i](const AsyncQueryResult& r) { results[i] = r; });
  }
  executor.RunUntilIdle();
  const uint64_t cluster_charged = cluster.stats().simulated_micros - before;

  uint64_t total_query_micros = 0;
  for (size_t i = 0; i < kInFlight; ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    ASSERT_TRUE(results[i].status.ok()) << results[i].status.ToString();
    EXPECT_FALSE(results[i].records.empty());
    const std::vector<TraceSpan>& spans = traces[i].spans();
    ASSERT_FALSE(spans.empty());
    EXPECT_EQ(spans[0].name, "query.get_version");
    EXPECT_EQ(spans[0].sim_duration_us(), results[i].stats.simulated_micros);
    total_query_micros += results[i].stats.simulated_micros;

    uint64_t multiget_micros = 0;
    size_t node_spans = 0;
    for (const TraceSpan& span : spans) {
      // Well-formed tree: children close inside their parents on the
      // simulated clock even though batches interleave across queries.
      if (span.parent != TraceSpan::kNoParent) {
        const TraceSpan& parent = spans[span.parent];
        EXPECT_GE(span.sim_start_us, parent.sim_start_us) << span.name;
        EXPECT_LE(span.sim_end_us, parent.sim_end_us) << span.name;
      }
      if (span.name == "kvs.multiget") {
        multiget_micros += span.sim_duration_us();
      } else if (span.name.rfind("node", 0) == 0) {
        ++node_spans;
      }
    }
    EXPECT_GT(node_spans, 0u);
    // All of this query's simulated cost lives in its multiget sub-spans.
    EXPECT_EQ(multiget_micros, results[i].stats.simulated_micros);
  }
  // And the per-query charges partition the cluster's charge exactly.
  EXPECT_EQ(total_query_micros, cluster_charged);
}

/// One cluster whose node 1 serves everything 10x slow: only its batches
/// cross the 1000us hedge threshold, so every hedge is a genuine race
/// between a slowed primary and a clean replica.
ClusterOptions SlowNodeOptions() {
  ClusterOptions o;
  o.replication_factor = 2;
  o.latency.hedge_threshold_us = 1000;
  o.faults.per_node[1].slow_rate = 1.0;
  o.faults.per_node[1].slow_multiplier = 10.0;
  return o;
}

// Hedge accounting on the async path: a hedge *win* may only be counted
// when the speculative attempt — delayed by its target's own FIFO queue —
// actually completes before the primary. With an idle cluster the clean
// replica beats the 10x-slowed primary (wins count up); with the cluster
// saturated by concurrent queries, hedge targets are busy and some races
// are lost (wins < hedges). Either way results stay byte-identical.
TEST(ObservabilityTest, AsyncHedgeWinsOnlyCountWhenTheHedgeActuallyWins) {
  ExampleData data = MakeChain(12, 8, 3);
  Options options;
  options.chunk_capacity_bytes = 600;

  // Baseline bytes for every version from a clean sync store: slowness and
  // hedging must never change what a query returns.
  Cluster clean((ClusterOptions()));
  auto clean_store = RStore::Open(&clean, options);
  ASSERT_TRUE(clean_store.ok());
  ASSERT_TRUE((*clean_store)->BulkLoad(data.dataset, data.payloads).ok());
  std::vector<std::string> expected(12);
  for (VersionId v = 0; v < 12; ++v) {
    auto got = (*clean_store)->GetVersion(v);
    ASSERT_TRUE(got.ok());
    expected[v] = testing::SerializeRecords(*got);
  }

  // One query at a time against the slow-node cluster: every hedge target
  // is idle, so the clean replica always overtakes the 10x primary — every
  // hedge must be counted a win.
  {
    Cluster cluster(SlowNodeOptions());
    auto store = RStore::Open(&cluster, options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());
    Executor executor;
    for (VersionId v = 0; v < 12; ++v) {
      AsyncQueryResult result;
      (*store)
          ->GetVersionAsync(&executor, v)
          .OnReady([&result](const AsyncQueryResult& r) { result = r; });
      executor.RunUntilIdle();
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      EXPECT_EQ(testing::SerializeRecords(result.records), expected[v])
          << "V" << v;
    }
    const KVStats kv = cluster.stats();
    EXPECT_GT(kv.hedges, 0u);
    EXPECT_EQ(kv.hedge_wins, kv.hedges);
  }

  // A uniformly slow cluster saturated by every version at once: hedges
  // still fire (every batch crosses the threshold), but their targets sit
  // behind queues of equally slow primary work, so some races are lost —
  // and losing hedges must not be counted as wins the way they would be if
  // the model pretended the speculative attempt started instantly.
  {
    ClusterOptions slow_everywhere;
    slow_everywhere.replication_factor = 2;
    slow_everywhere.latency.hedge_threshold_us = 1000;
    slow_everywhere.faults.default_profile.slow_rate = 1.0;
    slow_everywhere.faults.default_profile.slow_multiplier = 10.0;
    Cluster cluster(slow_everywhere);
    auto store = RStore::Open(&cluster, options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->BulkLoad(data.dataset, data.payloads).ok());
    Executor executor;
    std::vector<AsyncQueryResult> results(12);
    for (VersionId v = 0; v < 12; ++v) {
      (*store)
          ->GetVersionAsync(&executor, v)
          .OnReady([&results, v](const AsyncQueryResult& r) {
            results[v] = r;
          });
    }
    executor.RunUntilIdle();
    for (VersionId v = 0; v < 12; ++v) {
      ASSERT_TRUE(results[v].status.ok()) << results[v].status.ToString();
      EXPECT_EQ(testing::SerializeRecords(results[v].records), expected[v])
          << "V" << v;
    }
    const KVStats kv = cluster.stats();
    EXPECT_GT(kv.hedges, 0u);
    EXPECT_LT(kv.hedge_wins, kv.hedges);
  }
}

/// Stages `versions - 1` commits without draining, then brackets the final
/// commit — the one that trips online_batch_size and drains the batch —
/// with cluster stats. Staging itself touches no backend, so the bracketed
/// delta is exactly the drain's charge.
struct TracedIngest {
  Cluster cluster;
  std::unique_ptr<RStore> store;
  TraceContext trace;
  uint64_t charged_micros = 0;

  TracedIngest() : cluster(ClusterOptions()) {}
};

std::unique_ptr<TracedIngest> RunTracedBatchDrain(uint32_t ingest_shards) {
  auto out = std::make_unique<TracedIngest>();
  const ExampleData data = MakeChain(21, 400, 400);
  const uint32_t versions = data.dataset.graph.size();
  Options options;
  options.chunk_capacity_bytes = 600;
  options.online_batch_size = versions;
  options.ingest_shards = ingest_shards;
  auto store = RStore::Open(&out->cluster, options);
  EXPECT_TRUE(store.ok());
  out->store = std::move(*store);
  for (VersionId v = 0; v < versions; ++v) {
    CommitDelta delta;
    for (const CompositeKey& ck : data.dataset.deltas[v].added) {
      delta.upserts.push_back(Record{ck, data.payloads.at(ck)});
    }
    VersionId parent =
        v == 0 ? kInvalidVersion : data.dataset.graph.PrimaryParent(v);
    if (v + 1 == versions) {
      const uint64_t before = out->cluster.stats().simulated_micros;
      auto r = out->store->Commit(parent, std::move(delta), &out->trace);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      out->charged_micros =
          out->cluster.stats().simulated_micros - before;
    } else {
      auto r = out->store->Commit(parent, std::move(delta));
      EXPECT_TRUE(r.ok()) << r.status().ToString();
    }
  }
  return out;
}

// The write-path counterpart of TraceReconcilesWithClusterCharges: a batch
// drain's "write.process_batch" root span covers the drain's entire
// simulated cost, the phase spans sit under it, and the flight recorder's
// "process_batch" record repeats the same numbers and the same span tree.
// Holding at ingest_shards 1 and 4 (the 8,400-record drain carves on
// worker threads at 4): sharding must not change the charge.
TEST(ObservabilityTest, IngestSpanReconcilesWithBackendCharge) {
  uint64_t serial_charge = 0;
  for (uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE("ingest_shards=" + std::to_string(shards));
    auto ingest = RunTracedBatchDrain(shards);
    const std::vector<TraceSpan>& spans = ingest->trace.spans();
    ASSERT_FALSE(spans.empty());
    EXPECT_EQ(spans[0].name, "write.process_batch");
    EXPECT_EQ(spans[0].parent, TraceSpan::kNoParent);
    EXPECT_GT(ingest->charged_micros, 0u);
    EXPECT_EQ(spans[0].sim_duration_us(), ingest->charged_micros);
    bool saw_index = false, saw_encode = false;
    for (const TraceSpan& span : spans) {
      if (span.name == "write.index_update") saw_index = true;
      if (span.name == "write.encode_and_put") saw_encode = true;
      if (span.parent != TraceSpan::kNoParent) {
        EXPECT_GE(span.sim_start_us, spans[span.parent].sim_start_us);
        EXPECT_LE(span.sim_end_us, spans[span.parent].sim_end_us);
      }
    }
    EXPECT_TRUE(saw_index);
    EXPECT_TRUE(saw_encode);

    // The flight record of this drain (newest "process_batch" entry)
    // carries the same total, a consistent attribution decomposition, and
    // the span tree re-based to depth 0.
    // Recent() returns a snapshot by value; keep it alive while inspecting.
    const std::vector<FlightRecord> recent = FlightRecorder::Default().Recent();
    const FlightRecord* record = nullptr;
    for (const FlightRecord& r : recent) {
      if (r.name == "process_batch") {
        record = &r;
        break;
      }
    }
    ASSERT_NE(record, nullptr);
    EXPECT_EQ(record->total_us, ingest->charged_micros);
    EXPECT_EQ(record->queue_wait_us + record->service_us +
                  record->retry_penalty_us - record->hedge_delta_us,
              record->total_us);
    ASSERT_EQ(record->spans.size(), spans.size());
    EXPECT_EQ(record->spans[0].name, "write.process_batch");
    EXPECT_EQ(record->spans[0].depth, 0u);

    if (shards == 1) {
      serial_charge = ingest->charged_micros;
    } else {
      // Writes are issued from the one calling thread in partition order,
      // so the simulated charge is identical to serial ingest.
      EXPECT_EQ(ingest->charged_micros, serial_charge);
    }
  }
}

// Every drain reaches the flight recorder, even when no caller passes a
// TraceContext: ProcessBatch falls back to a local context, so untraced
// Commit-driven drains still log a record with a full span tree.
TEST(ObservabilityTest, UntracedBatchDrainStillRecordsFlight) {
  Cluster cluster((ClusterOptions()));
  const ExampleData data = MakeChain(6, 6, 2);
  Options options;
  options.chunk_capacity_bytes = 600;
  options.online_batch_size = 2;
  auto store = RStore::Open(&cluster, options);
  ASSERT_TRUE(store.ok());
  const uint64_t marker = FlightRecorder::Default().NextQueryId();
  for (VersionId v = 0; v < 6; ++v) {
    CommitDelta delta;
    for (const CompositeKey& ck : data.dataset.deltas[v].added) {
      delta.upserts.push_back(Record{ck, data.payloads.at(ck)});
    }
    VersionId parent =
        v == 0 ? kInvalidVersion : data.dataset.graph.PrimaryParent(v);
    ASSERT_TRUE((*store)->Commit(parent, std::move(delta)).ok());
  }
  // 6 commits at batch size 2: three drains, each with its own record and
  // a span tree rooted at write.process_batch.
  size_t drains = 0;
  for (const FlightRecord& r : FlightRecorder::Default().Recent()) {
    if (r.id <= marker) break;  // Recent() is newest-first
    if (r.name != "process_batch") continue;
    ++drains;
    ASSERT_FALSE(r.spans.empty());
    EXPECT_EQ(r.spans[0].name, "write.process_batch");
    EXPECT_EQ(r.spans[0].depth, 0u);
  }
  EXPECT_EQ(drains, 3u);
}

// A failed drain is as visible as a slow query: with one replica per key
// and a node down, the drain's write batch fails, and its "process_batch"
// record carries the error it returned.
TEST(ObservabilityTest, FailedDrainRecordsItsStatus) {
  ClusterOptions cluster_options;
  cluster_options.replication_factor = 1;
  Cluster cluster(cluster_options);
  const ExampleData data = MakeChain(6, 6, 2);
  Options options;
  options.chunk_capacity_bytes = 600;
  options.online_batch_size = 100;
  auto store = RStore::Open(&cluster, options);
  ASSERT_TRUE(store.ok());
  for (VersionId v = 0; v < 6; ++v) {
    CommitDelta delta;
    for (const CompositeKey& ck : data.dataset.deltas[v].added) {
      delta.upserts.push_back(Record{ck, data.payloads.at(ck)});
    }
    VersionId parent =
        v == 0 ? kInvalidVersion : data.dataset.graph.PrimaryParent(v);
    ASSERT_TRUE((*store)->Commit(parent, std::move(delta)).ok());
  }
  cluster.SetNodeAlive(0, false);
  const uint64_t marker = FlightRecorder::Default().NextQueryId();
  Status flushed = (*store)->Flush();
  ASSERT_TRUE(flushed.IsIOError()) << flushed.ToString();

  const std::vector<FlightRecord> recent = FlightRecorder::Default().Recent();
  const FlightRecord* record = nullptr;
  for (const FlightRecord& r : recent) {
    if (r.id <= marker) break;  // Recent() is newest-first
    if (r.name == "process_batch") record = &r;
  }
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->status, flushed.ToString());
  ASSERT_FALSE(record->spans.empty());
  EXPECT_EQ(record->spans[0].name, "write.process_batch");
}

TEST(ObservabilityTest, RegistryCountersFoldIntoStoreReport) {
  MetricsRegistry::Default().ResetForTest();
  auto q = RunTracedGetVersion();

  // The instrumentation points fired during load + query.
  MetricsSnapshot snapshot = MetricsRegistry::Default().Snapshot();
  auto counter = [&snapshot](const std::string& name) -> uint64_t {
    for (const auto& [n, v] : snapshot.counters) {
      if (n == name) return v;
    }
    return 0;
  };
  EXPECT_EQ(counter("rstore_query_queries_total"), 1u);
  EXPECT_GT(counter("rstore_kvs_multiget_batches_total"), 0u);

  // Repartition deletes every old chunk: Delete charges must reach the
  // registry counters just as every other coordinator charge does.
  ASSERT_TRUE(q->store->Repartition().ok());
  snapshot = MetricsRegistry::Default().Snapshot();
  EXPECT_GT(q->cluster.stats().deletes, 0u);
  EXPECT_EQ(counter("rstore_kvs_simulated_micros_total"),
            q->cluster.stats().simulated_micros);

  // And the report surfaces them as metrics/<subsystem> layers.
  auto report = BuildStoreReport(*q->store, &q->cluster);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  std::string text = report->ToString();
  EXPECT_NE(text.find("metrics/kvs:"), std::string::npos);
  EXPECT_NE(text.find("metrics/query:"), std::string::npos);
  EXPECT_NE(text.find("metrics/write:"), std::string::npos);
  EXPECT_NE(text.find("queries_total=1"), std::string::npos);
}

}  // namespace
}  // namespace rstore

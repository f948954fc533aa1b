// Traffic benchmark: saturation throughput and tail latency of the async
// pipelined read path against the synchronous engine, on one deterministic
// mixed query stream (full-version / range / evolution / point, Zipf-skewed
// toward recent versions).
//
// The synchronous engine runs one query at a time: each query's simulated
// latency is max-over-nodes of its per-node service plus coordinator
// overhead, and every other node sits idle until the next query. The async
// engine keeps many queries in flight through one coordinator on a
// deterministic virtual-time executor; each node serves its batches FIFO, so
// saturation throughput is bounded by aggregate node capacity — the resource
// the sync engine leaves on the table. Strict reads must stay byte-identical:
// the bench fails hard if any async run's result fingerprint or chunk/byte
// accounting diverges from the sync baseline.
//
// Series:
//   sync          closed loop, one at a time (the baseline)
//   async_cN      closed loop with N queries in flight
//   open_loop     Poisson-free fixed-interval arrivals at ~60% of the
//                 measured saturation rate (latency includes queueing)
//
// Reported per series: p50/p99/p99.9 virtual-time latency (micros metrics
// feed tools/bench_diff.py's 25% regression gate) and throughput; plus the
// headline saturation_speedup = best async throughput / sync throughput.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "common/executor.h"
#include "common/flight_recorder.h"
#include "workload/traffic.h"

namespace {

using namespace rstore;
using namespace rstore::workload;
using namespace rstore::bench;

void ReportSeries(const std::string& series, const TrafficReport& r,
                  BenchReport* report) {
  std::printf("%-10s %8.1f qps   p50 %7llu  p99 %7llu  p99.9 %7llu us\n",
              series.c_str(), r.throughput_qps(),
              (unsigned long long)r.PercentileLatencyUs(50),
              (unsigned long long)r.PercentileLatencyUs(99),
              (unsigned long long)r.PercentileLatencyUs(99.9));
  report->Add(series + "_p50_micros",
              static_cast<double>(r.PercentileLatencyUs(50)));
  report->Add(series + "_p99_micros",
              static_cast<double>(r.PercentileLatencyUs(99)));
  report->Add(series + "_p999_micros",
              static_cast<double>(r.PercentileLatencyUs(99.9)));
  report->Add(series + "_throughput_qps", r.throughput_qps());
}

/// Per-class latency attribution: where each query class's simulated time
/// went (queue wait behind saturated nodes, service, retry penalty, hedge
/// savings). All names end in _micros, so bench_diff.py gates them at the
/// deterministic simulation tier.
void ReportAttribution(const std::string& series, const TrafficReport& r,
                       BenchReport* report) {
  static const char* const kClassNames[] = {"full", "range", "evolution",
                                            "point"};
  for (size_t k = 0; k < r.stats_by_kind.size(); ++k) {
    const QueryStats& qs = r.stats_by_kind[k];
    const std::string prefix = series + "_" + kClassNames[k] + "_";
    report->Add(prefix + "queue_wait_micros",
                static_cast<double>(qs.queue_wait_us));
    report->Add(prefix + "service_micros", static_cast<double>(qs.service_us));
    report->Add(prefix + "retry_micros",
                static_cast<double>(qs.retry_penalty_us));
    report->Add(prefix + "hedge_micros",
                static_cast<double>(qs.hedge_delta_us));
  }
}

/// The attribution conservation invariant, enforced on every series the
/// bench runs: parts must sum to the whole, exactly.
void CheckConservation(const char* series, const TrafficReport& r) {
  const QueryStats& qs = r.stats;
  if (!qs.Balanced()) {
    std::fprintf(stderr,
                 "%s: attribution violates conservation "
                 "(%llu + %llu + %llu - %llu != %llu)\n",
                 series, (unsigned long long)qs.queue_wait_us,
                 (unsigned long long)qs.service_us,
                 (unsigned long long)qs.retry_penalty_us,
                 (unsigned long long)qs.hedge_delta_us,
                 (unsigned long long)qs.simulated_micros);
    std::exit(1);
  }
}

/// Async runs must agree with the sync baseline on every query's bytes and
/// on the backend work performed — the strict-read equivalence contract.
void CheckEquivalent(const char* series, const TrafficReport& async_report,
                     const TrafficReport& sync_report) {
  if (async_report.result_hash != sync_report.result_hash ||
      async_report.failed != sync_report.failed) {
    std::fprintf(stderr,
                 "%s: async results diverge from sync baseline "
                 "(hash %016llx vs %016llx, failed %llu vs %llu)\n",
                 series, (unsigned long long)async_report.result_hash,
                 (unsigned long long)sync_report.result_hash,
                 (unsigned long long)async_report.failed,
                 (unsigned long long)sync_report.failed);
    std::exit(1);
  }
  if (async_report.stats.chunks_fetched != sync_report.stats.chunks_fetched ||
      async_report.stats.bytes_fetched != sync_report.stats.bytes_fetched) {
    std::fprintf(stderr, "%s: async accounting diverges from sync baseline\n",
                 series);
    std::exit(1);
  }
}

}  // namespace

int main() {
  DatasetConfig config;
  config.name = "traffic";
  config.num_versions = SmokeMode() ? 10 : 40;
  config.records_per_version = SmokeMode() ? 80 : 400;
  config.record_size_bytes = 200;
  config.update_fraction = 0.10;
  config.branch_probability = 0.10;
  config.seed = 9091;
  GeneratedDataset gen = GenerateDataset(config);

  Options options;
  options.chunk_capacity_bytes = ScaledChunkCapacity(gen);
  // 12 nodes: small queries touch one or two of them, so the sync engine
  // idles most of the cluster — the capacity the async path reclaims.
  LoadedStore loaded =
      LoadStore(gen, PartitionAlgorithm::kBottomUp, options, /*num_nodes=*/12);
  RStore* store = loaded.store.get();

  TrafficOptions traffic;
  traffic.seed = 99;
  traffic.num_queries = SmokeMode() ? 80 : 400;
  // Interactive mix: point lookups dominate (as in real checkout traffic);
  // the occasional full-version retrieval keeps whole-cluster bursts in.
  traffic.weight_full = 1;
  traffic.weight_range = 3;
  traffic.weight_evolution = 3;
  traffic.weight_point = 13;
  traffic.range_selectivity = 0.03;
  const std::vector<Query> queries = GenerateTraffic(gen.dataset, traffic);

  BenchReport report("traffic");
  const TrafficReport sync_report = RunTrafficSync(store, queries);
  CheckConservation("sync", sync_report);
  ReportSeries("sync", sync_report, &report);
  ReportAttribution("sync", sync_report, &report);

  // One executor per store: all async traffic against one cluster shares
  // one virtual timeline (sweeping on it keeps per-run latencies exact —
  // each run starts after the previous one drained).
  Executor executor(0);
  double saturation_qps = 0.0;
  for (uint32_t concurrency : {1u, 4u, 16u, 64u}) {
    traffic.arrival_interval_us = 0;
    traffic.concurrency = concurrency;
    const TrafficReport r = RunTrafficAsync(store, &executor, queries, traffic);
    const std::string series = "async_c" + std::to_string(concurrency);
    CheckEquivalent(series.c_str(), r, sync_report);
    CheckConservation(series.c_str(), r);
    ReportSeries(series, r, &report);
    if (concurrency == 16) ReportAttribution(series, r, &report);
    if (r.throughput_qps() > saturation_qps) {
      saturation_qps = r.throughput_qps();
    }
  }
  const double speedup = sync_report.throughput_qps() > 0
                             ? saturation_qps / sync_report.throughput_qps()
                             : 0.0;
  std::printf("saturation speedup over sync: %.2fx\n", speedup);
  report.Add("saturation_speedup", speedup);

  // Open loop below saturation: latency now includes queueing behind
  // earlier arrivals, the regime the tail percentiles are about.
  traffic.arrival_interval_us =
      static_cast<uint64_t>(1e6 / (0.6 * saturation_qps));
  const TrafficReport open = RunTrafficAsync(store, &executor, queries, traffic);
  CheckEquivalent("open_loop", open, sync_report);
  CheckConservation("open_loop", open);
  ReportSeries("open_loop", open, &report);

  report.Write();

  // The flight recorder saw every query above; its dump is the bench's
  // debugging artifact (tools/latency_report.py renders it). Named outside
  // the BENCH_*.json namespace so bench_diff.py never tries to gate it.
  const std::string dump = FlightRecorder::Default().DumpJson();
  std::FILE* f = std::fopen("flight_traffic.json", "w");
  if (f != nullptr) {
    std::fwrite(dump.data(), 1, dump.size(), f);
    std::fclose(f);
    std::printf("wrote flight_traffic.json\n");
  }
  return 0;
}

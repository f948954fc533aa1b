// The repository's end-to-end benchmark: one workload per run, every answer
// checked against the dataset, every latency on two clocks (modeled backend
// time plus measured client CPU time). README.md describes the workloads and
// metrics.
//
//   rstore_bench --workload serve_async --seed 1 --seconds 50 --trace 0
//
// A run sets up its store several times (set-up time is the median), then
// measures for --seconds: the capacity search, then serving passes on the
// set-up store interleaved with ingest passes into fresh clusters. Every
// timed operation runs several times, and the metrics take its best
// execution (BestOf in harness.h). With --trace 0 the
// store sits on the bare Cluster and the run reports the end-to-end
// metrics; with --trace 1 it sits behind TimingKVStore, every call carries a
// TraceContext, and the run reports the per-layer metrics. The last line of
// standard output is one JSON object:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace {

using namespace perfbench;

struct WorkloadSpec {
  const char* name;
  /// A 64 MB chunk cache, warmed in set-up by checking out every version.
  bool cache;
  /// Serving passes go through the async read path, open loop.
  bool async_serve;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"checkout_hot", true, false},
    {"serve_async", false, true},
};

/// Share of the measured window spent on ingest passes.
constexpr double kWriteShare = 0.25;

constexpr uint64_t kHotCacheBytes = 64ull << 20;
/// p99 limit of the capacity search, about 2.5x an unloaded full checkout.
constexpr double kLatencyLimitUs = 25000;
/// serve_async's fixed offered rate (400 qps), about half the capacity.
constexpr uint64_t kServeIntervalUs = 2500;
constexpr int kSetupRepeats = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "rstore_bench: %s\nusage: rstore_bench --workload "
               "<checkout_hot|serve_async> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) Usage("missing value");
    const char* flag = argv[i];
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(flag, "--trace") == 0) {
      args.trace = std::strcmp(value, "0") != 0;
    } else {
      Usage("unknown flag");
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  return args;
}

double Median(std::vector<double> values) { return Percentile(values, 50); }

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

rstore::KVStats Delta(const rstore::KVStats& after,
                      const rstore::KVStats& before) {
  rstore::KVStats d;
  d.multiget_batches = after.multiget_batches - before.multiget_batches;
  d.keys_requested = after.keys_requested - before.keys_requested;
  d.bytes_read = after.bytes_read - before.bytes_read;
  d.simulated_micros = after.simulated_micros - before.simulated_micros;
  d.retries = after.retries - before.retries;
  d.timeouts = after.timeouts - before.timeouts;
  return d;
}

class Report {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    for (const Entry& e : entries_) {
      std::printf("  %-40s %16.6g %s\n", e.name.c_str(), e.value, e.unit);
    }
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", entries_[i].value);
      json += (i ? ", \"" : "\"") + entries_[i].name + "\": {\"value\": " +
              value + ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec* w = nullptr;
  for (const WorkloadSpec& spec : kWorkloads) {
    if (args.workload == spec.name) w = &spec;
  }
  if (w == nullptr) Usage("unknown workload");
  // Keep freed memory in the process. By default glibc serves every block
  // of 128 KB or more (a decoded chunk, an encode buffer) with a fresh mmap
  // and returns it on free, so each one costs page faults whose price
  // follows the host's memory pressure; that, not the code, then set most
  // of the run-to-run spread of the decode- and ingest-heavy metrics.
  mallopt(M_MMAP_THRESHOLD, 256 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_TOP_PAD, 64 << 20);
  const Scale scale;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  // ---- Set-up, repeated; the last repeat's store is the one measured.
  std::vector<double> setup_s, generate_s, load_s, warm_s;
  std::unique_ptr<Inputs> in;
  Store read;
  for (int r = 0; r < kSetupRepeats; ++r) {
    read = Store{};
    in.reset();
    const double t0 = CpuUs();
    in = GenerateInputs(args.seed, scale);
    const double t1 = CpuUs();
    read = OpenStore(StoreOptions(*in, w->cache ? kHotCacheBytes : 0),
                     args.trace);
    rstore::Status s = read.store->BulkLoad(in->gen.dataset, in->gen.payloads);
    if (s.ok()) s = read.store->Flush();
    if (!s.ok()) Die("bulk load", s);
    const double t2 = CpuUs();
    if (w->cache) failed += CheckoutAll(read.store.get(), *in, &attempted);
    const double t3 = CpuUs();
    setup_s.push_back((t3 - t0) / 1e6);
    generate_s.push_back((t1 - t0) / 1e6);
    load_s.push_back((t2 - t1) / 1e6);
    warm_s.push_back((t3 - t2) / 1e6);
  }
  rstore::RStore* rs = read.store.get();
  size_t absent = 0;
  for (const Expected& e : in->expected) absent += e.found ? 0 : 1;
  std::printf(
      "workload %s seed %" PRIu64 " trace %d: %u versions x %u records x %u "
      "B, %zu distinct records, %.1f MB logical, %.1f MB stored in %" PRIu64
      " chunks, cache %.0f MB, %zu queries in %zu slices (%zu point lookups "
      "of absent keys must answer NotFound)\n",
      w->name, args.seed, args.trace ? 1 : 0, scale.versions,
      scale.records_per_version, scale.record_bytes, in->gen.payloads.size(),
      in->logical_bytes / 1e6, read.stored_bytes() / 1e6, rs->NumChunks(),
      w->cache ? kHotCacheBytes / 1048576.0 : 0.0, in->queries.size(),
      in->slices.size(), absent);

  // ---- Measured window: ingest passes and serving passes interleaved,
  // ingest taking kWriteShare of the time, so that both kinds of pass
  // sample the whole window. In a traced run the first serving pass is an
  // untraced reference for the tracing overhead.
  const double window_start = NowUs();
  const double deadline = window_start + args.seconds * 1e6;

  const rstore::Options write_options = StoreOptions(*in, 0);
  WriteStats writes;
  double write_time_us = 0;
  rstore::KVStats write_kv;
  uint64_t write_chunks = 0;
  double write_compression = 0;
  Store last_write;

  rstore::Executor executor(args.seed);
  const Capacity cap =
      SearchCapacity(rs, &executor, *in, in->probe_ids, kLatencyLimitUs);
  ReadStats reads, read_ref;
  rstore::KVStats read_kv;
  uint64_t evictions = 0;
  double kv_read_wall_us = 0;
  double first_traced_client_us = 0;
  for (;;) {
    const double now = NowUs();
    if (now >= deadline && writes.passes > 0 && reads.passes > 0) break;
    if (writes.passes == 0 ||
        write_time_us < kWriteShare * (now - window_start)) {
      Store ws = OpenStore(write_options, args.trace);
      IngestPass(&ws, *in, args.trace, &writes);
      if (args.trace) {
        write_kv += ws.cluster->stats();
        write_chunks += ws.store->NumChunks();
        write_compression = ws.store->CompressionRatio();
      }
      last_write = std::move(ws);
      write_time_us += NowUs() - now;
      continue;
    }
    const bool traced = args.trace && read_ref.passes > 0;
    ReadStats* target = args.trace && !traced ? &read_ref : &reads;
    // Passes take the slices in turn; the reference pass and the first
    // traced pass both serve slice 0.
    const std::vector<size_t>& ids =
        in->slices[reads.passes % in->slices.size()];
    const rstore::KVStats kv0 = read.cluster->stats();
    const uint64_t evict0 =
        rs->chunk_cache() ? rs->chunk_cache()->stats().evictions : 0;
    const double kv_wall0 = read.timing ? read.timing->read_wall_us() : 0;
    if (w->async_serve) {
      RunOpenLoop(rs, &executor, *in, ids, kServeIntervalUs, traced, target);
    } else {
      SyncPass(rs, *in, ids, traced, target);
    }
    if (traced) {
      if (reads.passes == 1) first_traced_client_us = reads.client_us;
      read_kv += Delta(read.cluster->stats(), kv0);
      if (rs->chunk_cache()) {
        evictions += rs->chunk_cache()->stats().evictions - evict0;
      }
      kv_read_wall_us += read.timing->read_wall_us() - kv_wall0;
    }
  }
  const double window_s = (NowUs() - window_start) / 1e6;

  // ---- Untimed checks and totals.
  failed += VerifyStore(last_write.store.get(), *in, &attempted);
  failed += VerifyStore(rs, *in, &attempted);
  attempted += writes.attempted;
  failed += writes.failed;
  for (const ReadStats* rd : {&reads, &read_ref}) {
    attempted += rd->queries;
    failed += rd->failed;
  }
  attempted += cap.queries;
  failed += cap.failed;
  const uint64_t unreconciled =
      reads.fold.unreconciled_roots + writes.fold.unreconciled_roots;
  const bool correct = failed == 0 && unreconciled == 0;
  // One client thread serves at most 10^6 / (its CPU per query) queries a
  // second; with the cache warm that, not the backend, is the limit.
  const double client_qps = Ratio(1e6, reads.mix_client_us_per_query(*in));

  std::printf(
      "window %.2f s: %" PRIu64 " ingest passes (%" PRIu64
      " commits), %" PRIu64 " serving passes (%" PRIu64
      " queries), capacity search %" PRIu64 " probes (%" PRIu64 " queries: backend %.0f qps, client thread %.0f "
      "qps); %" PRIu64 " of %" PRIu64 " operations failed%s\n",
      window_s, writes.passes, writes.commits,
      reads.passes + read_ref.passes, reads.queries + read_ref.queries,
      cap.probes, cap.queries, cap.virtual_qps, client_qps, failed, attempted,
      unreconciled ? "; span self times do not reconcile" : "");

  Report report;
  const double q = static_cast<double>(reads.queries);
  if (!args.trace) {
    using Kind = Query::Kind;
    const std::vector<double> full = reads.latency_us(*in, Kind::kFullVersion);
    const std::vector<double> range = reads.latency_us(*in, Kind::kRange);
    const std::vector<double> history =
        reads.latency_us(*in, Kind::kEvolution);
    const std::vector<double> point = reads.latency_us(*in, Kind::kPoint);
    const std::vector<double> commit = writes.commit_us(*in);
    report.Add("full_p50_us", Percentile(full, 50), "us");
    report.Add("full_p90_us", Percentile(full, 90), "us");
    report.Add("range_p50_us", Percentile(range, 50), "us");
    report.Add("range_p90_us", Percentile(range, 90), "us");
    report.Add("history_p50_us", Percentile(history, 50), "us");
    report.Add("history_p90_us", Percentile(history, 90), "us");
    report.Add("point_p50_us", Percentile(point, 50), "us");
    report.Add("point_p99_us", Percentile(point, 99), "us");
    report.Add("client_us_per_query", reads.mix_client_us_per_query(*in),
               "us");
    report.Add("serve_max_qps", std::min(cap.virtual_qps, client_qps),
               "1/s");
    report.Add("ingest_records_per_s", writes.records_per_s(*in), "1/s");
    report.Add("commit_p50_us", Percentile(commit, 50), "us");
    report.Add("commit_p99_us", Percentile(commit, 99), "us");
    report.Add("stored_bytes_per_user_byte",
               Ratio(static_cast<double>(read.stored_bytes()),
                     static_cast<double>(in->logical_bytes)),
               "ratio");
    report.Add("setup_s", Median(setup_s), "s");
  } else {
    const SpanFold& rf = reads.fold;
    const SpanFold& wf = writes.fold;
    const double drains =
        static_cast<double>(wf.spans("write.process_batch"));
    std::vector<double> node_bytes;
    for (uint32_t n = 0; n < read.cluster->num_nodes(); ++n) {
      node_bytes.push_back(static_cast<double>(read.cluster->NodeBytes(n)));
    }
    double node_sum = 0, node_max = 0;
    for (double b : node_bytes) {
      node_sum += b;
      node_max = std::max(node_max, b);
    }
    const rstore::QueryStats& qs = reads.stats;
    const auto per_query = [&](double v) { return Ratio(v, q); };
    report.Add("kvstore.multigets_per_query",
               per_query(read_kv.multiget_batches), "count");
    report.Add("kvstore.keys_per_query", per_query(read_kv.keys_requested),
               "count");
    report.Add("kvstore.bytes_read_per_query", per_query(read_kv.bytes_read),
               "B");
    report.Add("kvstore.sim_us_per_query", per_query(qs.simulated_micros),
               "us");
    report.Add("kvstore.wall_us_per_query", per_query(kv_read_wall_us), "us");
    report.Add("kvstore.queue_wait_us_per_query",
               per_query(qs.queue_wait_us), "us");
    report.Add("kvstore.service_us_per_query", per_query(qs.service_us),
               "us");
    report.Add("kvstore.node_bytes_max_over_mean",
               Ratio(node_max, node_sum / node_bytes.size()), "ratio");
    report.Add("kvstore.puts_per_drain",
               Ratio(static_cast<double>(write_kv.puts), drains), "count");
    report.Add("kvstore.write_amp",
               Ratio(static_cast<double>(write_kv.bytes_written),
                     static_cast<double>(in->logical_bytes * writes.passes)),
               "ratio");
    report.Add("kvstore.retries",
               static_cast<double>(read_kv.retries + write_kv.retries),
               "count");
    report.Add("kvstore.timeouts",
               static_cast<double>(read_kv.timeouts + write_kv.timeouts),
               "count");
    report.Add("query.chunks_per_query", per_query(qs.chunks_fetched),
               "count");
    report.Add("query.decode_us_per_query", per_query(rf.self("query.decode")),
               "us");
    report.Add("query.extract_us_per_query",
               per_query(rf.self_with_prefix("query.get_")), "us");
    report.Add("query.fetch_self_us_per_query",
               per_query(rf.self("query.fetch_chunks")), "us");
    report.Add("query.records_returned_per_query",
               per_query(reads.records_returned), "count");
    report.Add("cache.hit_rate",
               Ratio(qs.cache_hits, qs.cache_hits + qs.cache_misses),
               "ratio");
    report.Add("cache.evictions", static_cast<double>(evictions), "count");
    report.Add("cache.lookup_us_per_query", per_query(rf.self("cache.lookup")),
               "us");
    report.Add("cache.resident_bytes",
               rs->chunk_cache()
                   ? static_cast<double>(
                         rs->chunk_cache()->stats().charged_bytes)
                   : 0.0,
               "B");
    report.Add("write.stage_us_per_commit",
               Ratio(writes.commit_wall_us - writes.drain_in_commit_us,
                     static_cast<double>(writes.commits)),
               "us");
    report.Add("write.drain_us", Ratio(wf.self_with_prefix("write."), drains),
               "us");
    report.Add("write.partition_us_per_drain",
               Ratio(wf.self("write.partition"), drains), "us");
    report.Add("write.encode_and_put_self_us_per_drain",
               Ratio(wf.self("write.encode_and_put"), drains), "us");
    report.Add("write.index_update_us_per_drain",
               Ratio(wf.self("write.index_update"), drains), "us");
    report.Add("write.map_rewrite_us_per_drain",
               Ratio(wf.self("write.map_rewrite"), drains), "us");
    report.Add("write.chunks_per_drain",
               Ratio(static_cast<double>(write_chunks), drains), "count");
    report.Add("write.build_subchunks_us_per_record",
               Ratio(wf.self("write.build_subchunks"),
                     static_cast<double>(writes.records)),
               "us");
    report.Add("write.compression_ratio", write_compression, "ratio");
    report.Add("layout.total_version_span",
               static_cast<double>(rs->TotalVersionSpan()), "count");
    report.Add("layout.num_chunks", static_cast<double>(rs->NumChunks()),
               "count");
    report.Add("executor.backlog_peak",
               static_cast<double>(w->async_serve ? reads.backlog_peak
                                                  : cap.backlog_peak),
               "count");
    report.Add("setup.generate_s", Median(generate_s), "s");
    report.Add("setup.load_s", Median(load_s), "s");
    report.Add("setup.warm_s", Median(warm_s), "s");
    // Tracing overhead of serving: the first traced pass over the untraced
    // reference pass, which serve the same slice.
    report.Add("trace.overhead_ratio",
               Ratio(first_traced_client_us, read_ref.client_us), "ratio");
    report.Add("trace.self_over_root",
               Ratio(rf.self_sum_us + wf.self_sum_us, rf.root_us + wf.root_us),
               "ratio");
  }
  report.Print(correct, attempted, failed);
  return 0;
}

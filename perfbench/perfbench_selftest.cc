// Self-test of the benchmark's own machinery, on a small dataset:
//  - TimingKVStore is transparent: bare and decorated stores return
//    identical result hashes and identical KVStats, sync and async, for
//    bulk-loaded and commit-built stores;
//  - the answer oracle accepts every correct answer (NotFound included) and
//    rejects a wrong one;
//  - span folding computes self time as duration minus covered child time,
//    and flags trees whose children overlap;
//  - the best-of bookkeeping charges each query what the metrics promise.
// Exits 0 when every check passes.
//
//   perfbench_selftest

#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

namespace {

using namespace perfbench;

int failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool SameStats(const rstore::KVStats& a, const rstore::KVStats& b) {
  return a.gets == b.gets && a.puts == b.puts && a.deletes == b.deletes &&
         a.multiget_batches == b.multiget_batches &&
         a.keys_requested == b.keys_requested &&
         a.bytes_read == b.bytes_read && a.bytes_written == b.bytes_written &&
         a.simulated_micros == b.simulated_micros && a.retries == b.retries &&
         a.hedges == b.hedges && a.hedge_wins == b.hedge_wins &&
         a.timeouts == b.timeouts && a.handoff_hints == b.handoff_hints &&
         a.handoff_replays == b.handoff_replays &&
         a.queue_wait_us == b.queue_wait_us && a.service_us == b.service_us &&
         a.retry_penalty_us == b.retry_penalty_us &&
         a.hedge_delta_us == b.hedge_delta_us;
}

/// Loads `in` into a bare and a decorated store the same way, runs the
/// stream through both (sync, then async), and compares.
void CheckDecorator(const Inputs& in, bool online) {
  const std::string mode = online ? "commit-built" : "bulk-loaded";
  Store stores[2] = {OpenStore(StoreOptions(in, 0), false),
                     OpenStore(StoreOptions(in, 0), true)};
  uint64_t sync_hash[2], async_hash[2];
  for (int i = 0; i < 2; ++i) {
    Store& s = stores[i];
    if (online) {
      WriteStats ws;
      IngestPass(&s, in, /*traced=*/i == 1, &ws);
      Check(ws.failed == 0, mode + " ingest succeeds");
    } else {
      Check(s.store->BulkLoad(in.gen.dataset, in.gen.payloads).ok() &&
                s.store->Flush().ok(),
            mode + " bulk load succeeds");
    }
    sync_hash[i] =
        rstore::workload::RunTrafficSync(s.store.get(), in.queries)
            .result_hash;
    rstore::Executor executor(7);
    rstore::workload::TrafficOptions traffic;
    traffic.arrival_interval_us = 2000;
    async_hash[i] = rstore::workload::RunTrafficAsync(
                        s.store.get(), &executor, in.queries, traffic)
                        .result_hash;
  }
  Check(sync_hash[0] == sync_hash[1], mode + ": sync result hashes agree");
  Check(async_hash[0] == async_hash[1], mode + ": async result hashes agree");
  Check(SameStats(stores[0].cluster->stats(), stores[1].timing->stats()),
        mode + ": KVStats agree");
  Check(stores[1].timing->calls(TimingKVStore::kMultiGet) > 0 &&
            stores[1].timing->calls(TimingKVStore::kMultiGetAsync) > 0 &&
            stores[1].timing->read_wall_us() > 0,
        mode + ": decorator timed the reads");
}

void CheckOracle(const Inputs& in) {
  Store s = OpenStore(StoreOptions(in, 0), false);
  Check(s.store->BulkLoad(in.gen.dataset, in.gen.payloads).ok(), "load");
  std::vector<size_t> all(in.queries.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  ReadStats reads;
  SyncPass(s.store.get(), in, all, /*traced=*/true, &reads);
  Check(reads.failed == 0, "oracle accepts every sync answer");
  Check(reads.fold.unreconciled_roots == 0 &&
            reads.fold.roots == in.queries.size(),
        "traced query spans reconcile with their roots");
  Query absent;
  absent.kind = Query::Kind::kPoint;
  absent.key = "absent-key";
  absent.version = 0;
  const Expected none = in.oracle->Answer(absent);
  auto lookup = s.store->GetRecord(absent.key, absent.version);
  Check(!none.found &&
            Oracle::MatchesPoint(none, lookup.status(), nullptr),
        "NotFound for an absent key is a correct answer");

  rstore::Executor executor(3);
  ReadStats async_reads;
  RunOpenLoop(s.store.get(), &executor, in, all, 5000, true, &async_reads);
  Check(async_reads.failed == 0, "oracle accepts every async answer");
  Check(async_reads.fold.unreconciled_roots == 0,
        "traced async query spans reconcile with their roots");

  // A tampered answer must be rejected.
  for (size_t i = 0; i < in.queries.size(); ++i) {
    if (in.queries[i].kind != Query::Kind::kFullVersion) continue;
    auto r = s.store->GetVersion(in.queries[i].version);
    Check(r.ok() && Oracle::Matches(in.expected[i], r.status(), r.value()),
          "full checkout matches");
    std::vector<rstore::Record> records = r.value();
    records.back().payload += "x";
    Check(!Oracle::Matches(in.expected[i], r.status(), records),
          "tampered payload is rejected");
    records.pop_back();
    Check(!Oracle::Matches(in.expected[i], r.status(), records),
          "missing record is rejected");
    break;
  }
  Check(VerifyStore(s.store.get(), in, &reads.queries) == 0,
        "post-load verification passes");
}

rstore::TraceSpan Span(uint32_t id, uint32_t parent, const char* name,
                       int64_t start, int64_t end) {
  rstore::TraceSpan s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.wall_start_us = start;
  s.wall_end_us = end;
  return s;
}

void CheckFolding() {
  const uint32_t none = rstore::TraceSpan::kNoParent;
  SpanFold nested;
  FoldSpans({Span(0, none, "query.get_version", 0, 100),
             Span(1, 0, "query.fetch_chunks", 10, 80),
             Span(2, 1, "kvs.multiget", 20, 50),
             Span(3, 2, "node0", 50, 50),
             Span(4, 1, "query.decode", 50, 75)},
            &nested);
  Check(nested.self("query.get_version") == 30 &&
            nested.self("query.fetch_chunks") == 15 &&
            nested.self("kvs.multiget") == 30 &&
            nested.self("query.decode") == 25 && nested.self("kvs.node") == 0,
        "self time is duration minus covered child time");
  Check(nested.roots == 1 && nested.root_us == 100 &&
            nested.self_sum_us == 100 && nested.unreconciled_roots == 0,
        "nested tree reconciles");
  SpanFold overlapping;
  FoldSpans({Span(0, none, "write.process_batch", 0, 100),
             Span(1, 0, "write.partition", 10, 60),
             Span(2, 0, "write.map_rewrite", 40, 90)},
            &overlapping);
  Check(overlapping.self("write.process_batch") == 20 &&
            overlapping.unreconciled_roots == 1,
        "overlapping children are flagged");
}

void CheckBestOf(const Inputs& in) {
  BestOf best;
  best.Add(2, 5);
  best.Add(2, 3);
  best.Add(2, 4);
  Check(best.seen(2) && best.value[2] == 3 && !best.seen(0) && !best.seen(7),
        "best-of keeps each operation's lowest value");
  // Point lookups 0 and 1 of the stream, each served by two sync passes
  // and two async passes.
  std::vector<size_t> points;
  for (size_t i = 0; i < in.queries.size() && points.size() < 2; ++i) {
    if (in.queries[i].kind == Query::Kind::kPoint) points.push_back(i);
  }
  ReadStats sync, async;
  for (double client : {9.0, 7.0}) {
    sync.Add(points[0], 100, client);
    sync.Add(points[1], 200, client + 1);
  }
  for (double pass_client : {9.0, 7.0}) {
    async.Add(points[0], 100, pass_client);
    async.Add(points[1], 200, pass_client);
    async.pass_client_us.push_back(pass_client);
  }
  Check(sync.latency_us(in, Query::Kind::kPoint) ==
                std::vector<double>({107, 208}) &&
            sync.latency_us(in, Query::Kind::kFullVersion).empty(),
        "a sync query is charged its modeled time plus its best client CPU");
  Check(async.latency_us(in, Query::Kind::kPoint) ==
                std::vector<double>({107, 207}) &&
            async.mix_client_us_per_query(in) == 7,
        "an async query is charged the cheapest passes' client CPU");
}

}  // namespace

int main() {
  Scale scale;
  scale.versions = 40;
  scale.records_per_version = 300;
  scale.record_bytes = 200;
  scale.queries = 200;
  scale.slices = 2;
  scale.probe_queries = 100;
  const std::unique_ptr<Inputs> in = GenerateInputs(11, scale);
  CheckDecorator(*in, /*online=*/false);
  CheckDecorator(*in, /*online=*/true);
  CheckOracle(*in);
  CheckFolding();
  CheckBestOf(*in);
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "PASSED",
              failures);
  return failures ? 1 : 0;
}

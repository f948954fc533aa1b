#include "workload/traffic.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <set>

#include "common/hash.h"
#include "common/logging.h"
#include "common/random.h"

namespace rstore {
namespace workload {

namespace {

/// Order-independent per-query fingerprint: mixes the submission index with
/// the status code and, for a successful query only, the records hash, so
/// XOR-combining across queries detects any query returning different bytes
/// (or a different error). A failed query's records are not read.
uint64_t QueryFingerprint(size_t index, const Status& status,
                          const std::vector<Record>& records) {
  uint64_t h = Mix64(static_cast<uint64_t>(index) ^ 0x9e3779b97f4a7c15ull);
  h ^= Mix64(static_cast<uint64_t>(status.code()) + 1);
  if (status.ok()) h ^= HashRecords(records);
  return Mix64(h);
}

/// Folds one finished query into `report`.
void AddQuery(TrafficReport* report, size_t index, Query::Kind kind,
              const Status& status, const std::vector<Record>& records,
              const QueryStats& qs) {
  report->stats += qs;
  report->stats_by_kind[static_cast<size_t>(kind)] += qs;
  if (status.ok()) {
    ++report->completed;
  } else {
    ++report->failed;
  }
  report->result_hash ^= QueryFingerprint(index, status, records);
}

std::vector<std::string> DistinctKeys(const VersionedDataset& dataset) {
  std::set<std::string> unique;
  for (const VersionDelta& delta : dataset.deltas) {
    for (const CompositeKey& ck : delta.added) unique.insert(ck.key);
  }
  return std::vector<std::string>(unique.begin(), unique.end());
}

}  // namespace

uint64_t HashRecords(const std::vector<Record>& records) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV offset basis, arbitrary nonzero
  for (const Record& r : records) {
    h = Mix64(h ^ Fnv1a64(r.key.key));
    h = Mix64(h ^ r.key.version);
    h = Mix64(h ^ Fnv1a64(r.payload));
  }
  return h;
}

std::vector<Query> GenerateTraffic(const VersionedDataset& dataset,
                                   const TrafficOptions& options) {
  RSTORE_CHECK(dataset.graph.size() > 0) << "empty dataset";
  Random rng(options.seed);
  ZipfGenerator zipf(dataset.graph.size(),
                     options.zipf_theta > 0 ? options.zipf_theta : 0.01);
  const std::vector<std::string> keys = DistinctKeys(dataset);
  RSTORE_CHECK(!keys.empty()) << "dataset has no keys";
  const size_t span = std::max<size_t>(
      1, static_cast<size_t>(options.range_selectivity * keys.size()));
  const uint64_t w_full = options.weight_full;
  const uint64_t w_range = w_full + options.weight_range;
  const uint64_t w_evo = w_range + options.weight_evolution;
  const uint64_t total = w_evo + options.weight_point;
  RSTORE_CHECK(total > 0) << "all mix weights zero";

  std::vector<Query> out(options.num_queries);
  for (Query& q : out) {
    // Zipf rank 0 = newest version: hot recent checkouts.
    q.version = static_cast<VersionId>(dataset.graph.size() - 1 -
                                       zipf.Sample(&rng));
    const uint64_t pick = rng.Uniform(total);
    if (pick < w_full) {
      q.kind = Query::Kind::kFullVersion;
    } else if (pick < w_range) {
      q.kind = Query::Kind::kRange;
      const size_t start =
          rng.Uniform(keys.size() - std::min(span, keys.size()) + 1);
      q.key_lo = keys[start];
      q.key_hi = keys[std::min(start + span, keys.size()) - 1];
    } else if (pick < w_evo) {
      q.kind = Query::Kind::kEvolution;
      q.key = keys[rng.Uniform(keys.size())];
    } else {
      q.kind = Query::Kind::kPoint;
      q.key = keys[rng.Uniform(keys.size())];
    }
  }
  return out;
}

double TrafficReport::throughput_qps() const {
  if (makespan_us == 0) return 0.0;
  return static_cast<double>(completed) * 1e6 /
         static_cast<double>(makespan_us);
}

uint64_t TrafficReport::PercentileLatencyUs(double p) const {
  if (latencies_us.empty()) return 0;
  std::vector<uint64_t> sorted = latencies_us;
  std::sort(sorted.begin(), sorted.end());
  // Nearest-rank: the smallest latency >= p percent of the distribution.
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  if (rank == 0) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

TrafficReport RunTrafficSync(RStore* store,
                             const std::vector<Query>& queries) {
  TrafficReport report;
  report.latencies_us.resize(queries.size(), 0);
  const std::vector<Record> none;  // stands in for a failed query's records
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryStats qs;
    const Result<std::vector<Record>> r = store->Run(queries[i], &qs);
    report.latencies_us[i] = qs.simulated_micros;
    report.makespan_us += qs.simulated_micros;
    AddQuery(&report, i, queries[i].kind, r.status(), r.ok() ? *r : none, qs);
  }
  return report;
}

TrafficReport RunTrafficAsync(RStore* store, Executor* executor,
                              const std::vector<Query>& queries,
                              const TrafficOptions& options) {
  struct Shared {
    RStore* store = nullptr;
    Executor* executor = nullptr;
    const std::vector<Query>* queries = nullptr;
    bool closed_loop = false;
    TrafficReport report;
    size_t next = 0;  // next query to submit (closed-loop refill)
    uint64_t first_submit_us = 0;
    uint64_t last_complete_us = 0;
  };
  auto shared = std::make_shared<Shared>();
  shared->store = store;
  shared->executor = executor;
  shared->queries = &queries;
  shared->closed_loop = options.arrival_interval_us == 0;
  shared->report.latencies_us.resize(queries.size(), 0);

  // Self-referential submit closure: heap-held so completion continuations
  // can refill the closed loop; the self-cycle is broken after the drain.
  auto submit = std::make_shared<std::function<void(size_t)>>();
  *submit = [shared, submit](size_t index) {
    const Query& q = (*shared->queries)[index];
    const uint64_t start_us = shared->executor->now_us();
    shared->store->RunAsync(shared->executor, q)
        .OnReady([shared, submit, index, start_us,
                  kind = q.kind](const AsyncQueryResult& r) {
          const uint64_t end_us = shared->executor->now_us();
          shared->report.latencies_us[index] = end_us - start_us;
          AddQuery(&shared->report, index, kind, r.status, r.records,
                   r.stats);
          shared->last_complete_us =
              std::max(shared->last_complete_us, end_us);
          if (shared->closed_loop && shared->next < shared->queries->size()) {
            (*submit)(shared->next++);
          }
        });
  };

  shared->first_submit_us = executor->now_us();
  if (shared->closed_loop) {
    const size_t initial = std::min<size_t>(
        std::max<uint32_t>(options.concurrency, 1), queries.size());
    shared->next = initial;
    for (size_t i = 0; i < initial; ++i) (*submit)(i);
  } else {
    const uint64_t base = shared->first_submit_us;
    for (size_t i = 0; i < queries.size(); ++i) {
      executor->PostAt(base + i * options.arrival_interval_us,
                       [submit, i] { (*submit)(i); });
    }
  }
  executor->RunUntilIdle();
  *submit = nullptr;  // break the self-cycle

  TrafficReport report = std::move(shared->report);
  RSTORE_CHECK(report.completed + report.failed == queries.size())
      << "traffic run lost queries: " << report.completed << " + "
      << report.failed << " != " << queries.size();
  report.makespan_us = shared->last_complete_us - shared->first_submit_us;
  return report;
}

}  // namespace workload
}  // namespace rstore

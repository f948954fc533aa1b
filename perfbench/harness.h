// Building blocks of the end-to-end benchmark, shared by rstore_bench.cc and
// perfbench_selftest.cc: input generation, store set-up, the timed ingest
// and serving passes, and the open-loop capacity search. Every latency is on
// two clocks: the call's modeled backend time (Cluster stats / QueryStats
// simulated micros, deterministic) plus the client CPU time the call took
// (CpuUs).

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <limits>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/executor.h"
#include "common/trace.h"
#include "core/delta_store.h"
#include "core/rstore.h"
#include "kvstore/cluster.h"
#include "oracle.h"
#include "span_fold.h"
#include "timing_kv_store.h"
#include "workload/dataset_generator.h"
#include "workload/traffic.h"

namespace perfbench {

using rstore::workload::Query;

inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (every thread, user and system), in
/// microseconds. This is the client clock of every latency: unlike the wall
/// clock it does not count the time the process waits for a core, which on
/// a shared host follows the neighbours' load, not the code. Reads run on
/// one thread, so for them it is that thread's time; a drain's encoder
/// threads add theirs, so a commit is charged the CPU it used.
inline double CpuUs() {
  timespec t;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) * 1e6 +
         static_cast<double>(t.tv_nsec) / 1e3;
}

[[noreturn]] inline void Die(const std::string& what,
                             const rstore::Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

/// The dataset is a fixed fixture generated from its own seed; the run's
/// seed draws the query stream, so runs with different seeds measure the
/// same store under different traffic.
inline constexpr uint64_t kDatasetSeed = 1;

/// Dataset and stream shape. The defaults are the benchmark's; the
/// self-test shrinks them.
struct Scale {
  uint32_t versions = 200;
  uint32_t records_per_version = 1000;
  uint32_t record_bytes = 500;
  /// The stream is `slices` slices of `queries` queries; serving passes
  /// take them in turn. Each slice, and the capacity probes' own slice,
  /// follows kMixPattern (sizes are multiples of kMixTotal).
  uint32_t queries = 250;
  uint32_t slices = 12;
  uint32_t probe_queries = 800;
};

/// The query mix full : range : history : point, indexed by Query::Kind,
/// and the fixed order in which every block of kMixTotal queries takes its
/// classes: the expensive ones spread evenly, so an open loop never sees a
/// clump of full checkouts that another seed's stream would not have.
inline constexpr std::array<uint32_t, 4> kMix = {1, 3, 3, 13};
inline constexpr uint32_t kMixTotal = 20;
inline constexpr std::array<uint8_t, kMixTotal> kMixPattern = {
    0, 3, 3, 1, 3, 3, 2, 3, 3, 1, 3, 3, 2, 3, 3, 1, 3, 3, 2, 3};

/// Nearest-rank percentile, `p` in (0, 100].
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

/// Everything a run needs, generated from the seed before any timer runs.
/// Held by pointer: the oracle borrows the dataset.
struct Inputs {
  rstore::workload::GeneratedDataset gen;
  /// One prebuilt delta per version, committed in id order.
  std::vector<rstore::CommitDelta> commits;
  std::vector<rstore::VersionId> parents;
  std::vector<Query> queries;
  /// Query ids of each serving slice, and of the capacity probes.
  std::vector<std::vector<size_t>> slices;
  std::vector<size_t> probe_ids;
  std::unique_ptr<Oracle> oracle;
  std::vector<Expected> expected;  // per query
  uint64_t logical_bytes = 0;      // Σ payload bytes of distinct records
};

inline std::unique_ptr<Inputs> GenerateInputs(uint64_t seed,
                                              const Scale& scale) {
  auto in = std::make_unique<Inputs>();
  rstore::workload::DatasetConfig config;
  config.name = "perfbench";
  config.num_versions = scale.versions;
  config.records_per_version = scale.records_per_version;
  config.record_size_bytes = scale.record_bytes;
  config.update_fraction = 0.10;
  config.branch_probability = 0.2;
  config.pd = 0.05;
  config.seed = kDatasetSeed;
  in->gen = rstore::workload::GenerateDataset(config);
  const rstore::VersionedDataset& ds = in->gen.dataset;
  for (const auto& [ck, payload] : in->gen.payloads) {
    in->logical_bytes += payload.size();
  }
  for (rstore::VersionId v = 0; v < ds.graph.size(); ++v) {
    rstore::CommitDelta delta;
    std::unordered_set<std::string> added;
    for (const rstore::CompositeKey& ck : ds.deltas[v].added) {
      added.insert(ck.key);
      delta.upserts.push_back(rstore::Record{ck, in->gen.payloads.at(ck)});
    }
    for (const rstore::CompositeKey& ck : ds.deltas[v].removed) {
      if (!added.count(ck.key)) delta.deletes.push_back(ck.key);
    }
    in->commits.push_back(std::move(delta));
    in->parents.push_back(v == 0 ? rstore::kInvalidVersion
                                 : ds.graph.PrimaryParent(v));
  }
  rstore::workload::TrafficOptions traffic;
  traffic.seed = seed ^ 0x51ull;
  traffic.num_queries = 3 * (scale.queries * scale.slices +
                              scale.probe_queries);
  traffic.weight_full = kMix[0];
  traffic.weight_range = kMix[1];
  traffic.weight_evolution = kMix[2];
  traffic.weight_point = kMix[3];
  traffic.zipf_theta = 0.8;
  traffic.range_selectivity = 0.03;
  const std::vector<Query> pool =
      rstore::workload::GenerateTraffic(ds, traffic);
  // Deal the pool into slices that follow kMixPattern, taking each class's
  // queries in pool order: only the versions and keys asked for vary with
  // the seed.
  std::array<std::vector<const Query*>, 4> by_kind;
  for (const Query& q : pool) {
    by_kind[static_cast<size_t>(q.kind)].push_back(&q);
  }
  std::array<size_t, 4> next{};
  auto deal = [&](uint32_t count) {
    std::vector<size_t> ids;
    for (uint32_t i = 0; i < count; ++i) {
      const size_t kind = kMixPattern[i % kMixTotal];
      if (next[kind] == by_kind[kind].size()) {
        Die("query pool", rstore::Status::InvalidArgument("exhausted"));
      }
      ids.push_back(in->queries.size());
      in->queries.push_back(*by_kind[kind][next[kind]++]);
    }
    return ids;
  };
  for (uint32_t i = 0; i < scale.slices; ++i) {
    in->slices.push_back(deal(scale.queries));
  }
  in->probe_ids = deal(scale.probe_queries);
  in->oracle = std::make_unique<Oracle>(ds, in->gen.payloads);
  for (const Query& q : in->queries) {
    in->expected.push_back(in->oracle->Answer(q));
  }
  return in;
}

/// Store configuration: BOTTOM-UP, k = 4 LZ sub-chunks, chunks about a
/// tenth of a version, commits partitioned online in batches of 16 versions,
/// chunk encoding over 3 ingest shards.
inline rstore::Options StoreOptions(const Inputs& in, uint64_t cache_bytes) {
  rstore::Options o;
  o.algorithm = rstore::PartitionAlgorithm::kBottomUp;
  o.max_sub_chunk_records = 4;
  o.compression = rstore::CompressionType::kLZ;
  const auto& stats = in.gen.stats;
  const uint64_t record_bytes =
      stats.unique_records ? stats.unique_record_bytes / stats.unique_records
                           : 200;
  o.chunk_capacity_bytes = std::max<uint64_t>(
      4096, stats.avg_records_per_version * record_bytes / 10);
  o.online_batch_size = 16;
  o.ingest_shards = 3;
  o.cache_capacity_bytes = cache_bytes;
  return o;
}

/// An RStore over a fresh 8-node Cluster, optionally behind the timing
/// decorator.
struct Store {
  std::unique_ptr<rstore::Cluster> cluster;
  std::unique_ptr<TimingKVStore> timing;
  std::unique_ptr<rstore::RStore> store;

  uint64_t sim_us() const { return cluster->stats().simulated_micros; }
  uint64_t stored_bytes() const {
    uint64_t total = 0;
    for (uint32_t n = 0; n < cluster->num_nodes(); ++n) {
      total += cluster->NodeBytes(n);
    }
    return total;
  }
};

inline Store OpenStore(const rstore::Options& options, bool timed) {
  Store s;
  rstore::ClusterOptions cluster_options;
  cluster_options.num_nodes = 8;
  s.cluster = std::make_unique<rstore::Cluster>(cluster_options);
  rstore::KVStore* backend = s.cluster.get();
  if (timed) {
    s.timing = std::make_unique<TimingKVStore>(s.cluster.get());
    backend = s.timing.get();
  }
  auto opened = rstore::RStore::Open(backend, options);
  if (!opened.ok()) Die("open", opened.status());
  s.store = std::move(opened).value();
  return s;
}

/// The best (lowest) value seen for each operation of a run, by index.
///
/// Every timed operation runs several times in a run: each ingest pass
/// commits the same history, and the serving passes take the same slices in
/// turn. The metrics take each operation's best execution. On a shared host
/// the same code runs up to half as fast again for seconds at a time while
/// the neighbours load the caches and memory the cores share; that shows in
/// CPU time too, and it, not the code, would set the run-to-run spread. One
/// quiet execution of each operation is enough for its best, and a slower
/// program is slower in every execution.
struct BestOf {
  std::vector<double> value;  // +inf where not yet seen

  void Add(size_t i, double v) {
    if (i >= value.size()) {
      value.resize(i + 1, std::numeric_limits<double>::infinity());
    }
    value[i] = std::min(value[i], v);
  }
  bool seen(size_t i) const {
    return i < value.size() && std::isfinite(value[i]);
  }
};

/// Outcome of ingest passes. Operation v < versions is the commit of
/// version v; operation `versions` is the final Flush.
struct WriteStats {
  BestOf best_us;        // two-clock latency
  uint64_t records = 0;  // Σ over passes
  uint64_t commits = 0;  // Σ over passes
  uint64_t passes = 0;
  uint64_t failed = 0;
  uint64_t attempted = 0;
  // Traced passes only.
  double commit_wall_us = 0;  // Σ wall of the commits alone
  SpanFold fold;
  double drain_in_commit_us = 0;  // Σ write.process_batch roots in commits

  /// Best latency of each commit, the flush left out.
  std::vector<double> commit_us(const Inputs& in) const {
    std::vector<double> out;
    for (size_t v = 0; v < in.commits.size(); ++v) {
      if (best_us.seen(v)) out.push_back(best_us.value[v]);
    }
    return out;
  }
  /// Records of one pass ÷ Σ best latency of its commits and its flush.
  double records_per_s(const Inputs& in) const {
    double total_us = 0;
    for (size_t v = 0; v <= in.commits.size(); ++v) {
      if (!best_us.seen(v)) return 0;
      total_us += best_us.value[v];
    }
    return passes == 0 ? 0
                       : static_cast<double>(records / passes) /
                             (total_us / 1e6);
  }
};

/// Commits the whole history into `s` one version at a time, then flushes.
/// Each delta is copied before its timer starts.
inline void IngestPass(Store* s, const Inputs& in, bool traced,
                       WriteStats* out) {
  for (size_t v = 0; v < in.commits.size(); ++v) {
    rstore::CommitDelta delta = in.commits[v];
    out->records += delta.upserts.size();
    out->commits += 1;
    rstore::TraceContext trace;
    const uint64_t sim0 = s->sim_us();
    const double wall0 = NowUs();
    const double t0 = CpuUs();
    auto r = s->store->Commit(in.parents[v], std::move(delta),
                              traced ? &trace : nullptr);
    const double client = CpuUs() - t0;
    const double wall = NowUs() - wall0;
    out->best_us.Add(v, client + static_cast<double>(s->sim_us() - sim0));
    out->attempted += 1;
    if (!r.ok() || r.value() != v) out->failed += 1;
    if (traced) {
      out->commit_wall_us += wall;
      FoldSpans(trace.spans(), &out->fold);
      for (const rstore::TraceSpan& span : trace.spans()) {
        if (span.parent == rstore::TraceSpan::kNoParent) {
          out->drain_in_commit_us +=
              static_cast<double>(span.wall_duration_us());
        }
      }
    }
  }
  rstore::TraceContext trace;
  const uint64_t sim0 = s->sim_us();
  const double t0 = CpuUs();
  rstore::Status flushed = s->store->Flush(traced ? &trace : nullptr);
  const double client = CpuUs() - t0;
  out->best_us.Add(in.commits.size(),
                   client + static_cast<double>(s->sim_us() - sim0));
  out->attempted += 1;
  if (!flushed.ok()) out->failed += 1;
  if (traced) FoldSpans(trace.spans(), &out->fold);
  out->passes += 1;
}

/// Share of an async workload's serving passes whose client CPU it reports.
inline constexpr double kQuietShare = 0.1;

/// Outcome of serving passes. Operation i is query i of Inputs::queries.
///
/// A query's latency is its modeled time, which does not vary between
/// executions, plus client CPU. A sync query is charged its own best
/// execution. An async pass interleaves its queries on one thread, so only
/// its mean client CPU per query is known, and a run serves each slice too
/// few times for the slice's best pass to be a quiet one; every async query
/// is charged the mean of the cheapest kQuietShare of all the run's passes
/// instead. The slices share one class pattern, so their passes do about
/// the same work.
struct ReadStats {
  BestOf modeled_us;
  BestOf best_client_us;               // answer checks excluded
  std::vector<double> pass_client_us;  // async: mean client CPU per query
  double client_us = 0;                // Σ client CPU over every execution
  uint64_t queries = 0;
  uint64_t failed = 0;
  uint64_t records_returned = 0;
  uint64_t passes = 0;
  uint64_t backlog_peak = 0;
  rstore::QueryStats stats;
  // Traced passes only.
  SpanFold fold;

  void Add(size_t query, double query_modeled_us, double query_client_us) {
    modeled_us.Add(query, query_modeled_us);
    best_client_us.Add(query, query_client_us);
    client_us += query_client_us;
    queries += 1;
  }
  /// Two-clock latency of every query of class `kind` served.
  std::vector<double> latency_us(const Inputs& in, Query::Kind kind) const {
    const double quiet = QuietPassClientUs();
    std::vector<double> out;
    for (size_t i = 0; i < modeled_us.value.size(); ++i) {
      if (!modeled_us.seen(i) || in.queries[i].kind != kind) continue;
      out.push_back(modeled_us.value[i] +
                    (pass_client_us.empty() ? best_client_us.value[i]
                                            : quiet));
    }
    return out;
  }
  /// Client CPU per query of the kMix mix. For sync passes, per-class means
  /// weighted by the mix, so the exact class counts served do not matter.
  double mix_client_us_per_query(const Inputs& in) const {
    if (!pass_client_us.empty()) return QuietPassClientUs();
    double sum = 0;
    for (size_t k = 0; k < 4; ++k) {
      double total = 0, count = 0;
      for (size_t i = 0; i < best_client_us.value.size(); ++i) {
        if (best_client_us.seen(i) &&
            in.queries[i].kind == static_cast<Query::Kind>(k)) {
          total += best_client_us.value[i];
          count += 1;
        }
      }
      if (count > 0) sum += kMix[k] * total / count;
    }
    return sum / kMixTotal;
  }

 private:
  double QuietPassClientUs() const {
    if (pass_client_us.empty()) return 0;
    std::vector<double> sorted = pass_client_us;
    std::sort(sorted.begin(), sorted.end());
    const size_t keep = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(kQuietShare * sorted.size())));
    double sum = 0;
    for (size_t i = 0; i < keep; ++i) sum += sorted[i];
    return sum / static_cast<double>(keep);
  }
};

/// Runs the queries `ids` through the synchronous read API, one at a time,
/// checking every answer outside its timer.
inline void SyncPass(rstore::RStore* store, const Inputs& in,
                     const std::vector<size_t>& ids, bool traced,
                     ReadStats* out) {
  using Kind = Query::Kind;
  for (size_t i : ids) {
    const Query& q = in.queries[i];
    rstore::QueryStats qs;
    rstore::TraceContext trace;
    rstore::TraceContext* tc = traced ? &trace : nullptr;
    rstore::Status status = rstore::Status::OK();
    std::vector<rstore::Record> records;
    rstore::Record record;
    const double t0 = CpuUs();
    switch (q.kind) {
      case Kind::kFullVersion: {
        auto r = store->GetVersion(q.version, &qs, tc);
        status = r.status();
        if (r.ok()) records = std::move(r).value();
        break;
      }
      case Kind::kRange: {
        auto r = store->GetRange(q.version, q.key_lo, q.key_hi, &qs, tc);
        status = r.status();
        if (r.ok()) records = std::move(r).value();
        break;
      }
      case Kind::kEvolution: {
        auto r = store->GetHistory(q.key, &qs, tc);
        status = r.status();
        if (r.ok()) records = std::move(r).value();
        break;
      }
      case Kind::kPoint: {
        auto r = store->GetRecord(q.key, q.version, &qs, tc);
        status = r.status();
        if (r.ok()) record = std::move(r).value();
        break;
      }
    }
    const double client = CpuUs() - t0;
    out->Add(i, static_cast<double>(qs.simulated_micros), client);
    out->stats += qs;
    const bool ok =
        q.kind == Kind::kPoint
            ? Oracle::MatchesPoint(in.expected[i], status, &record)
            : Oracle::Matches(in.expected[i], status, records);
    if (!ok) out->failed += 1;
    out->records_returned +=
        q.kind == Kind::kPoint ? (status.ok() ? 1 : 0) : records.size();
    if (traced) FoldSpans(trace.spans(), &out->fold);
  }
  out->passes += 1;
}

/// Outcome of one open-loop async run on the executor's virtual clock.
struct OpenLoopRun {
  std::vector<double> virtual_us;  // per query, from its due time
  double client_us = 0;            // client CPU, answer checks excluded
  uint64_t makespan_us = 0;        // first due time to last completion
  uint64_t last_due_us = 0;        // relative to the first due time
  uint64_t backlog_peak = 0;
  uint64_t failed = 0;
};

/// Submits the queries `ids` through the async read path, one every
/// `interval_us` of virtual time (0 = all at once), and drains the
/// executor. Queries are submitted exactly when due, so each latency counts
/// its queueing. With `out` set, the run's queries are also added there as
/// samples: each query's virtual latency, and the run's mean client CPU per
/// query (the async engine interleaves queries on one thread, so per-query
/// client time is not separable).
inline OpenLoopRun RunOpenLoop(rstore::RStore* store,
                               rstore::Executor* executor, const Inputs& in,
                               const std::vector<size_t>& ids,
                               uint64_t interval_us, bool traced,
                               ReadStats* out) {
  using Kind = Query::Kind;
  const size_t n = ids.size();
  OpenLoopRun run;
  run.virtual_us.assign(n, 0);
  std::vector<std::unique_ptr<rstore::TraceContext>> traces(n);
  std::vector<rstore::QueryStats> stats(n);
  std::vector<uint64_t> returned(n, 0);
  uint64_t in_flight = 0;
  uint64_t last_done = 0;
  double check_us = 0;
  const uint64_t base = executor->now_us();
  run.last_due_us = n == 0 ? 0 : (n - 1) * interval_us;

  auto finish = [&](size_t i, uint64_t due, bool ok,
                    const rstore::QueryStats& qs, uint64_t records) {
    const uint64_t now = executor->now_us();
    run.virtual_us[i] = static_cast<double>(now - due);
    last_done = std::max(last_done, now);
    in_flight -= 1;
    stats[i] = qs;
    returned[i] = records;
    if (!ok) run.failed += 1;
  };
  // Slot i of this run serves query ids[i].
  auto submit = [&](size_t i) {
    const Query& q = in.queries[ids[i]];
    const uint64_t due = executor->now_us();
    in_flight += 1;
    run.backlog_peak = std::max(run.backlog_peak, in_flight);
    rstore::TraceContext* tc = nullptr;
    if (traced) {
      traces[i] = std::make_unique<rstore::TraceContext>();
      tc = traces[i].get();
    }
    auto on_records = [&, i, due](const rstore::AsyncQueryResult& r) {
      const double t0 = CpuUs();
      const bool ok =
          Oracle::Matches(in.expected[ids[i]], r.status, r.records);
      check_us += CpuUs() - t0;
      finish(i, due, ok, r.stats, r.records.size());
    };
    switch (q.kind) {
      case Kind::kFullVersion:
        store->GetVersionAsync(executor, q.version, tc).OnReady(on_records);
        break;
      case Kind::kRange:
        store->GetRangeAsync(executor, q.version, q.key_lo, q.key_hi, tc)
            .OnReady(on_records);
        break;
      case Kind::kEvolution:
        store->GetHistoryAsync(executor, q.key, tc).OnReady(on_records);
        break;
      case Kind::kPoint:
        store->GetRecordAsync(executor, q.key, q.version, tc)
            .OnReady([&, i, due](const rstore::AsyncRecordResult& r) {
              const double t0 = CpuUs();
              const bool ok = Oracle::MatchesPoint(in.expected[ids[i]],
                                                   r.status, &r.record);
              check_us += CpuUs() - t0;
              finish(i, due, ok, r.stats, r.status.ok() ? 1 : 0);
            });
        break;
    }
  };
  for (size_t i = 0; i < n; ++i) {
    executor->PostAt(base + i * interval_us, [&submit, i] { submit(i); });
  }
  const double t0 = CpuUs();
  executor->RunUntilIdle();
  run.client_us = CpuUs() - t0 - check_us;
  run.makespan_us = last_done - base;

  if (out != nullptr) {
    const double client_per_query = n == 0 ? 0 : run.client_us / n;
    for (size_t i = 0; i < n; ++i) {
      out->Add(ids[i], run.virtual_us[i], client_per_query);
      out->stats += stats[i];
      out->records_returned += returned[i];
      if (traced) FoldSpans(traces[i]->spans(), &out->fold);
    }
    out->pass_client_us.push_back(client_per_query);
    out->failed += run.failed;
    out->backlog_peak = std::max(out->backlog_peak, run.backlog_peak);
    out->passes += 1;
  }
  return run;
}

/// The backend's serving capacity: the highest open-loop rate whose p99
/// virtual latency stays within `limit_us` and whose last query completes
/// within `limit_us` of its due time (no growing backlog).
struct Capacity {
  double virtual_qps = 0;
  uint64_t probes = 0;
  uint64_t queries = 0;
  uint64_t failed = 0;
  uint64_t backlog_peak = 0;  // in the probe at the capacity rate
};

inline Capacity SearchCapacity(rstore::RStore* store,
                               rstore::Executor* executor, const Inputs& in,
                               const std::vector<size_t>& ids,
                               double limit_us) {
  Capacity cap;
  auto probe = [&](uint64_t interval_us, OpenLoopRun* run) {
    *run = RunOpenLoop(store, executor, in, ids, interval_us, false, nullptr);
    cap.probes += 1;
    cap.queries += run->virtual_us.size();
    cap.failed += run->failed;
    return Percentile(run->virtual_us, 99) <= limit_us &&
           static_cast<double>(run->makespan_us - run->last_due_us) <=
               limit_us;
  };
  OpenLoopRun run;
  // A burst gives the saturation rate: nothing completes faster than the
  // busiest node drains it. The capacity lies between that rate and half of
  // it (checked, and widened if not); bisection narrows it to ~3 %.
  probe(0, &run);
  uint64_t fail_iv = std::max<uint64_t>(
      1, run.makespan_us / std::max<size_t>(run.virtual_us.size(), 1));
  uint64_t pass_iv = 2 * fail_iv;
  bool pass_seen = false;
  for (int step = 0; step < 5 && pass_iv - fail_iv > 1; ++step) {
    const uint64_t mid = fail_iv + (pass_iv - fail_iv) / 2;
    if (probe(mid, &run)) {
      pass_iv = mid;
      pass_seen = true;
      cap.backlog_peak = run.backlog_peak;
    } else {
      fail_iv = mid;
    }
  }
  for (int i = 0; i < 6 && !pass_seen; ++i) {
    pass_seen = probe(pass_iv, &run);
    cap.backlog_peak = run.backlog_peak;
    if (!pass_seen) pass_iv *= 2;
  }
  cap.virtual_qps = 1e6 / static_cast<double>(pass_iv);
  return cap;
}

/// Checks out every version once, so every chunk is decoded and, with a
/// cache attached, resident. Returns the failures.
inline uint64_t CheckoutAll(rstore::RStore* store, const Inputs& in,
                            uint64_t* attempted) {
  uint64_t failed = 0;
  Query q;
  q.kind = Query::Kind::kFullVersion;
  for (q.version = 0; q.version < in.gen.dataset.graph.size(); ++q.version) {
    auto r = store->GetVersion(q.version);
    *attempted += 1;
    if (!r.ok() ||
        !Oracle::Matches(in.oracle->Answer(q), r.status(), r.value())) {
      failed += 1;
    }
  }
  return failed;
}

/// Untimed post-ingest check: the store is internally consistent and a
/// sample of full checkouts matches the dataset. Returns the failures.
inline uint64_t VerifyStore(rstore::RStore* store, const Inputs& in,
                            uint64_t* attempted) {
  uint64_t failed = 0;
  *attempted += 1;
  if (!store->VerifyIntegrity().ok()) failed += 1;
  const uint32_t versions = in.gen.dataset.graph.size();
  for (uint32_t i = 0; i < 8; ++i) {
    Query q;
    q.kind = Query::Kind::kFullVersion;
    q.version = static_cast<rstore::VersionId>(
        (static_cast<uint64_t>(versions - 1) * i) / 7);
    auto r = store->GetVersion(q.version);
    *attempted += 1;
    if (!r.ok() ||
        !Oracle::Matches(in.oracle->Answer(q), r.status(), r.value())) {
      failed += 1;
    }
  }
  return failed;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_

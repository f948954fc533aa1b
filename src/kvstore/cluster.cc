#include "kvstore/cluster.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <utility>

#include "common/flight_recorder.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"

namespace rstore {

namespace {

/// Registry handles for the coordinator's traffic counters, resolved once.
/// Every update below is one relaxed atomic op — no locks on the hot path.
struct ClusterMetrics {
  /// One per client operation: Get, Put, Delete, MultiGet batch.
  Counter* requests_total;
  /// The counter mirroring each KVStats field that kKVStatsFields names one
  /// for.
  std::vector<std::pair<uint64_t KVStats::*, Counter*>> mirrors;
  Histogram* multiget_batch_keys;

  static const ClusterMetrics& Get() {
    static const ClusterMetrics metrics = [] {
      MetricsRegistry& registry = MetricsRegistry::Default();
      ClusterMetrics m;
      m.requests_total = registry.GetCounter("rstore_kvs_requests_total");
      for (const KVStats::Field& field : kKVStatsFields) {
        if (field.counter == nullptr) continue;
        m.mirrors.emplace_back(field.member,
                               registry.GetCounter(field.counter));
      }
      m.multiget_batch_keys = registry.GetHistogram(
          "rstore_kvs_multiget_batch_keys",
          Histogram::ExponentialBoundaries(1, 4.0, 8));  // 1..16384 keys
      return m;
    }();
    return metrics;
  }
};

/// Salt bases feeding FaultInjector::Decide/UniformAt so the different uses
/// of one operation tick (primary read vs. write vs. hedge vs. backoff
/// jitter) draw from independent deterministic streams. Failover rounds are
/// decorrelated by striding the salt.
constexpr uint32_t kSaltRead = 0;
constexpr uint32_t kSaltWrite = 1;
constexpr uint32_t kSaltDelete = 2;
constexpr uint32_t kSaltHedge = 3;
constexpr uint32_t kSaltJitter = 4;
constexpr uint32_t kSaltStride = 8;

/// Applies a latency-spike multiplier, rounding to whole micros.
uint64_t ScaleMicros(uint64_t us, double multiplier) {
  if (multiplier <= 1.0) return us;
  return static_cast<uint64_t>(
      std::llround(static_cast<double>(us) * multiplier));
}

/// An operation's attribution: its critical event's, plus the coordinator
/// overhead as service. Each event's `simulated_micros` is its instant
/// relative to the operation start, which its parts decompose.
LatencyAttribution WithOverhead(LatencyAttribution crit,
                                uint64_t overhead_us) {
  crit.simulated_micros += overhead_us;
  crit.service_us += overhead_us;
  return crit;
}

/// The simulated instant at which a request issued at `start_us` is
/// abandoned (never, without a request timeout).
uint64_t Deadline(const RetryPolicy& retry, uint64_t start_us) {
  return retry.request_timeout_us > 0
             ? start_us + retry.request_timeout_us
             : std::numeric_limits<uint64_t>::max();
}

}  // namespace

/// A key of a batch routed to one of its replicas: the replica list and
/// the current position in it, so retry exhaustion or a timeout can fail
/// it over down the list.
struct Cluster::Member {
  size_t key_idx;
  std::vector<uint32_t> replicas;
  size_t pos;
};

/// Mutable continuation state of one in-flight MultiGet batch, shared by
/// every event the batch schedules. Only its executor's events touch it
/// after submission, one at a time, so no lock guards it; cross-thread
/// publication happens via the executor's own queue lock.
struct Cluster::Batch {
  struct Group {
    uint32_t node;
    uint64_t start_us;  // absolute virtual time the group was issued
    uint32_t round;     // failover depth, decorrelates fault decisions
    std::vector<Member> members;
    /// start_us - submit_us and how it decomposes (zero for the first
    /// groups). Every event this group produces extends it, keeping the
    /// conservation invariant exact through arbitrary failover chains.
    LatencyAttribution attr{};
    // Set when the node serves the group, for ResolveGroup.
    std::map<std::string, std::string> values{};
    uint64_t node_bytes = 0;
    uint64_t service_start = 0;  // the node's queue let the chain start
    uint64_t attempt_start = 0;  // issue time of the serving attempt
    uint64_t node_us = 0;        // modeled service of that attempt
  };
  /// A child span at an absolute virtual interval, re-based onto the
  /// trace's simulated clock when the batch finishes.
  struct SimSpan {
    std::string name;
    uint64_t start_us;
    uint64_t end_us;
    std::vector<std::pair<std::string, std::string>> notes;
  };

  /// Considers one event, at submit_us + event.simulated_micros, as the
  /// batch's critical event. Strictly-greater updates resolve ties toward
  /// the first event.
  void Consider(const LatencyAttribution& event) {
    RSTORE_DCHECK(event.Balanced());
    if (event.simulated_micros > crit.simulated_micros) crit = event;
  }

  Executor* executor = nullptr;
  Timeline* timeline = nullptr;
  std::string table;
  /// The caller's keys for a drained sync batch, owned_keys for an async
  /// one (whose caller may be gone before it completes).
  const std::vector<std::string>* keys = nullptr;
  std::vector<std::string> owned_keys;
  /// Where served values and (partial mode) per-key failures land: the
  /// async result, or a drained call's out-params. Null `failures` makes
  /// the batch strict.
  std::map<std::string, std::string>* values = nullptr;
  std::vector<KeyReadFailure>* failures = nullptr;
  TraceContext* trace = nullptr;
  /// A Get: charged as one point read rather than as a batch.
  bool point = false;

  uint64_t tick = 0;
  uint64_t submit_us = 0;        // absolute virtual submission instant
  uint64_t sim_batch_start = 0;  // trace sim clock at submission
  uint32_t span_id = TraceSpan::kNoParent;

  std::deque<Group> groups;  // append-only, so references stay valid
  size_t outstanding = 0;
  bool failed = false;

  std::vector<SimSpan> sim_spans;  // traced batches only
  LatencyAttribution crit;         // the latest completion/failure
  uint32_t nodes_contacted = 0;

  /// Status and charge (plus values and failures, for an async batch). An
  /// async batch hands it to its promise; a drained one's caller reads it.
  AsyncMultiGetResult result;
  std::optional<Promise<AsyncMultiGetResult>> promise;
};

/// One coordinator write operation (a Put, a Delete or a WriteBatch),
/// accumulated entry by entry. Each node serves its share of the entries as
/// one group, as a MultiGet node serves its keys; a replica chain that gave
/// up or timed out is an event of its own. Events keep the order in which
/// they first appeared and ties resolve toward the first, so a one-entry
/// operation's critical event is its first latest replica.
struct Cluster::WriteOp {
  struct Share {
    uint64_t keys = 0;
    uint64_t bytes = 0;  // value bytes
    /// The share is served once its last entry's serving attempt is
    /// issued ...
    uint64_t start_us = 0;
    /// ... and each slow attempt adds the time its slowdown costs its own
    /// entry.
    uint64_t slow_extra_us = 0;
  };
  /// A node's share (`node` >= 0, timed once every entry has joined it) or
  /// a chain that gave up or timed out at `attr.simulated_micros`.
  struct Event {
    int node = -1;
    LatencyAttribution attr;
  };

  explicit WriteOp(size_t num_nodes) : shares(num_nodes) {}

  std::vector<Share> shares;  // by node
  std::vector<Event> events;
  KVStats charge;
};

Cluster::Cluster(const ClusterOptions& options)
    : options_(options),
      ring_(options.num_nodes, options.virtual_nodes_per_node,
            options.ring_seed),
      alive_(options.num_nodes),
      injector_(options.faults, options.num_nodes),
      hints_(options.num_nodes) {
  RSTORE_CHECK(options.num_nodes >= 1);
  RSTORE_CHECK(options.replication_factor >= 1);
  RSTORE_CHECK(options.retry.max_attempts >= 1);
  nodes_.reserve(options.num_nodes);
  for (uint32_t i = 0; i < options.num_nodes; ++i) {
    nodes_.push_back(std::make_unique<MemoryStore>());
  }
  for (std::atomic<bool>& alive : alive_) {
    alive.store(true, std::memory_order_relaxed);
  }
}

Status Cluster::CreateTable(const std::string& table) {
  for (auto& node : nodes_) {
    RSTORE_RETURN_IF_ERROR(node->CreateTable(table));
  }
  return Status::OK();
}

bool Cluster::NodeUp(uint32_t node, uint64_t tick) const {
  return alive_[node].load(std::memory_order_acquire) &&
         !injector_.Crashed(node, tick);
}

int Cluster::FirstUp(const std::vector<uint32_t>& replicas,
                     uint64_t tick) const {
  for (size_t i = 0; i < replicas.size(); ++i) {
    if (NodeUp(replicas[i], tick)) return static_cast<int>(i);
  }
  return -1;
}

int Cluster::NextUp(const std::vector<uint32_t>& replicas, size_t after,
                    uint64_t tick) const {
  for (size_t i = after + 1; i < replicas.size(); ++i) {
    if (NodeUp(replicas[i], tick)) return static_cast<int>(i);
  }
  return -1;
}

Cluster::AttemptChain Cluster::SimulateAttempts(uint32_t node, uint64_t tick,
                                                uint32_t round,
                                                uint32_t salt_base,
                                                uint64_t start_us) const {
  AttemptChain chain;
  chain.start_us = start_us;
  if (!injector_.enabled()) {
    chain.served = true;
    return chain;
  }
  const uint32_t salt = salt_base + kSaltStride * round;
  for (uint32_t attempt = 0;; ++attempt) {
    const FaultDecision d = injector_.Decide(node, tick, attempt, salt);
    if (d.kind != FaultKind::kTransientError) {
      chain.served = true;
      chain.start_us = start_us;
      chain.slow_multiplier = d.slow_multiplier;
      return chain;
    }
    // A failed attempt costs the round trip that returned the error.
    const uint64_t fail_at = start_us + options_.latency.request_overhead_us;
    chain.failed_attempts.emplace_back(start_us, fail_at);
    if (attempt + 1 >= options_.retry.max_attempts) {
      chain.failure_us = fail_at;
      return chain;
    }
    const double jitter = injector_.UniformAt(
        node, tick, attempt, kSaltJitter + kSaltStride * round);
    start_us = fail_at + options_.retry.BackoffMicros(attempt + 1, jitter);
    ++chain.retries;
  }
}

Status Cluster::Put(const std::string& table, Slice key, Slice value) {
  return Write(table, {{key, value}}, /*is_delete=*/false);
}

Status Cluster::WriteBatch(
    const std::string& table,
    const std::vector<std::pair<std::string, std::string>>& entries) {
  return Write(table, {entries.begin(), entries.end()}, /*is_delete=*/false);
}

Status Cluster::Delete(const std::string& table, Slice key) {
  return Write(table, {{key, Slice()}}, /*is_delete=*/true);
}

Status Cluster::Write(const std::string& table,
                      const std::vector<std::pair<Slice, Slice>>& entries,
                      bool is_delete) {
  WriteOp op(nodes_.size());
  Status status = Status::OK();
  for (const auto& [key, value] : entries) {
    status = WriteEntry(table, key, value, is_delete, &op);
    if (!status.ok()) break;
  }
  // A failed entry charges nothing, as a failed Put does; the entries before
  // it landed and are charged.
  if (op.charge.puts + op.charge.deletes == 0) return status;
  // The nodes serve their shares in parallel: one coordinator overhead plus
  // the latest event, each share timed by the MultiGet rule. Strictly-later
  // events win, so ties resolve toward the first.
  LatencyAttribution crit;
  for (const WriteOp::Event& event : op.events) {
    LatencyAttribution attr = event.attr;
    if (event.node >= 0) {
      const WriteOp::Share& share = op.shares[static_cast<size_t>(event.node)];
      attr.retry_penalty_us = share.start_us;
      attr.service_us =
          options_.latency.NodeServiceMicros(share.keys, share.bytes) +
          share.slow_extra_us;
      attr.simulated_micros = share.start_us + attr.service_us;
    }
    if (attr.simulated_micros > crit.simulated_micros) crit = attr;
  }
  static_cast<LatencyAttribution&>(op.charge) =
      WithOverhead(crit, options_.latency.coordinator_overhead_us);
  Charge(op.charge);
  return status;
}

Status Cluster::WriteEntry(const std::string& table, Slice key, Slice value,
                           bool is_delete, WriteOp* op) {
  const uint64_t tick = injector_.NextTick();
  ReplayReadyHints(tick);
  const auto replicas = ring_.Replicas(key, options_.replication_factor);
  const uint64_t timeout_us = options_.retry.request_timeout_us;
  // Each replica's outcome, in replica order: `served` by the attempt
  // issued at `start_us`, which its slowdown costs `slow_extra_us`, or an
  // event at which its chain gave up or timed out.
  struct Outcome {
    uint32_t node;
    bool served;
    uint64_t start_us;
    uint64_t slow_extra_us;
    WriteOp::Event event;
  };
  std::vector<Outcome> outcomes;
  // Hinted handoff: a replica that is down or fails the write gets it
  // replayed when it serves again.
  std::vector<std::pair<uint32_t, Hint>> staged;
  auto stage = [&](uint32_t node) {
    staged.push_back(
        {node, Hint{table, key.ToString(), value.ToString(), is_delete}});
  };
  KVStats charge;
  for (uint32_t node : replicas) {
    if (!NodeUp(node, tick)) {
      stage(node);
      continue;
    }
    const AttemptChain chain =
        SimulateAttempts(node, tick, /*round=*/0,
                         is_delete ? kSaltDelete : kSaltWrite, /*start_us=*/0);
    charge.retries += chain.retries;
    if (!chain.served) {
      // A chain that gave up spent its whole interval on failed attempts.
      outcomes.push_back({node, false, 0, 0,
                          {-1,
                           {.simulated_micros = chain.failure_us,
                            .retry_penalty_us = chain.failure_us}}});
      stage(node);
      continue;
    }
    // The deadline applies to each entry's own request, as a lone Put's.
    const uint64_t service_us =
        options_.latency.NodeServiceMicros(1, value.size());
    const uint64_t slowed_us = ScaleMicros(service_us, chain.slow_multiplier);
    const uint64_t completion = chain.start_us + slowed_us;
    if (timeout_us > 0 && completion > timeout_us) {
      ++charge.timeouts;
      // The coordinator stopped waiting at the deadline: only the
      // in-deadline part of the attempt is attributed.
      const uint64_t retry_us = std::min(chain.start_us, timeout_us);
      outcomes.push_back({node, false, 0, 0,
                          {-1,
                           {.simulated_micros = timeout_us,
                            .service_us = timeout_us - retry_us,
                            .retry_penalty_us = retry_us}}});
      stage(node);
      continue;
    }
    RSTORE_RETURN_IF_ERROR(is_delete ? nodes_[node]->Delete(table, key)
                                     : nodes_[node]->Put(table, key, value));
    outcomes.push_back(
        {node, true, chain.start_us, slowed_us - service_us, {}});
  }
  if (std::none_of(outcomes.begin(), outcomes.end(),
                   [](const Outcome& o) { return o.served; })) {
    // Nothing durable: fail the write loudly and drop the staged hints (a
    // hint is a promise about a write that succeeded somewhere).
    return Status::IOError("all replicas down");
  }
  // The entry landed: add its replica work to the operation.
  for (const Outcome& o : outcomes) {
    if (!o.served) {
      op->events.push_back(o.event);
      continue;
    }
    WriteOp::Share& share = op->shares[o.node];
    if (share.keys++ == 0) {
      op->events.push_back({static_cast<int>(o.node), {}});
    }
    share.bytes += value.size();
    share.start_us = std::max(share.start_us, o.start_us);
    share.slow_extra_us += o.slow_extra_us;
  }
  charge.handoff_hints = staged.size();
  CommitHints(std::move(staged));
  (is_delete ? charge.deletes : charge.puts) = 1;
  if (!is_delete) charge.bytes_written = key.size() + value.size();
  op->charge += charge;
  return Status::OK();
}

Result<std::string> Cluster::Get(const std::string& table, Slice key) {
  std::map<std::string, std::string> out;
  RSTORE_RETURN_IF_ERROR(DrainMultiGet(table, {key.ToString()}, &out,
                                       /*failures=*/nullptr, /*trace=*/nullptr,
                                       /*point=*/true));
  if (out.empty()) return Status::NotFound("key: " + key.ToString());
  return std::move(out.begin()->second);
}

Status Cluster::MultiGet(const std::string& table,
                         const std::vector<std::string>& keys,
                         std::map<std::string, std::string>* out,
                         TraceContext* trace) {
  return DrainMultiGet(table, keys, out, /*failures=*/nullptr, trace);
}

Status Cluster::MultiGetPartial(const std::string& table,
                                const std::vector<std::string>& keys,
                                std::map<std::string, std::string>* out,
                                std::vector<KeyReadFailure>* failures,
                                TraceContext* trace) {
  RSTORE_CHECK(failures != nullptr);
  return DrainMultiGet(table, keys, out, failures, trace);
}

Status Cluster::DrainMultiGet(const std::string& table,
                              const std::vector<std::string>& keys,
                              std::map<std::string, std::string>* out,
                              std::vector<KeyReadFailure>* failures,
                              TraceContext* trace, bool point) {
  // Values land straight in `out`: nothing is copied out of a result.
  Executor executor;
  Timeline timeline(nodes_.size(), /*sampled=*/false);
  auto batch = std::make_shared<Batch>();
  batch->executor = &executor;
  batch->timeline = &timeline;
  batch->table = table;
  batch->keys = &keys;
  batch->values = out;
  batch->failures = failures;
  batch->trace = trace;
  batch->point = point;
  StartBatch(batch);
  executor.RunUntilIdle();
  return batch->result.status;
}

Future<AsyncMultiGetResult> Cluster::MultiGetAsync(
    Executor* executor, const std::string& table,
    const std::vector<std::string>& keys, bool partial, TraceContext* trace) {
  RSTORE_CHECK(executor != nullptr);
  auto batch = std::make_shared<Batch>();
  batch->executor = executor;
  batch->timeline = SharedTimeline(*executor);
  batch->table = table;
  batch->owned_keys = keys;
  batch->keys = &batch->owned_keys;
  batch->values = &batch->result.values;
  batch->failures = partial ? &batch->result.failures : nullptr;
  batch->trace = trace;
  batch->promise.emplace();
  Future<AsyncMultiGetResult> future = batch->promise->future();
  StartBatch(batch);
  return future;
}

Cluster::Timeline* Cluster::SharedTimeline(const Executor& executor) {
  MutexLock lock(mu_);
  return &timelines_
              .try_emplace(executor.id(), nodes_.size(), /*sampled=*/true)
              .first->second;
}

void Cluster::StartBatch(const BatchPtr& batch) {
  // Batches submitted in the same order draw the same fault streams, on
  // any timeline.
  batch->tick = injector_.NextTick();
  ReplayReadyHints(batch->tick);
  batch->submit_us = batch->executor->now_us();
  if (batch->trace != nullptr) {
    batch->span_id = batch->trace->StartSpan("kvs.multiget");
    batch->sim_batch_start = batch->trace->sim_now_us();
  }

  // Route each key to its first serving replica; the first groups are
  // issued at the submission instant.
  const std::vector<std::string>& keys = *batch->keys;
  std::vector<std::vector<Member>> initial(nodes_.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    auto replicas = ring_.Replicas(keys[i], options_.replication_factor);
    const int pos = FirstUp(replicas, batch->tick);
    if (pos < 0) {
      Status down = Status::IOError("all replicas down for a key");
      if (batch->failures == nullptr) {
        AbortBatch(batch, std::move(down));
        return;
      }
      batch->failures->push_back({keys[i], std::move(down)});
      continue;
    }
    const uint32_t node = replicas[static_cast<size_t>(pos)];
    initial[node].push_back(
        Member{i, std::move(replicas), static_cast<size_t>(pos)});
  }
  for (size_t node = 0; node < initial.size(); ++node) {
    if (initial[node].empty()) continue;
    batch->groups.push_back(Batch::Group{static_cast<uint32_t>(node),
                                         batch->submit_us, /*round=*/0,
                                         std::move(initial[node])});
  }
  batch->outstanding = batch->groups.size();
  if (batch->outstanding == 0) {
    // Nothing to contact: the batch still costs one coordinator overhead.
    batch->executor->PostAt(
        batch->submit_us + options_.latency.coordinator_overhead_us,
        [this, batch] { FinishBatch(batch); });
    return;
  }
  for (size_t gi = 0; gi < batch->groups.size(); ++gi) {
    batch->executor->PostAt(batch->submit_us,
                            [this, batch, gi] { ProcessGroup(batch, gi); });
  }
}

void Cluster::ProcessGroup(const BatchPtr& batch, size_t group_index) {
  if (batch->failed) return;
  Batch::Group& g = batch->groups[group_index];
  // Physical read from the serving replica. Replicas hold identical data:
  // down nodes are never routed to, and recovered ones are backfilled by
  // ReplayReadyHints before routing.
  std::vector<std::string> group_keys;
  group_keys.reserve(g.members.size());
  for (const Member& m : g.members) {
    group_keys.push_back((*batch->keys)[m.key_idx]);
  }
  Status read = nodes_[g.node]->MultiGet(batch->table, group_keys, &g.values);
  if (!read.ok()) {
    AbortBatch(batch, std::move(read));
    return;
  }
  for (const auto& [key, value] : g.values) g.node_bytes += value.size();

  // The deadline runs from the group's issue instant — queueing delay at
  // the node eats into the coordinator's patience, as it would for real.
  const uint64_t deadline = Deadline(options_.retry, g.start_us);
  // Per-node FIFO queue: service begins once the node has drained every
  // group it accepted earlier on this timeline.
  uint64_t& busy_us = batch->timeline->node_busy_us[g.node];
  g.service_start = std::max(g.start_us, busy_us);
  const AttemptChain chain = SimulateAttempts(g.node, batch->tick, g.round,
                                              kSaltRead, g.service_start);
  batch->result.charge.retries += chain.retries;
  if (batch->trace != nullptr) {
    for (size_t k = 0; k < chain.failed_attempts.size(); ++k) {
      // Every span is clamped at the deadline, which keeps children inside
      // the "kvs.multiget" parent interval.
      const uint64_t attempt_start =
          std::min(chain.failed_attempts[k].first, deadline);
      const uint64_t attempt_end =
          std::min(chain.failed_attempts[k].second, deadline);
      if (attempt_start >= attempt_end) continue;  // abandoned before issue
      batch->sim_spans.push_back(
          {StringPrintf("node%u.retry%zu", g.node, k + 1), attempt_start,
           attempt_end, {}});
    }
  }
  if (!chain.served || chain.start_us >= deadline) {
    // Every attempt failed, or queueing and/or retry backoff pushed the
    // serving attempt past the deadline, so the group times out without
    // the attempt being issued. The wait for the node's queue (clamped at
    // the event: the coordinator may stop waiting mid-queue) is queue
    // wait; the rest of the interval went to failed attempts and backoff.
    const bool timed_out = chain.served;
    const uint64_t event_us =
        timed_out ? deadline : std::min(chain.failure_us, deadline);
    if (timed_out) ++batch->result.charge.timeouts;
    const uint64_t queue_end = std::min(g.service_start, event_us);
    const LatencyAttribution event{
        .simulated_micros = event_us - batch->submit_us,
        .queue_wait_us = g.attr.queue_wait_us + (queue_end - g.start_us),
        .service_us = g.attr.service_us,
        .retry_penalty_us = g.attr.retry_penalty_us + (event_us - queue_end),
        .hedge_delta_us = g.attr.hedge_delta_us};
    batch->Consider(event);
    Status status = FailOver(
        batch, std::move(g.members), g.round + 1, event,
        timed_out ? "request timed out" : "replicas exhausted for a key");
    if (!status.ok()) {
      AbortBatch(batch, std::move(status));
      return;
    }
    GroupResolved(batch);
    return;
  }

  g.attempt_start = chain.start_us;
  g.node_us = ScaleMicros(
      options_.latency.NodeServiceMicros(group_keys.size(), g.node_bytes),
      chain.slow_multiplier);
  ++batch->nodes_contacted;
  busy_us = std::max(busy_us, g.attempt_start + g.node_us);
  MaybeSampleLoad(batch->timeline, batch->executor->now_us());

  // Hedged reads: when the replica's modeled service time crosses the
  // threshold, each key is speculatively re-issued to its next serving
  // replica. No hedge fires once the deadline has passed its issue time.
  // The hedge joins its target's queue at its issue instant, so the group
  // resolves then: work the target accepts before that instant is ahead
  // of the hedge, work it accepts after is behind.
  const uint64_t threshold = options_.latency.hedge_threshold_us;
  const uint64_t hedge_issue = g.attempt_start + threshold;
  if (threshold > 0 && g.node_us > threshold && hedge_issue < deadline) {
    batch->executor->PostAt(hedge_issue, [this, batch, group_index] {
      ResolveGroup(batch, group_index, /*hedged=*/true);
    });
    return;
  }
  ResolveGroup(batch, group_index, /*hedged=*/false);
}

void Cluster::ResolveGroup(const BatchPtr& batch, size_t group_index,
                           bool hedged) {
  // A strict batch can abort while a hedged group waits for its hedge
  // instant; it completed then and must not complete again.
  if (batch->failed) return;
  Batch::Group& g = batch->groups[group_index];
  const std::vector<std::string>& keys = *batch->keys;
  const uint64_t deadline = Deadline(options_.retry, g.start_us);
  const uint64_t primary_completion = g.attempt_start + g.node_us;
  std::vector<uint64_t> completion(g.members.size(), primary_completion);
  std::vector<Batch::SimSpan> hedge_spans;
  if (hedged) {
    // The two attempts race: the target's queue delays the speculative
    // read, so whether it wins depends on how busy the target is. A win
    // completes the hedged members at the hedge's end; their data still
    // comes from the primary's read (the replicas are identical).
    const uint64_t hedge_issue =
        g.attempt_start + options_.latency.hedge_threshold_us;
    std::map<uint32_t, std::vector<size_t>> by_target;  // member indexes
    for (size_t mi = 0; mi < g.members.size(); ++mi) {
      const Member& m = g.members[mi];
      const int next = NextUp(m.replicas, m.pos, batch->tick);
      if (next >= 0) {
        by_target[m.replicas[static_cast<size_t>(next)]].push_back(mi);
      }
    }
    for (const auto& [target, member_idxs] : by_target) {
      ++batch->result.charge.hedges;
      const FaultDecision hd =
          injector_.Decide(target, batch->tick, /*attempt=*/0,
                           kSaltHedge + kSaltStride * g.round);
      uint64_t& busy_us = batch->timeline->node_busy_us[target];
      const uint64_t hedge_begin = std::max(hedge_issue, busy_us);
      uint64_t hedge_end = hedge_begin + options_.latency.request_overhead_us;
      if (hd.kind != FaultKind::kTransientError) {
        uint64_t hedge_bytes = 0;
        for (size_t mi : member_idxs) {
          auto it = g.values.find(keys[g.members[mi].key_idx]);
          if (it != g.values.end()) hedge_bytes += it->second.size();
        }
        hedge_end = hedge_begin +
                    ScaleMicros(options_.latency.NodeServiceMicros(
                                    member_idxs.size(), hedge_bytes),
                                hd.slow_multiplier);
        busy_us = std::max(busy_us, hedge_end);
        if (hedge_end < primary_completion) {
          ++batch->result.charge.hedge_wins;
          for (size_t mi : member_idxs) completion[mi] = hedge_end;
        }
      }
      if (batch->trace != nullptr) {
        // The hedge's span ends when its last member stopped mattering.
        uint64_t latest_need = 0;
        for (size_t mi : member_idxs) {
          latest_need =
              std::max(latest_need, std::min(completion[mi], deadline));
        }
        hedge_spans.push_back(
            {StringPrintf("node%u.hedge", target), hedge_issue,
             std::max(hedge_issue, std::min(hedge_end, latest_need)),
             {{"keys", std::to_string(member_idxs.size())}}});
      }
    }
  }

  // Per-key deadline check, then serve whatever made it in time. A
  // member's effective completion — when the coordinator stops waiting on
  // it — is its (possibly hedged) completion, or the deadline.
  std::vector<Member> timed_out;
  uint64_t group_end = g.attempt_start;  // last instant this node mattered
  for (size_t mi = 0; mi < g.members.size(); ++mi) {
    if (completion[mi] > deadline) {
      group_end = std::max(group_end, deadline);
      g.values.erase(keys[g.members[mi].key_idx]);
      timed_out.push_back(std::move(g.members[mi]));
      continue;
    }
    group_end = std::max(group_end, completion[mi]);
    // Queue wait ends when the node starts the chain; backoffs until the
    // serving attempt are penalty; the node's full modeled service is
    // service; a winning hedge's saving subtracts.
    batch->Consider(LatencyAttribution{
        .simulated_micros = completion[mi] - batch->submit_us,
        .queue_wait_us = g.attr.queue_wait_us + (g.service_start - g.start_us),
        .service_us = g.attr.service_us + g.node_us,
        .retry_penalty_us =
            g.attr.retry_penalty_us + (g.attempt_start - g.service_start),
        .hedge_delta_us =
            g.attr.hedge_delta_us + (primary_completion - completion[mi])});
    auto it = g.values.find(keys[g.members[mi].key_idx]);
    if (it != g.values.end()) {
      batch->result.charge.bytes_read += it->second.size();
    }
  }
  // Hand the served values over without copying them; a key already there
  // takes the fresh read.
  batch->values->merge(g.values);
  for (auto& [key, value] : g.values) (*batch->values)[key] = std::move(value);
  if (batch->trace != nullptr) {
    // The node's span ends when its last member resolved (completed,
    // superseded by a hedge, or abandoned at the deadline) — not at the
    // modeled completion of a request nobody waited for.
    batch->sim_spans.push_back(
        {StringPrintf("node%u", g.node), g.attempt_start,
         std::min(group_end, primary_completion),
         {{"keys", std::to_string(g.members.size())},
          {"bytes", std::to_string(g.node_bytes)}}});
    for (Batch::SimSpan& span : hedge_spans) {
      batch->sim_spans.push_back(std::move(span));
    }
  }
  if (!timed_out.empty()) {
    ++batch->result.charge.timeouts;
    // The coordinator waited out [issue, deadline]: queue wait, then
    // backoffs, then the in-deadline slice of the attempt as service.
    const LatencyAttribution event{
        .simulated_micros = deadline - batch->submit_us,
        .queue_wait_us = g.attr.queue_wait_us + (g.service_start - g.start_us),
        .service_us = g.attr.service_us + (deadline - g.attempt_start),
        .retry_penalty_us =
            g.attr.retry_penalty_us + (g.attempt_start - g.service_start),
        .hedge_delta_us = g.attr.hedge_delta_us};
    batch->Consider(event);
    Status status = FailOver(batch, std::move(timed_out), g.round + 1, event,
                             "request timed out");
    if (!status.ok()) {
      AbortBatch(batch, std::move(status));
      return;
    }
  }
  GroupResolved(batch);
}

Status Cluster::FailOver(const BatchPtr& batch, std::vector<Member> members,
                         uint32_t next_round, const LatencyAttribution& attr,
                         const char* reason) {
  const uint64_t fail_us = batch->submit_us + attr.simulated_micros;
  std::map<uint32_t, std::vector<Member>> regrouped;
  for (Member& m : members) {
    const int next = NextUp(m.replicas, m.pos, batch->tick);
    if (next < 0) {
      Status exhausted = Status::IOError(reason);
      if (batch->failures == nullptr) return exhausted;
      batch->failures->push_back(
          {(*batch->keys)[m.key_idx], std::move(exhausted)});
      continue;
    }
    m.pos = static_cast<size_t>(next);
    regrouped[m.replicas[m.pos]].push_back(std::move(m));
  }
  for (auto& [node, group_members] : regrouped) {
    // The new group starts at the failing event's instant, which `attr`
    // already decomposes.
    batch->groups.push_back(Batch::Group{node, fail_us, next_round,
                                         std::move(group_members), attr});
    ++batch->outstanding;
    const size_t gi = batch->groups.size() - 1;
    batch->executor->PostAt(fail_us,
                            [this, batch, gi] { ProcessGroup(batch, gi); });
  }
  return Status::OK();
}

void Cluster::GroupResolved(const BatchPtr& batch) {
  RSTORE_DCHECK(batch->outstanding > 0);
  if (--batch->outstanding > 0) return;
  // The batch completes at its simulated completion instant, so a
  // continuation that issues a dependent batch (the map-key fetch of a
  // query) submits it at the causally correct virtual time.
  batch->executor->PostAt(batch->submit_us + batch->crit.simulated_micros +
                              options_.latency.coordinator_overhead_us,
                          [this, batch] { FinishBatch(batch); });
}

void Cluster::FinishBatch(const BatchPtr& batch) {
  KVStats& charge = batch->result.charge;
  (batch->point ? charge.gets : charge.multiget_batches) = 1;
  charge.keys_requested = batch->keys->size();
  static_cast<LatencyAttribution&>(charge) =
      WithOverhead(batch->crit, options_.latency.coordinator_overhead_us);
  if (batch->trace != nullptr) {
    TraceContext* trace = batch->trace;
    for (const Batch::SimSpan& span : batch->sim_spans) {
      const uint32_t id = trace->AddSimulatedSpan(
          span.name,
          batch->sim_batch_start + (span.start_us - batch->submit_us),
          batch->sim_batch_start + (span.end_us - batch->submit_us));
      for (const auto& [key, value] : span.notes) {
        trace->Annotate(id, key, value);
      }
    }
    // Ending the span after this advance makes its simulated duration
    // equal the charge (asserted by the observability tests).
    trace->AdvanceSim(charge.simulated_micros);
    const std::pair<const char*, uint64_t> notes[] = {
        {"keys", charge.keys_requested},
        {"bytes", charge.bytes_read},
        {"nodes", batch->nodes_contacted},
        {"queue_wait_us", charge.queue_wait_us},
        {"service_us", charge.service_us},
        {"retry_penalty_us", charge.retry_penalty_us},
        {"hedge_delta_us", charge.hedge_delta_us},
    };
    for (const auto& [key, value] : notes) {
      trace->Annotate(batch->span_id, key, std::to_string(value));
    }
    trace->EndSpan(batch->span_id);
  }
  Charge(charge);
  // Last, with no locks held: continuations may submit follow-up batches.
  if (batch->promise) batch->promise->Set(std::move(batch->result));
}

void Cluster::AbortBatch(const BatchPtr& batch, Status error) {
  batch->failed = true;
  // The span closes with no simulated advance and nothing is charged.
  if (batch->trace != nullptr) batch->trace->EndSpan(batch->span_id);
  batch->result.status = std::move(error);
  if (batch->promise) batch->promise->Set(std::move(batch->result));
}

void Cluster::MaybeSampleLoad(Timeline* timeline, uint64_t now_us) {
  // One sample sweep per interval of virtual time keeps the recorder's
  // bounded ring meaningful under saturation (thousands of groups per
  // virtual millisecond would otherwise rotate it instantly).
  constexpr uint64_t kSampleIntervalUs = 1000;
  if (!timeline->sampled || now_us < timeline->next_sample_us) return;
  timeline->next_sample_us = now_us + kSampleIntervalUs;
  FlightRecorder& recorder = FlightRecorder::Default();
  for (uint32_t node = 0; node < timeline->node_busy_us.size(); ++node) {
    const uint64_t busy_us = timeline->node_busy_us[node];
    FlightSample sample;
    sample.sim_us = now_us;
    sample.node = node;
    sample.busy_horizon_us = busy_us;
    sample.backlog_us = busy_us > now_us ? busy_us - now_us : 0;
    recorder.AddSample(sample);
  }
}

Status Cluster::Scan(const std::string& table,
                     const std::function<void(Slice key, Slice value)>& fn) {
  const uint64_t tick = injector_.CurrentTick();
  ReplayReadyHints(tick);
  // With replication a key lives on several nodes; dedupe by only emitting
  // keys whose first serving replica is the node being scanned. Keys whose
  // replicas are all down are silently skipped — Scan is administrative and
  // reports what the cluster can currently see.
  for (uint32_t node = 0; node < nodes_.size(); ++node) {
    if (!NodeUp(node, tick)) continue;
    Status s = nodes_[node]->Scan(table, [&](Slice key, Slice value) {
      auto replicas = ring_.Replicas(key, options_.replication_factor);
      const int pos = FirstUp(replicas, tick);
      if (pos >= 0 && replicas[static_cast<size_t>(pos)] == node) {
        fn(key, value);
      }
    });
    RSTORE_RETURN_IF_ERROR(s);
  }
  return Status::OK();
}

Result<uint64_t> Cluster::TableSize(const std::string& table) {
  uint64_t count = 0;
  Status s = Scan(table, [&](Slice, Slice) { ++count; });
  if (!s.ok()) return s;
  return count;
}

void Cluster::CommitHints(std::vector<std::pair<uint32_t, Hint>> staged) {
  if (staged.empty()) return;
  MutexLock lock(hints_mu_);
  for (auto& [node, hint] : staged) {
    hints_[node].push_back(std::move(hint));
  }
  hint_count_.fetch_add(staged.size(), std::memory_order_relaxed);
}

void Cluster::ReplayReadyHints(uint64_t tick) {
  if (hint_count_.load(std::memory_order_relaxed) == 0) return;
  std::vector<std::pair<uint32_t, std::vector<Hint>>> ready;
  {
    MutexLock lock(hints_mu_);
    for (uint32_t node = 0; node < hints_.size(); ++node) {
      if (hints_[node].empty() || !NodeUp(node, tick)) continue;
      ready.emplace_back(node, std::move(hints_[node]));
      hints_[node].clear();
    }
    uint64_t moved = 0;
    for (const auto& [node, hints] : ready) moved += hints.size();
    if (moved > 0) hint_count_.fetch_sub(moved, std::memory_order_relaxed);
  }
  if (ready.empty()) return;
  uint64_t replayed = 0;
  for (auto& [node, hints] : ready) {
    for (Hint& hint : hints) {
      if (hint.is_delete) {
        // The key may never have reached this node; NotFound is fine.
        Status s = nodes_[node]->Delete(hint.table, hint.key);
        (void)s;
      } else {
        Status s = nodes_[node]->Put(hint.table, hint.key, hint.value);
        RSTORE_CHECK(s.ok()) << "hint replay failed: " << s.ToString();
      }
      ++replayed;
    }
  }
  // Replayed writes are repair traffic, not client latency: they charge no
  // simulated micros, only the counter.
  KVStats charge;
  charge.handoff_replays = replayed;
  Charge(charge);
}

void Cluster::Charge(const KVStats& charge) {
  const ClusterMetrics& metrics = ClusterMetrics::Get();
  const uint64_t requests =
      charge.gets + charge.puts + charge.deletes + charge.multiget_batches;
  if (requests > 0) metrics.requests_total->Increment(requests);
  for (const auto& [member, counter] : metrics.mirrors) {
    if (charge.*member > 0) counter->Increment(charge.*member);
  }
  if (charge.multiget_batches > 0) {
    metrics.multiget_batch_keys->Observe(charge.keys_requested);
  }
  MutexLock lock(mu_);
  stats_ += charge;
}

KVStats Cluster::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void Cluster::ResetStats() {
  MutexLock lock(mu_);
  stats_ = KVStats{};
}

void Cluster::SetNodeAlive(uint32_t node, bool alive) {
  RSTORE_CHECK(node < alive_.size());
  alive_[node].store(alive, std::memory_order_release);
  // Recovery backfills the node from its hint queue right away, so a query
  // issued immediately after the flip already sees the healed replica.
  if (alive) ReplayReadyHints(injector_.CurrentTick());
}

bool Cluster::IsNodeAlive(uint32_t node) const {
  RSTORE_CHECK(node < alive_.size());
  return alive_[node].load(std::memory_order_acquire);
}

uint64_t Cluster::NodeBytes(uint32_t node) const {
  RSTORE_CHECK(node < nodes_.size());
  return nodes_[node]->TotalBytes();
}

size_t Cluster::PendingHints(uint32_t node) const {
  RSTORE_CHECK(node < nodes_.size());
  MutexLock lock(hints_mu_);
  return hints_[node].size();
}

}  // namespace rstore

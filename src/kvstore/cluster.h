#ifndef RSTORE_KVSTORE_CLUSTER_H_
#define RSTORE_KVSTORE_CLUSTER_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/executor.h"
#include "common/sync.h"
#include "common/trace.h"
#include "kvstore/fault_injector.h"
#include "kvstore/hash_ring.h"
#include "kvstore/kv_store.h"
#include "kvstore/latency_model.h"
#include "kvstore/memory_store.h"
#include "kvstore/retry_policy.h"

namespace rstore {

/// Configuration for a simulated cluster.
struct ClusterOptions {
  uint32_t num_nodes = 4;
  /// Copies of every key, Cassandra-style; writes go to all replicas, reads
  /// are served by the first alive replica, failing over down the replica
  /// list on errors/timeouts and hedging per LatencyModel::hedge_threshold_us.
  uint32_t replication_factor = 1;
  uint32_t virtual_nodes_per_node = 64;
  LatencyModel latency = DefaultLatencyModel();
  uint64_t ring_seed = 0x5274537265ull;  // "RtSre"
  /// Deterministic fault schedule (default: no faults injected).
  FaultInjectorOptions faults;
  /// Coordinator retry/backoff/timeout discipline (simulated clock).
  RetryPolicy retry;
};

/// An in-process distributed key-value store: the Cassandra stand-in.
///
/// N MemoryStore nodes behind a consistent-hash ring, a coordinator that
/// routes requests, and a LatencyModel that charges simulated time for every
/// round trip and byte. Data placement, replication, routing, and failover
/// are executed for real; only the wall-clock is simulated (accumulated in
/// stats().simulated_micros so callers can report "how long this would have
/// taken" on the modeled hardware).
///
/// Fault tolerance: a seeded FaultInjector supplies transient errors, latency
/// spikes, and crash windows per ClusterOptions::faults; the coordinator
/// retries with deterministic exponential backoff (ClusterOptions::retry),
/// hedges slow reads to the next alive replica, and stages hinted-handoff
/// writes for down replicas, replaying them when the node returns. The same
/// options therefore replay an exact fault timeline — same results, same
/// retry/hedge counters — which the chaos suite exploits.
///
/// MultiGet is the workhorse: RStore retrieves the chunks for a version "by
/// issuing queries in parallel to the backend store" (paper §2.4), so the
/// batch's simulated latency is the *max* over nodes of each node's serial
/// service time, plus one coordinator overhead. Get is a one-key MultiGet,
/// so every read runs on one batched-read engine. WriteBatch is MultiGet's
/// write twin, charged by the same rule: a drain sends its chunk bodies and
/// its chunk maps as two batches, and each costs what its busiest node
/// serves. Put, Delete and WriteBatch share one replica-write path, so a
/// one-entry batch is a Put.
class Cluster : public KVStore {
 public:
  explicit Cluster(const ClusterOptions& options);

  Status CreateTable(const std::string& table) override;
  Status Put(const std::string& table, Slice key, Slice value) override;
  /// One coordinator operation: each entry goes to its replicas as a Put
  /// sends it (one fault tick per entry, in entry order, with the same
  /// attempt chains and hinted handoff), and the batch is charged by the
  /// MultiGet rule: one coordinator overhead plus the slowest node's
  /// NodeServiceMicros(its entries, their value bytes). Under faults a
  /// node's share starts once its last entry's serving attempt is issued,
  /// each slow attempt adds what its slowdown costs its own entry, and the
  /// request deadline applies to each entry as to a lone Put. A one-entry
  /// batch costs exactly a Put. When an entry's replicas are all down the
  /// batch stops there with IOError; the entries before it stay applied and
  /// are charged.
  Status WriteBatch(const std::string& table,
                    const std::vector<std::pair<std::string, std::string>>&
                        entries) override;
  /// A strict one-key batch (see MultiGet) with no trace: retried, failed
  /// over, abandoned at the request deadline and hedged as a one-key
  /// MultiGet is, and charged the same, except that stats() counts it in
  /// `gets` rather than `multiget_batches`. NotFound when the key is absent.
  Result<std::string> Get(const std::string& table, Slice key) override;
  /// Sync MultiGet and MultiGetPartial run MultiGetAsync on a private
  /// Executor and drain it: one retry/failover/hedge engine serves both
  /// read paths. A private timeline's node queues hold only this batch's
  /// own groups, which is what a caller that waits out each batch sees.
  ///
  /// When `trace` is non-null, records a "kvs.multiget" span with one
  /// "node<N>" child per contacted node covering that node's service
  /// interval on the simulated clock — the children of the first groups
  /// all start at the batch's start instant because the nodes serve their
  /// shares in parallel — and advances the trace's simulated clock by
  /// exactly the micros charged to stats(). Under faults, additional
  /// "node<N>.retry<k>" / "node<N>.hedge" children record the failed
  /// attempts and speculative reads, all contained in the parent interval.
  using KVStore::MultiGet;
  Status MultiGet(const std::string& table,
                  const std::vector<std::string>& keys,
                  std::map<std::string, std::string>* out,
                  TraceContext* trace) override;
  /// Per-key degradation: unavailable keys land in `*failures` instead of
  /// failing the batch (see KVStore::MultiGetPartial).
  Status MultiGetPartial(const std::string& table,
                         const std::vector<std::string>& keys,
                         std::map<std::string, std::string>* out,
                         std::vector<KeyReadFailure>* failures,
                         TraceContext* trace) override;
  /// Asynchronous MultiGet, scheduled on a deterministic virtual-time
  /// Executor so many batches from many queries overlap through one
  /// coordinator. Each executor is its own virtual timeline (keyed by
  /// Executor::id()) with a per-node FIFO queue: a group's service starts
  /// once its node has drained the groups it accepted earlier on that
  /// timeline, so saturation is bounded by aggregate node capacity. A
  /// hedge joins its target's queue at the instant it is issued. Executors
  /// never share queues, and shared timelines feed the flight recorder's
  /// saturation samples.
  ///
  /// With `partial` false the batch is strict (first unavailable key fails
  /// the whole batch, nothing is charged); with true, unavailable keys land
  /// in AsyncMultiGetResult::failures. The returned future completes on the
  /// executor at the batch's simulated completion instant, after this
  /// batch's charge lands in stats(). `trace` must belong to the submitting
  /// query chain and stay open (no span started before submission may
  /// close) until the future completes; per-node / per-attempt children and
  /// the simulated advance are recorded at completion and reconcile exactly
  /// with the charge. Writes must not run concurrently with in-flight
  /// async reads.
  Future<AsyncMultiGetResult> MultiGetAsync(
      Executor* executor, const std::string& table,
      const std::vector<std::string>& keys, bool partial,
      TraceContext* trace) override;

  Status Delete(const std::string& table, Slice key) override;
  Status Scan(const std::string& table,
              const std::function<void(Slice key, Slice value)>& fn) override;
  Result<uint64_t> TableSize(const std::string& table) override;

  KVStats stats() const override;
  void ResetStats() override;

  uint32_t num_nodes() const { return ring_.num_nodes(); }

  /// Failure injection: a down node rejects requests; reads fail over to the
  /// next alive replica, writes stage a hinted-handoff entry that is
  /// replayed when the node comes back (SetNodeAlive(node, true) replays
  /// synchronously; injector crash windows are backfilled at the next
  /// coordinator operation after the window closes).
  void SetNodeAlive(uint32_t node, bool alive);
  bool IsNodeAlive(uint32_t node) const;

  /// Bytes resident on one node (for balance/skew inspection).
  uint64_t NodeBytes(uint32_t node) const;

  /// Hinted-handoff entries currently staged for `node` (tests/inspection).
  size_t PendingHints(uint32_t node) const;

  /// The fault schedule this cluster draws from, exposed so chaos tests can
  /// reconcile the injected-fault tallies against the coordinator's stats.
  const FaultInjector& fault_injector() const { return injector_; }

 private:
  /// A write captured for a down replica, replayed on recovery.
  struct Hint {
    std::string table;
    std::string key;
    std::string value;
    bool is_delete = false;
  };

  /// True when `node` serves requests at `tick`: the liveness flag is set
  /// and no injector crash window covers the tick.
  bool NodeUp(uint32_t node, uint64_t tick) const;

  /// Position of the first serving replica in `replicas` at `tick`, or -1
  /// if all are down.
  int FirstUp(const std::vector<uint32_t>& replicas, uint64_t tick) const;
  /// Position of the first serving replica strictly after `after`, or -1.
  int NextUp(const std::vector<uint32_t>& replicas, size_t after,
             uint64_t tick) const;

  /// Simulated outcome of one request's attempt chain against one node:
  /// transient errors consume attempts (with backoff between them) until an
  /// attempt is served or the RetryPolicy is exhausted. Pure function of
  /// (node, tick, round, salt_base) given the schedule — no state mutated.
  struct AttemptChain {
    bool served = false;
    /// Issue time of the successful attempt (offset from the op start).
    uint64_t start_us = 0;
    double slow_multiplier = 1.0;
    /// When the chain gave up (valid when !served).
    uint64_t failure_us = 0;
    uint32_t retries = 0;
    /// [issue, error) intervals of the attempts that failed, for tracing.
    std::vector<std::pair<uint64_t, uint64_t>> failed_attempts;
  };
  AttemptChain SimulateAttempts(uint32_t node, uint64_t tick, uint32_t round,
                                uint32_t salt_base, uint64_t start_us) const;

  /// Per-node FIFO queues of one virtual timeline (one Executor). Only
  /// that executor's events touch it, one at a time, so no lock guards it.
  struct Timeline {
    Timeline(size_t num_nodes, bool sampled)
        : node_busy_us(num_nodes, 0), sampled(sampled) {}
    /// Virtual instant until which each node serves earlier groups.
    std::vector<uint64_t> node_busy_us;
    /// Whether the flight recorder samples these queues (a sync call's
    /// private timeline is never sampled), and when it next does.
    bool sampled;
    uint64_t next_sample_us = 0;
  };

  /// Defined in cluster.cc: the continuation state of one in-flight
  /// batch, and a key routed to one of its replicas.
  struct Batch;
  struct Member;
  using BatchPtr = std::shared_ptr<Batch>;

  /// Sync Get/MultiGet/MultiGetPartial: one batch on a private timeline,
  /// drained inline. `failures` null means strict; `point` marks a Get.
  Status DrainMultiGet(const std::string& table,
                       const std::vector<std::string>& keys,
                       std::map<std::string, std::string>* out,
                       std::vector<KeyReadFailure>* failures,
                       TraceContext* trace, bool point = false);
  /// Draws the batch's tick, routes every key and schedules the first
  /// groups at the submission instant.
  void StartBatch(const BatchPtr& batch);
  /// A group reaches its node: queue wait, the attempt chain, and the
  /// node's service. A hedged group resolves at the hedge's issue instant,
  /// any other one at once.
  void ProcessGroup(const BatchPtr& batch, size_t group_index);
  /// Races the hedges (when `hedged`), serves the members that made the
  /// deadline and fails the rest over.
  void ResolveGroup(const BatchPtr& batch, size_t group_index, bool hedged);
  /// Routes members that failed at event `attr` (at submit_us +
  /// attr.simulated_micros) to their next serving replicas as new groups,
  /// which inherit the event's attribution. Strict-mode exhaustion returns
  /// the error (caller aborts the batch).
  Status FailOver(const BatchPtr& batch, std::vector<Member> members,
                  uint32_t next_round, const LatencyAttribution& attr,
                  const char* reason);
  /// Marks one group resolved; the last one schedules FinishBatch at the
  /// batch's simulated completion instant.
  void GroupResolved(const BatchPtr& batch);
  /// Charges the batch, emits its trace children and simulated advance,
  /// and completes it.
  void FinishBatch(const BatchPtr& batch);
  /// Strict-mode batch failure: the span closes without an advance and
  /// nothing is charged.
  void AbortBatch(const BatchPtr& batch, Status error);

  /// The shared timeline of `executor`, created on first use.
  Timeline* SharedTimeline(const Executor& executor);
  /// Samples a shared timeline's node queues into the process-wide
  /// FlightRecorder, at most once per sampling interval of virtual time.
  static void MaybeSampleLoad(Timeline* timeline, uint64_t now_us);

  /// Defined in cluster.cc: what each node serves of one write operation,
  /// and the events that can bound its completion.
  struct WriteOp;

  /// The one replica-write path: Put, Delete (`is_delete`, values ignored)
  /// and WriteBatch are each one coordinator operation over their entries,
  /// charged when the entries have been sent.
  Status Write(const std::string& table,
               const std::vector<std::pair<Slice, Slice>>& entries,
               bool is_delete);
  /// Sends one entry to every replica as a lone Put or Delete would: its
  /// own fault tick and attempt chains, hints staged for the replicas that
  /// are down or fail. Adds the entry to `op` once it has landed somewhere.
  Status WriteEntry(const std::string& table, Slice key, Slice value,
                    bool is_delete, WriteOp* op);

  /// The one epilogue of every charge (each read batch, Put, Delete, write
  /// batch and hint replay): adds it to stats() and to the rstore_kvs_*
  /// registry counters together, so the two always match.
  void Charge(const KVStats& charge);

  /// Replays staged hints for every node that is up at `tick`. Called at
  /// the start of each coordinator operation (before routing, so a write
  /// issued after recovery can never be overwritten by an older hint) and
  /// from SetNodeAlive. Replayed writes are charged zero simulated micros:
  /// handoff replay is background repair traffic, not client latency.
  void ReplayReadyHints(uint64_t tick);

  /// Appends hints (collected during one write op) to the per-node queues.
  void CommitHints(std::vector<std::pair<uint32_t, Hint>> staged);

  /// Routing state (ring_, nodes_, options_) is immutable after
  /// construction and alive_ is atomic, so requests route lock-free; mu_
  /// guards only the coordinator's stats and timeline registry and is never
  /// held across a node call (node locks rank below kLockRankCluster — see
  /// sync.h).
  ClusterOptions options_;
  HashRing ring_;
  std::vector<std::unique_ptr<MemoryStore>> nodes_;
  /// Per-node liveness, atomic so failure injection (SetNodeAlive) can race
  /// with request routing without tearing; a std::vector<bool> here is a
  /// data race under TSan because neighbouring bits share a byte.
  /// analyze:atomic -- lock-free flags, racing with routing by design.
  std::vector<std::atomic<bool>> alive_;
  /// Deterministic fault source; inert unless ClusterOptions::faults has
  /// any fault configured.
  FaultInjector injector_;

  /// Staged hinted-handoff writes, one queue per node. hints_mu_ is never
  /// held across a node call: replay swaps a queue out under the lock and
  /// writes with it released. hint_count_ lets the per-operation replay
  /// check skip the lock entirely while no hints are staged (the common,
  /// fault-free case).
  mutable Mutex hints_mu_{kLockRankClusterHints, "Cluster::hints_mu_"};
  std::vector<std::vector<Hint>> hints_ RSTORE_GUARDED_BY(hints_mu_);
  /// Written under hints_mu_, read lock-free as an empty-queue fast path;
  /// over/under-reads only delay or waste a replay probe, never lose a
  /// hint (the queue itself is guarded). analyze:atomic
  std::atomic<uint64_t> hint_count_{0};

  mutable Mutex mu_{kLockRankCluster, "Cluster::mu_"};
  KVStats stats_ RSTORE_GUARDED_BY(mu_);
  /// The timeline of every executor that has read from this cluster, keyed
  /// by Executor::id(). Entries are never erased, so the Timeline pointers
  /// that batches hold stay valid (std::map nodes never move).
  std::map<uint64_t, Timeline> timelines_ RSTORE_GUARDED_BY(mu_);
};

}  // namespace rstore

#endif  // RSTORE_KVSTORE_CLUSTER_H_

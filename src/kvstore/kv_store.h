#ifndef RSTORE_KVSTORE_KV_STORE_H_
#define RSTORE_KVSTORE_KV_STORE_H_

#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/executor.h"
#include "common/latency_attribution.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"

namespace rstore {

class TraceContext;

/// Aggregate counters for traffic against a KV store. RStore's evaluation
/// metrics (number of queries issued to the backend, bytes moved, simulated
/// latency and its attribution, inherited from LatencyAttribution) are read
/// from here.
struct KVStats : LatencyAttribution {
  uint64_t gets = 0;
  uint64_t puts = 0;
  uint64_t deletes = 0;
  uint64_t multiget_batches = 0;
  /// Individual key lookups, including those inside MultiGet batches.
  uint64_t keys_requested = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;

  // Fault-tolerance counters (nonzero only for stores that model faults).
  /// Attempts re-issued after a transient error (backoff charged to
  /// simulated_micros).
  uint64_t retries = 0;
  /// Speculative reads issued because a replica exceeded the latency model's
  /// hedge threshold, and how many of them completed first.
  uint64_t hedges = 0;
  uint64_t hedge_wins = 0;
  /// Requests abandoned at the RetryPolicy's simulated deadline.
  uint64_t timeouts = 0;
  /// Writes staged for a down replica, and hints later replayed to a
  /// recovered node (hinted handoff).
  uint64_t handoff_hints = 0;
  uint64_t handoff_replays = 0;

  struct Field {
    const char* name;
    uint64_t KVStats::* member;
    /// The registry counter mirroring the field, or null for none.
    const char* counter;
  };

  inline KVStats& operator+=(const KVStats& other);
  /// What happened between two snapshots: `after - before`, field by field.
  static inline KVStats Delta(const KVStats& after, const KVStats& before);
};

/// The counter registry: every KVStats counter, exactly once, with the
/// rstore_kvs_* counter that Cluster keeps equal to it. Gets, puts and
/// deletes have none: rstore_kvs_requests_total sums them with the
/// multiget batches.
inline constexpr KVStats::Field kKVStatsFields[] = {
    {"gets", &KVStats::gets, nullptr},
    {"puts", &KVStats::puts, nullptr},
    {"deletes", &KVStats::deletes, nullptr},
    {"multiget_batches", &KVStats::multiget_batches,
     "rstore_kvs_multiget_batches_total"},
    {"keys_requested", &KVStats::keys_requested,
     "rstore_kvs_keys_requested_total"},
    {"bytes_read", &KVStats::bytes_read, "rstore_kvs_bytes_read_total"},
    {"bytes_written", &KVStats::bytes_written,
     "rstore_kvs_bytes_written_total"},
    {"simulated_micros", &KVStats::simulated_micros,
     "rstore_kvs_simulated_micros_total"},
    {"retries", &KVStats::retries, "rstore_kvs_retries_total"},
    {"hedges", &KVStats::hedges, "rstore_kvs_hedges_total"},
    {"hedge_wins", &KVStats::hedge_wins, "rstore_kvs_hedge_wins_total"},
    {"timeouts", &KVStats::timeouts, "rstore_kvs_timeouts_total"},
    {"handoff_hints", &KVStats::handoff_hints,
     "rstore_kvs_handoff_hints_total"},
    {"handoff_replays", &KVStats::handoff_replays,
     "rstore_kvs_handoff_replays_total"},
    {"queue_wait_us", &KVStats::queue_wait_us,
     "rstore_kvs_queue_wait_micros_total"},
    {"service_us", &KVStats::service_us, "rstore_kvs_service_micros_total"},
    {"retry_penalty_us", &KVStats::retry_penalty_us,
     "rstore_kvs_retry_penalty_micros_total"},
    {"hedge_delta_us", &KVStats::hedge_delta_us,
     "rstore_kvs_hedge_saved_micros_total"},
};

/// Every KVStats field is a uint64_t, so this trips the moment a field is
/// added without a kKVStatsFields entry (aggregation would drop it).
static_assert(sizeof(KVStats) ==
                  std::size(kKVStatsFields) * sizeof(uint64_t),
              "KVStats field added without a kKVStatsFields entry");

inline KVStats& KVStats::operator+=(const KVStats& other) {
  for (const Field& field : kKVStatsFields) {
    this->*field.member += other.*field.member;
  }
  return *this;
}

inline KVStats KVStats::Delta(const KVStats& after, const KVStats& before) {
  KVStats delta;
  for (const Field& field : kKVStatsFields) {
    delta.*field.member = after.*field.member - before.*field.member;
  }
  return delta;
}

/// One key a partial batched read could not serve, with the reason (e.g. all
/// replicas down, or attempts exhausted). Reported by MultiGetPartial so
/// best-effort readers can degrade gracefully instead of failing the batch.
struct KeyReadFailure {
  std::string key;
  Status status;
};

/// Completion payload of one asynchronous MultiGet batch. Unlike the
/// synchronous path — where callers difference stats() snapshots — the
/// batch's own charge rides in the result, because stats() deltas are
/// meaningless while hundreds of batches are in flight.
struct AsyncMultiGetResult {
  Status status = Status::OK();
  std::map<std::string, std::string> values;
  /// Per-key degradations (partial mode only; strict batches fail whole).
  std::vector<KeyReadFailure> failures;
  /// Exactly what this batch added to stats(): its keys and bytes, the
  /// simulated micros with their attribution, and the fault counters.
  KVStats charge;
};

/// Abstract distributed key-value store interface.
///
/// RStore is "intended to act as a layer on top of a distributed key-value
/// store ... we only assume basic get/put functionality from it" (paper
/// §2.4). This interface is that assumption made explicit: named tables
/// (chunks and indexes are stored "in two distinct tables"), binary keys and
/// values, point get/put/delete, a batched MultiGet (issued as parallel
/// queries, matching how RStore retrieves chunks), and a full-table scan used
/// only by administrative tooling.
class KVStore {
 public:
  virtual ~KVStore() = default;

  /// Creates `table` if absent; OK if it already exists.
  virtual Status CreateTable(const std::string& table) = 0;

  /// Stores `value` under `key`, overwriting any previous value.
  virtual Status Put(const std::string& table, Slice key, Slice value) = 0;

  /// Group commit: stores every (key, value) pair of `entries`; the stored
  /// result is that of issuing the Puts in order, and stats count one put
  /// per entry. A store may serve the entries in parallel: Cluster charges
  /// the batch as one coordinator operation by the MultiGet rule (one
  /// coordinator overhead plus the busiest node's share). Single-node
  /// stores apply the whole group under one lock acquisition (FileStore
  /// also flushes its log once). Not atomic: a failed batch may leave any
  /// subset of its entries applied.
  virtual Status WriteBatch(
      const std::string& table,
      const std::vector<std::pair<std::string, std::string>>& entries) = 0;

  /// Point lookup. kNotFound if the key is absent.
  virtual Result<std::string> Get(const std::string& table, Slice key) = 0;

  /// Batched lookup. Returns one entry per found key in `*out` (missing keys
  /// are simply absent, not errors). Implementations issue the per-key reads
  /// in parallel across the nodes that own them.
  ///
  /// `trace` may be null (the common case). When set, implementations that
  /// model distribution record one child span per contacted node covering
  /// that node's simulated service interval, and advance the context's
  /// simulated clock by exactly the micros they charge to stats() — the
  /// contract the observability tests reconcile. Implementations that
  /// override only the traced form inherit the untraced convenience overload
  /// via `using KVStore::MultiGet;`.
  virtual Status MultiGet(const std::string& table,
                          const std::vector<std::string>& keys,
                          std::map<std::string, std::string>* out,
                          TraceContext* trace) = 0;

  /// Untraced convenience form.
  Status MultiGet(const std::string& table,
                  const std::vector<std::string>& keys,
                  std::map<std::string, std::string>* out) {
    return MultiGet(table, keys, out, nullptr);
  }

  /// Best-effort batched lookup: keys whose owning replicas are unavailable
  /// are reported in `*failures` (with the reason) instead of failing the
  /// whole batch. Only returns a non-OK status for errors unrelated to
  /// individual keys. Keys absent from both `*out` and `*failures` were
  /// served fine and simply do not exist. The default implementation
  /// delegates to MultiGet and, on failure, attributes the batch error to
  /// every key — stores without partial-failure modes degrade all-or-nothing.
  virtual Status MultiGetPartial(const std::string& table,
                                 const std::vector<std::string>& keys,
                                 std::map<std::string, std::string>* out,
                                 std::vector<KeyReadFailure>* failures,
                                 TraceContext* trace) {
    Status s = MultiGet(table, keys, out, trace);
    if (!s.ok() && failures != nullptr) {
      for (const std::string& key : keys) {
        if (out->count(key) == 0) failures->push_back({key, s});
      }
      return Status::OK();
    }
    return s;
  }

  /// Asynchronous batched lookup, completing on `executor`'s virtual
  /// timeline. With `partial` false the batch is strict: the first
  /// unavailable key fails the whole batch (mirroring MultiGet); with true,
  /// unavailable keys land in AsyncMultiGetResult::failures. The default
  /// implementation bridges to the synchronous path and returns an
  /// already-completed future — stores without a latency model serve
  /// instantly on the virtual clock, charging exactly what the sync call
  /// charged. Stores that model distribution (Cluster) override this with a
  /// genuinely pipelined implementation.
  virtual Future<AsyncMultiGetResult> MultiGetAsync(
      Executor* executor, const std::string& table,
      const std::vector<std::string>& keys, bool partial,
      TraceContext* trace) {
    (void)executor;
    AsyncMultiGetResult result;
    const KVStats before = stats();
    result.status =
        partial ? MultiGetPartial(table, keys, &result.values,
                                  &result.failures, trace)
                : MultiGet(table, keys, &result.values, trace);
    result.charge = KVStats::Delta(stats(), before);
    return MakeReadyFuture(std::move(result));
  }

  virtual Status Delete(const std::string& table, Slice key) = 0;

  /// Invokes `fn` for every key/value in `table`, in unspecified order.
  /// Administrative/testing use only: real deployments never scan. `fn`
  /// must not call back into the same store (implementations may hold
  /// internal locks across the scan).
  virtual Status Scan(
      const std::string& table,
      const std::function<void(Slice key, Slice value)>& fn) = 0;

  /// Number of keys in `table` (kNotFound if the table does not exist).
  virtual Result<uint64_t> TableSize(const std::string& table) = 0;

  /// Cumulative traffic counters since construction (or ResetStats).
  virtual KVStats stats() const = 0;
  virtual void ResetStats() = 0;
};

}  // namespace rstore

#endif  // RSTORE_KVSTORE_KV_STORE_H_

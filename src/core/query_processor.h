#ifndef RSTORE_CORE_QUERY_PROCESSOR_H_
#define RSTORE_CORE_QUERY_PROCESSOR_H_

#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/executor.h"
#include "common/latency_attribution.h"
#include "common/result.h"
#include "common/trace.h"
#include "core/chunk_cache.h"
#include "core/options.h"
#include "core/placement.h"
#include "core/query.h"
#include "core/record.h"
#include "core/store_catalog.h"
#include "kvstore/kv_store.h"
#include "version/dataset.h"

namespace rstore {

/// Per-query cost accounting: the number of chunks retrieved is the span
/// (paper §2.5, "the key performance metric"); simulated_micros, inherited
/// with its attribution from LatencyAttribution, is the modeled backend
/// latency the query incurred. With a chunk cache on the read path,
/// bytes_fetched/simulated_micros only reflect traffic that actually
/// reached the backend (misses), while chunks_fetched stays the span — so
/// cache_hits + cache_misses == chunks_fetched whenever a cache is attached.
///
/// Counters are registered once in kQueryStatsFields below; aggregation
/// (operator+=), the registry mirror and generic reporting iterate that
/// table, so adding a new per-layer counter is a one-line change that no
/// existing caller sees.
struct QueryStats : LatencyAttribution {
  uint64_t chunks_fetched = 0;
  uint64_t bytes_fetched = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Chunks a best-effort query could not fetch (always 0 in strict mode,
  /// where an unfetchable chunk is an error instead).
  uint64_t missing_chunks = 0;

  struct Field {
    const char* name;
    uint64_t QueryStats::* member;
    /// The registry counter mirroring the field, or null for none.
    const char* counter;
  };

  inline QueryStats& operator+=(const QueryStats& other);
};

/// The counter registry: every QueryStats counter, exactly once, with the
/// rstore_query_* counter every fetch adds it to. The cache counts its own
/// hits and misses, and the attribution parts are mirrored by the backend's
/// rstore_kvs_* counters.
inline constexpr QueryStats::Field kQueryStatsFields[] = {
    {"chunks_fetched", &QueryStats::chunks_fetched,
     "rstore_query_chunks_fetched_total"},
    {"bytes_fetched", &QueryStats::bytes_fetched,
     "rstore_query_bytes_fetched_total"},
    {"simulated_micros", &QueryStats::simulated_micros,
     "rstore_query_simulated_micros_total"},
    {"cache_hits", &QueryStats::cache_hits, nullptr},
    {"cache_misses", &QueryStats::cache_misses, nullptr},
    {"missing_chunks", &QueryStats::missing_chunks,
     "rstore_query_missing_chunks_total"},
    {"queue_wait_us", &QueryStats::queue_wait_us, nullptr},
    {"service_us", &QueryStats::service_us, nullptr},
    {"retry_penalty_us", &QueryStats::retry_penalty_us, nullptr},
    {"hedge_delta_us", &QueryStats::hedge_delta_us, nullptr},
};

/// Every QueryStats field is a uint64_t, so the struct's size is exactly one
/// table entry per field; this trips the moment someone adds a field without
/// registering it (and aggregation/reporting would silently drop it).
static_assert(sizeof(QueryStats) ==
                  std::size(kQueryStatsFields) * sizeof(uint64_t),
              "QueryStats field added without a kQueryStatsFields entry");

inline QueryStats& QueryStats::operator+=(const QueryStats& other) {
  for (const Field& field : kQueryStatsFields) {
    this->*field.member += other.*field.member;
  }
  return *this;
}

/// What a best-effort query could not serve: the chunks whose body fetch
/// failed, with the backend's reasons. An empty report means the
/// result is complete (byte-identical to a strict run).
struct QueryDegradation {
  std::vector<ChunkId> missing_chunks;
  /// One human-readable reason per missing chunk, index-aligned.
  std::vector<std::string> messages;

  bool degraded() const { return !missing_chunks.empty(); }
};

/// Completion payload of an asynchronous query (QueryProcessor::RunAsync,
/// and so RStore::RunAsync and its named twins such as GetVersionAsync). The
/// per-query cost accounting rides in the result — differencing a shared
/// QueryStats is meaningless while many queries are in flight — and
/// `records` is byte-identical to what the synchronous twin would have
/// returned.
struct AsyncQueryResult {
  Status status = Status::OK();
  std::vector<Record> records;
  QueryStats stats;
  /// Best-effort casualties (empty in strict mode or when nothing degraded).
  QueryDegradation degradation;
};

/// Completion payload of an asynchronous point query (GetRecordAsync).
struct AsyncRecordResult {
  Status status = Status::OK();
  Record record;
  QueryStats stats;
};

/// Executes the four retrieval query classes of paper §2.1 against the
/// chunked store (paper §2.4, "Indexes and Query Processing Module").
///
/// - Version retrieval: version->chunks projection, parallel chunk fetch,
///   chunk maps extract the members.
/// - Record evolution: same flow with the key->chunks projection.
/// - Range / record retrieval: "index-ANDing" of both projections; because
///   the projections are lossy, a fetched chunk may turn out to hold no
///   record of interest.
///
/// The paper's application server keeps its indexes in memory (§2.4), and
/// so does this one: each chunk's map is read by reference from the
/// StoreCatalog, and the backend is asked for chunk bodies only, in one
/// batch per query that misses the cache. A body must decode as the chunk
/// it was fetched as and hold exactly the records its map indexes;
/// otherwise the query fails with kCorruption.
///
/// The DELTA and SUBCHUNK baseline layouts use their own retrieval rules
/// (chain replay / full scan) selected by the catalog's layout kind. The
/// fetched chunks are decoded and extracted one after another, as in the
/// paper's prototype (§5.5).
///
/// When a ChunkCache is attached, every chunk fetch consults it first, by
/// chunk id, and decoded bodies are inserted after a backend fetch.
/// Processors on different threads may share one cache.
class QueryProcessor {
 public:
  /// All pointers are borrowed and must outlive the processor; the
  /// processor reads them at each query, so it follows the catalog, dataset
  /// and options as their owner changes them. `dataset` is the
  /// tree-transformed dataset whose composite keys match the stored chunks.
  /// `cache` may be null (uncached reads, the default).
  QueryProcessor(KVStore* kvs, const StoreCatalog* catalog,
                 const VersionedDataset* dataset, const Options* options,
                 ChunkCache* cache = nullptr);
  // In-flight async queries hold the processor's address.
  QueryProcessor(const QueryProcessor&) = delete;
  QueryProcessor& operator=(const QueryProcessor&) = delete;

  /// Runs `query` synchronously: plans it from the projections, fetches its
  /// chunk bodies (one KVStore::MultiGet) and extracts the records through
  /// the catalog's maps. History comes back sorted by origin version, the
  /// other classes by key; a point query, planned and replayed as the range
  /// [key, key], yields at most one record (none when the version has no
  /// such key).
  ///
  /// With a non-null `trace`, the query records a span tree ("query.*"
  /// around the whole query, "query.fetch_chunks" / "cache.lookup" /
  /// "query.decode" around the read path, plus the backend's own
  /// "kvs.multiget" spans) stamped with both wall-clock and simulated time.
  /// Full and range retrievals outside the DELTA layout honor
  /// Options::read_mode: under ReadMode::kBestEffort, chunks the backend
  /// cannot serve are skipped (through MultiGetPartial) and reported via
  /// `degradation` (when non-null) and the missing_chunks stat instead of
  /// failing the query. Every other query is strict and leaves
  /// `degradation` alone.
  Result<std::vector<Record>> Run(const Query& query,
                                  QueryStats* stats = nullptr,
                                  TraceContext* trace = nullptr,
                                  QueryDegradation* degradation = nullptr);

  /// The asynchronous twin of Run, continuation-style on a deterministic
  /// virtual-time Executor, so many queries pipeline through one
  /// coordinator (the backend's per-node queues are the shared resource).
  /// It plans inline, submits the body batch through KVStore::MultiGetAsync,
  /// and runs Run's epilogue when it completes, completing the returned
  /// future at the query's simulated completion instant with records
  /// byte-identical to Run's. The query keeps one heap state and one
  /// promise from plan to completion. A sequentially-drained executor
  /// (RunUntilIdle after each submission) replays the synchronous timeline
  /// exactly — same backend ticks, same charges, same counters.
  ///
  /// The query's accounting and best-effort report ride in the result.
  /// `trace`, when non-null, must be a context used by this query chain
  /// only (one TraceContext per in-flight query) and stays open until the
  /// future completes. The processor must outlive the future.
  Future<AsyncQueryResult> RunAsync(Executor* executor, Query query,
                                    TraceContext* trace = nullptr);

 private:
  /// A decoded chunk on the read path: cached entries are shared with the
  /// cache (and other readers), uncached ones are exclusively owned.
  using ChunkRef = std::shared_ptr<const Chunk>;

  /// Work-in-progress state of one chunk fetch, shared between the
  /// synchronous and asynchronous paths: the cache pass's outcome plus the
  /// backend keys still to be fetched.
  struct FetchPlan {
    /// Resolved chunks, index-aligned with the requested ids; entries not
    /// served by the cache are filled in by DecodeAndInsert.
    std::vector<ChunkRef> chunks;
    std::vector<size_t> miss;  // indices into `ids` needing a backend fetch
    std::vector<std::string> chunk_keys;  // backend keys, aligned with miss
  };

  /// Cache pass + backend-key planning: resolves each id against the cache
  /// and builds the body keys for the misses.
  FetchPlan PrepareFetch(const std::vector<ChunkId>& ids, TraceContext* trace);

  /// Decodes fetched bodies into plan->chunks, in order, checks each
  /// against the catalog's map, and inserts them into the cache. With
  /// `degradation` non-null, keys in `failures` leave null refs and a
  /// report entry (best-effort); otherwise any unserved chunk is an error.
  /// A failing decode or check returns before the report or the cache is
  /// touched. A chunk takes its body over: from a mutable `chunk_values` (a
  /// batch the caller owns) each body is moved into its chunk, from a const
  /// one (an async result other continuations may read) it is copied once.
  template <typename BodyMap>
  Status DecodeAndInsert(const std::vector<ChunkId>& ids, FetchPlan* plan,
                         BodyMap& chunk_values,
                         const std::vector<KeyReadFailure>& failures,
                         TraceContext* trace, QueryDegradation* degradation);

  /// Stats/metrics epilogue shared by both fetch paths (`charge` is what
  /// this fetch's backend traffic cost). Returns the number of null refs
  /// (best-effort casualties) for span annotation.
  uint64_t AccountFetch(const std::vector<ChunkId>& ids, const FetchPlan& plan,
                        const KVStats& charge, QueryStats* stats);

  /// Fetches and decodes chunk bodies by id, consulting the cache first
  /// when attached, accounting stats. With `degradation` non-null the fetch
  /// is best-effort: chunks the backend reports unavailable come back as
  /// null ChunkRefs (recorded in the report) rather than failing the call;
  /// with it null, any unserved chunk is an error (strict).
  Result<std::vector<ChunkRef>> FetchChunks(const std::vector<ChunkId>& ids,
                                            QueryStats* stats,
                                            TraceContext* trace,
                                            QueryDegradation* degradation);

  /// What both paths do before the fetch. A non-OK status is a
  /// validation error and nothing else ran; otherwise the query's span is
  /// open (when traced) and `ids` are the chunks to fetch.
  struct Plan {
    Status status = Status::OK();
    uint32_t span = TraceSpan::kNoParent;
    std::vector<ChunkId> ids;
    /// Options::read_mode asks for best-effort and the class supports it
    /// (full and range checkouts outside the DELTA layout).
    bool best_effort = false;
  };
  /// Validation, the query span, and chunk-id selection for every class
  /// and layout.
  Plan PlanQuery(const Query& query, TraceContext* trace) const;

  /// The state of one asynchronous query from plan to completion, held by
  /// the body batch's continuation.
  struct AsyncQuery {
    TraceContext* trace = nullptr;
    Query query;
    Plan plan;
    uint32_t fetch_span = TraceSpan::kNoParent;
    FetchPlan fetch;
    AsyncQueryResult result;
    Promise<AsyncQueryResult> promise;
  };
  using AsyncQueryPtr = std::shared_ptr<AsyncQuery>;

  /// Decode/account epilogue of an async query's fetch, run when the body
  /// batch completes (at once, with an empty batch, when the cache served
  /// every chunk). A failed batch fails the query.
  void FinishFetchAsync(const AsyncQueryPtr& state,
                        const AsyncMultiGetResult& bodies);
  /// Completes an async query: closes the fetch span, extracts the records
  /// when `fetched` is OK (a failed fetch fails the query and charges
  /// nothing further, like the sync early return), closes the query span
  /// and sets the promise.
  void CompleteAsync(const AsyncQueryPtr& state, const Status& fetched);
  /// The epilogue: the query's records from its fetched chunks. A point
  /// query yields at most one record.
  Result<std::vector<Record>> FinishQuery(
      const Query& query, const std::vector<ChunkRef>& chunks) const;

  /// The catalog's map of a fetched chunk.
  const ChunkMap& MapOf(const Chunk& chunk) const;
  /// Extracts the records of `version` from fetched chunks via chunk maps,
  /// optionally restricted to [key_lo, key_hi]. Null chunk refs (best-effort
  /// fetch casualties) are skipped.
  Result<std::vector<Record>> ExtractVersionRecords(
      const std::vector<ChunkRef>& chunks, VersionId version, bool use_range,
      const std::string& key_lo, const std::string& key_hi) const;

  /// Every delta object on root->version, deduplicated (DELTA layout).
  std::vector<ChunkId> DeltaChainIds(VersionId version) const;
  /// Chunk ids whose records intersect [key_lo, key_hi] for `version`
  /// (index-ANDing for kChunked, per-key chunks for kSubChunkPerKey).
  std::vector<ChunkId> RangeChunkIds(VersionId version,
                                     const std::string& key_lo,
                                     const std::string& key_hi) const;
  /// Replays a fetched delta chain and materializes `version`'s records
  /// (optionally range-restricted) — the DELTA retrieval epilogue.
  Result<std::vector<Record>> ReplayDeltaChain(
      const std::vector<ChunkRef>& chunks, VersionId version, bool use_range,
      const std::string& key_lo, const std::string& key_hi) const;
  /// Record-evolution epilogue: all records with `key` across versions,
  /// sorted by origin version (replays everything under DELTA).
  Result<std::vector<Record>> HistoryFromChunks(
      const std::vector<ChunkRef>& chunks, const std::string& key) const;
  /// Point-query epilogue outside DELTA: scans fetched chunks for `key` in
  /// `version`, yielding its record or nothing.
  Result<std::vector<Record>> RecordFromChunks(
      const std::vector<ChunkRef>& chunks, const std::string& key,
      VersionId version) const;

  KVStore* kvs_;
  const StoreCatalog* catalog_;
  const VersionedDataset* dataset_;
  const Options* options_;
  ChunkCache* cache_;
};

}  // namespace rstore

#endif  // RSTORE_CORE_QUERY_PROCESSOR_H_

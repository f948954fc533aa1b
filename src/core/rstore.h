#ifndef RSTORE_CORE_RSTORE_H_
#define RSTORE_CORE_RSTORE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/chunk_cache.h"
#include "core/delta_store.h"
#include "core/options.h"
#include "core/placement.h"
#include "core/query_processor.h"
#include "core/record.h"
#include "core/store_catalog.h"
#include "kvstore/kv_store.h"
#include "version/dataset.h"
#include "version/tree_transform.h"

namespace rstore {

/// The RStore application server (paper Fig. 2): a versioning and branching
/// layer over a distributed key-value store.
///
/// Typical use:
///
///   Cluster backend(cluster_options);
///   auto store = RStore::Open(&backend, options);
///   // Either bulk-load an existing versioned dataset ...
///   store->BulkLoad(dataset, payloads);
///   // ... or build history commit by commit:
///   VersionId v1 = *store->Commit(v0, {.upserts = {...}, .deletes = {...}});
///   // Queries:
///   auto all = store->GetVersion(v1);                  // full checkout
///   auto some = store->GetRange(v1, "k10", "k19");     // partial checkout
///   auto history = store->GetHistory("k10");           // record evolution
///   auto one = store->GetRecord("k10", v1);            // point lookup
///
/// Commits accumulate in the delta store and are partitioned in batches
/// (Options::online_batch_size, paper §4); Flush() forces the pending batch
/// through. All methods are single-threaded; wrap externally if sharing.
/// A large write (a BulkLoad or Repartition, at least twice
/// kCarveGrainRecords records) carves sub-chunks on up to
/// Options::ingest_shards worker threads; a drain-sized batch carves on the
/// calling thread. Either way the public interface stays single-threaded,
/// chunks are assembled in partition order, and the stored bytes are
/// identical at every thread count — see DESIGN.md "Parallel ingest". Every
/// drain sends two write batches, which the backend may serve
/// node-parallel: the chunk bodies, then the chunk maps. The catalog
/// changes only once both have landed: a failed drain leaves the batch
/// staged for the next one.
class RStore {
 public:
  // The processor, the membership cursor and in-flight async queries hold
  // addresses of the store and its members.
  RStore(const RStore&) = delete;
  RStore& operator=(const RStore&) = delete;

  /// Creates the layer on `backend` (borrowed; must outlive the store) and
  /// creates the chunk/index tables.
  static Result<std::unique_ptr<RStore>> Open(KVStore* backend,
                                              const Options& options);

  /// Recovers an application server from a backend previously populated by
  /// another RStore instance that called Flush(): reloads the version graph
  /// and deltas from the graph key, then scans the chunk table and publishes
  /// one catalog update deriving every chunk's map and both projections
  /// from the chunks' record lists and the deltas. A chunk holding a record
  /// of a version the graph does not know (written by a drain after the last
  /// Flush) is left out. The paper's AS "uses the KVS for persisting any of
  /// its data structures" — this is the restart path.
  static Result<std::unique_ptr<RStore>> Reopen(KVStore* backend,
                                                const Options& options);

  /// Loads a complete versioned dataset at once, running the configured
  /// offline partitioning algorithm over the whole version graph. `dataset`
  /// may contain merges (it is tree-transformed internally, paper §2.5);
  /// `payloads` must hold a payload for every added composite key. Callable
  /// once, on an empty store.
  Status BulkLoad(const VersionedDataset& dataset,
                  const RecordPayloadMap& payloads);

  /// Commits a new version derived from `parent`. The commit is staged in
  /// the delta store and physically partitioned when the batch fills
  /// (§4). Returns the new version id immediately. When the commit triggers
  /// a batch drain and `trace` is set, the drain's "write.*" spans land in
  /// it; every drain is also logged to the flight recorder regardless.
  Result<VersionId> Commit(VersionId parent, CommitDelta delta,
                           TraceContext* trace = nullptr);

  /// Commits a FULL snapshot: the server diffs `snapshot` (key -> payload,
  /// the complete desired contents of the new version) against the parent
  /// and commits only the changes — the paper's fallback for clients that
  /// cannot produce a delta themselves: "the server needs to retrieve the
  /// prior version and perform a diff operation to check which records have
  /// been modified" (§2.4). Unchanged records cost nothing.
  Result<VersionId> CommitSnapshot(
      VersionId parent, const std::map<std::string, std::string>& snapshot,
      TraceContext* trace = nullptr);

  /// Forces the pending batch through the online partitioner, then writes
  /// the version graph and deltas to the graph key — the one index-state
  /// key Reopen needs besides the chunks.
  Status Flush(TraceContext* trace = nullptr);

  /// Full offline repartitioning of the entire store: every chunk is read
  /// back from the backend and replayed in id order (so DELTA records find
  /// their bases), the configured algorithm is re-run over the complete
  /// version tree, and the new layout is written under fresh chunk ids into
  /// a fresh catalog. Only then are the old chunks and maps deleted: if a
  /// write of the new layout fails, the store keeps serving the old one
  /// (the failure is returned and a retry starts over); if a delete fails,
  /// the new layout serves and the leftovers are collected by the next
  /// Repartition. Restores offline-quality layout after a long sequence of
  /// online batches — "online partitioning without repartitioning, combined
  /// with a full repartitioning periodically, presents a pragmatic approach
  /// to handling updates" (paper §4).
  Status Repartition(TraceContext* trace = nullptr);

  /// Offline integrity check (fsck): every chunk body and chunk map in the
  /// backend decodes and equals what the in-memory catalog holds, no version
  /// selects one record twice, and the per-version record sets
  /// reconstructed from the chunk maps exactly equal the membership derived
  /// from the deltas. Reads the bodies in one MultiGet and the maps in
  /// another (a failed read returns its error). O(total membership);
  /// returns kCorruption naming the first inconsistency, such as a chunk or
  /// map the backend does not hold.
  Status VerifyIntegrity(TraceContext* trace = nullptr);

  // -- Queries (see QueryProcessor::Run). Staged-but-unflushed versions
  //    are flushed on demand before being queried. Pass a TraceContext to
  //    capture the query's span tree (exportable as Chrome trace JSON).
  //    Under Options::read_mode == ReadMode::kBestEffort, GetVersion and
  //    GetRange skip chunks the backend cannot serve and report them via
  //    `degradation` (and QueryStats::missing_chunks) instead of failing.
  //    GetRecord returns kNotFound when the version has no such key.
  Result<std::vector<Record>> GetVersion(VersionId version,
                                         QueryStats* stats = nullptr,
                                         TraceContext* trace = nullptr,
                                         QueryDegradation* degradation =
                                             nullptr);
  Result<std::vector<Record>> GetRange(VersionId version,
                                       const std::string& key_lo,
                                       const std::string& key_hi,
                                       QueryStats* stats = nullptr,
                                       TraceContext* trace = nullptr,
                                       QueryDegradation* degradation =
                                           nullptr);
  Result<std::vector<Record>> GetHistory(const std::string& key,
                                         QueryStats* stats = nullptr,
                                         TraceContext* trace = nullptr);
  Result<Record> GetRecord(const std::string& key, VersionId version,
                           QueryStats* stats = nullptr,
                           TraceContext* trace = nullptr);

  // -- Asynchronous query twins (see QueryProcessor::RunAsync). Each
  //    flushes any staged batch synchronously, then submits the query onto
  //    `executor`'s virtual timeline; the future completes at the query's
  //    simulated completion instant with results byte-identical to the sync
  //    method and the query's own cost accounting in the payload. Queries
  //    on one Executor share its virtual timeline's node queues (see
  //    Cluster), and writes must not run while queries are in flight (drain
  //    the executor first). The store must outlive the futures.
  Future<AsyncQueryResult> GetVersionAsync(Executor* executor,
                                           VersionId version,
                                           TraceContext* trace = nullptr);
  Future<AsyncQueryResult> GetRangeAsync(Executor* executor, VersionId version,
                                         const std::string& key_lo,
                                         const std::string& key_hi,
                                         TraceContext* trace = nullptr);
  Future<AsyncQueryResult> GetHistoryAsync(Executor* executor,
                                           const std::string& key,
                                           TraceContext* trace = nullptr);
  Future<AsyncRecordResult> GetRecordAsync(Executor* executor,
                                           const std::string& key,
                                           VersionId version,
                                           TraceContext* trace = nullptr);

  /// Membership difference between two arbitrary versions — the general
  /// form of the paper's ∆ (symmetric: Diff(a,b) is the inverse of
  /// Diff(b,a)). `added` holds records in `to` but not `from`, `removed` the
  /// reverse. Computed from the in-memory deltas; no backend traffic.
  Result<VersionDelta> Diff(VersionId from, VersionId to) const;

  /// Nearest common ancestor of two versions along primary-parent paths
  /// (the git merge-base); useful for three-way merge tooling.
  Result<VersionId> MergeBase(VersionId a, VersionId b) const;

  /// The original (possibly merged) version graph, for provenance.
  const VersionGraph& graph() const { return original_graph_; }
  /// The tree-transformed dataset whose composite keys match storage.
  const VersionedDataset& dataset() const { return tree_; }
  uint32_t num_versions() const { return tree_.graph.size(); }

  const StoreCatalog& catalog() const { return catalog_; }
  LayoutKind layout() const { return catalog_.layout(); }
  const Options& options() const { return options_; }

  /// The store's decoded-chunk cache (Options::cache_capacity_bytes), or
  /// nullptr when caching is disabled.
  ChunkCache* chunk_cache() const { return cache_.get(); }

  /// Σ_v |chunks(v)| under the live projections — the paper's total version
  /// span metric, adjusted for the baseline layouts' retrieval rules.
  uint64_t TotalVersionSpan() const;
  /// Number of chunks written so far (the §2.5 storage-cost proxy).
  uint64_t NumChunks() const { return catalog_.num_chunks(); }
  /// uncompressed-record-bytes / stored-chunk-bytes across all chunks.
  double CompressionRatio() const;

 private:
  RStore(KVStore* backend, const Options& options);

  /// Runs sub-chunking + partitioning over `placement_view`, assembles the
  /// chunks in partition order with maps built from `record_versions`, and
  /// writes two batches: every chunk body, then every map — the new chunks',
  /// then the `extended_maps` of older chunks in ascending id. Only then
  /// does it publish all of it into `catalog` as one update; after a failed
  /// write `catalog` is untouched (chunk ids drawn are never reused). Shared
  /// by BulkLoad and Repartition (whole graph, no extended maps) and
  /// ProcessBatch (batch subgraph). When `trace` is non-null, the sub-chunk
  /// build, partition, encode+write and map-write phases each get a
  /// "write.*" span.
  Status PartitionAndWrite(const VersionedDataset& placement_view,
                           const RecordPayloadMap& payloads,
                           const RecordVersionMap& record_versions,
                           std::map<ChunkId, ChunkMap> extended_maps,
                           StoreCatalog* catalog, TraceContext* trace);

  /// Drains the delta store: extends copies of the maps of every older chunk
  /// holding a staged version's records, deriving each version's rows from
  /// its parent's and its delta, partitions the batch's new records, writes
  /// the new chunks and rewrites each extended map once (§4), then
  /// publishes. Traced when `trace` is non-null (queries forward their
  /// context here because a query against a staged version flushes the
  /// batch first).
  Status ProcessBatch(TraceContext* trace = nullptr);
  /// ProcessBatch's body; the wrapper owns the "write.process_batch" span,
  /// stats bracketing, sim-clock reconciliation and flight-recorder entry.
  Status ProcessBatchImpl(TraceContext* trace);

  /// Every sync query: the flush prologue, the store's processor running
  /// `query`, and the flight-recorder epilogue.
  Result<std::vector<Record>> RunQuery(const char* name,
                                       const QueryProcessor::Query& query,
                                       QueryStats* stats, TraceContext* trace,
                                       QueryDegradation* degradation);
  /// Every async query: the flush prologue, then the query submitted on the
  /// store's processor, whose completion feeds the flight recorder.
  Future<AsyncQueryResult> RunQueryAsync(const char* name, Executor* executor,
                                         QueryProcessor::Query query,
                                         TraceContext* trace);

  KVStore* backend_;
  Options options_;
  bool loaded_ = false;

  VersionGraph original_graph_;  // with merge edges
  VersionedDataset tree_;        // transformed, matches storage keys
  /// Walks tree_'s memberships for Commit, which reads the parent's
  /// records from it, one delta per step.
  MembershipCursor cursor_{&tree_};

  StoreCatalog catalog_;
  DeltaStore delta_store_;
  std::unique_ptr<ChunkCache> cache_;  // null when caching is disabled
  /// Serves every query, reading the catalog, dataset and options above.
  QueryProcessor processor_;
  ChunkId next_chunk_id_ = 0;
};

}  // namespace rstore

#endif  // RSTORE_CORE_RSTORE_H_

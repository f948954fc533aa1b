#include "core/rstore.h"

#include <algorithm>
#include <unordered_set>

#include "common/coding.h"
#include "common/flight_recorder.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/partitioner.h"
#include "core/sub_chunk_builder.h"

namespace rstore {

namespace {

/// Write-path registry handles, resolved once per process.
struct WriteMetrics {
  Counter* commits_total;
  Counter* batches_total;
  Counter* chunks_written_total;
  Counter* chunk_bytes_total;
  Counter* map_rewrites_total;
  /// Staged-but-unpartitioned versions across every live store: +1 per
  /// staged commit, decremented by the batch size when a batch drains, so
  /// the exported value is the process-wide backlog.
  Gauge* pending_versions;
  Histogram* batch_versions;

  static const WriteMetrics& Get() {
    static const WriteMetrics metrics = [] {
      MetricsRegistry& registry = MetricsRegistry::Default();
      WriteMetrics m;
      m.commits_total = registry.GetCounter("rstore_write_commits_total");
      m.batches_total = registry.GetCounter("rstore_write_batches_total");
      m.chunks_written_total =
          registry.GetCounter("rstore_write_chunks_written_total");
      m.chunk_bytes_total =
          registry.GetCounter("rstore_write_chunk_bytes_total");
      m.map_rewrites_total =
          registry.GetCounter("rstore_write_map_rewrites_total");
      m.pending_versions = registry.GetGauge("rstore_write_pending_versions");
      m.batch_versions = registry.GetHistogram(
          "rstore_write_batch_versions",
          Histogram::ExponentialBoundaries(1, 2.0, 10));
      return m;
    }();
    return metrics;
  }
};

/// Flight-recorder + exemplar epilogue shared by every query wrapper: claims
/// a query id, observes the per-query latency histogram with an attribution
/// exemplar, and logs the full flight record with the query's `status`.
/// `backend` is the backend stats delta bracketing the query; the fault
/// counters read from it are exact on the synchronous path (one query at a
/// time) and best-effort under async overlap, where concurrent queries
/// share the backend's tallies. The attribution itself rides in `qs` and is
/// exact on both paths.
void RecordQueryFlight(const char* name, const Status& status,
                       const QueryStats& qs, const KVStats& backend,
                       const QueryDegradation* degradation,
                       const TraceContext* trace) {
  static Histogram* latency = MetricsRegistry::Default().GetHistogram(
      "rstore_query_latency_micros",
      Histogram::ExponentialBoundaries(16, 4.0, 10));
  HistogramExemplar exemplar;
  exemplar.id = FlightRecorder::Default().NextQueryId();
  exemplar.queue_wait_us = qs.queue_wait_us;
  exemplar.service_us = qs.service_us;
  exemplar.retry_penalty_us = qs.retry_penalty_us;
  exemplar.hedge_delta_us = qs.hedge_delta_us;
  latency->ObserveWithExemplar(qs.simulated_micros, exemplar);

  FlightRecord record;
  record.id = exemplar.id;
  record.name = name;
  if (!status.ok()) record.status = status.ToString();
  record.total_us = qs.simulated_micros;
  record.queue_wait_us = qs.queue_wait_us;
  record.service_us = qs.service_us;
  record.retry_penalty_us = qs.retry_penalty_us;
  record.hedge_delta_us = qs.hedge_delta_us;
  record.retries = backend.retries;
  record.hedges = backend.hedges;
  record.hedge_wins = backend.hedge_wins;
  record.timeouts = backend.timeouts;
  record.missing_chunks = qs.missing_chunks;
  if (degradation != nullptr) record.degradation = degradation->messages;
  if (trace != nullptr) {
    record.spans.reserve(trace->spans().size());
    for (const TraceSpan& span : trace->spans()) {
      record.spans.push_back(
          FlightSpan{span.name, span.depth, span.sim_start_us,
                     span.sim_end_us});
    }
  }
  FlightRecorder::Default().Record(std::move(record));
}

/// Flight-recorder epilogue for a batch drain: every ProcessBatch, failed or
/// not, logs a "process_batch" record carrying its `status`, whose counters
/// are the backend stats delta bracketing the drain and whose span subtree
/// is the drain's own spans (depths re-based so "write.process_batch" sits
/// at depth 0). Exact: the write path is single-caller per store, so
/// nothing else moves the backend's tallies inside the bracket.
void RecordIngestFlight(const TraceContext& trace, size_t first_span,
                        const KVStats& backend, const Status& status) {
  FlightRecord record;
  record.id = FlightRecorder::Default().NextQueryId();
  record.name = "process_batch";
  if (!status.ok()) record.status = status.ToString();
  record.total_us = backend.simulated_micros;
  record.queue_wait_us = backend.queue_wait_us;
  record.service_us = backend.service_us;
  record.retry_penalty_us = backend.retry_penalty_us;
  record.hedge_delta_us = backend.hedge_delta_us;
  record.retries = backend.retries;
  record.hedges = backend.hedges;
  record.hedge_wins = backend.hedge_wins;
  record.timeouts = backend.timeouts;
  const std::vector<TraceSpan>& spans = trace.spans();
  const uint32_t base_depth =
      first_span < spans.size() ? spans[first_span].depth : 0;
  record.spans.reserve(spans.size() - first_span);
  for (size_t i = first_span; i < spans.size(); ++i) {
    const TraceSpan& span = spans[i];
    record.spans.push_back(FlightSpan{span.name, span.depth - base_depth,
                                      span.sim_start_us, span.sim_end_us});
  }
  FlightRecorder::Default().Record(std::move(record));
}

/// A point query's answer: its one record, or kNotFound. GetRecord and
/// GetRecordAsync both convert through here.
Result<Record> PointAnswer(Result<std::vector<Record>> found,
                           const std::string& key, VersionId version) {
  if (!found.ok()) return found.status();
  if (found->empty()) {
    return Status::NotFound("no record " + key + " in version " +
                            std::to_string(version));
  }
  return std::move(found->front());
}

}  // namespace

using Query = QueryProcessor::Query;

RStore::RStore(KVStore* backend, const Options& options)
    : backend_(backend),
      options_(options),
      cache_(options.cache_capacity_bytes > 0
                 ? std::make_unique<ChunkCache>(options.cache_capacity_bytes)
                 : nullptr),
      processor_(backend, &catalog_, &tree_, &options_, cache_.get()) {}

Result<std::unique_ptr<RStore>> RStore::Open(KVStore* backend,
                                             const Options& options) {
  if (backend == nullptr) {
    return Status::InvalidArgument("backend must not be null");
  }
  if (options.chunk_capacity_bytes == 0) {
    return Status::InvalidArgument("chunk capacity must be positive");
  }
  RSTORE_RETURN_IF_ERROR(backend->CreateTable(options.chunk_table));
  RSTORE_RETURN_IF_ERROR(backend->CreateTable(options.index_table));
  return std::unique_ptr<RStore>(new RStore(backend, options));
}

Status RStore::PartitionAndWrite(const VersionedDataset& placement_view,
                                 const RecordPayloadMap& payloads,
                                 const RecordVersionMap& record_versions,
                                 std::map<ChunkId, ChunkMap> extended_maps,
                                 StoreCatalog* catalog, TraceContext* trace) {
  ScopedSpan build_span(trace, "write.build_subchunks");
  auto built =
      BuildSubChunks(placement_view, payloads, record_versions, options_);
  if (!built.ok()) return built.status();
  SubChunkBuildResult& result = built.value();
  build_span.Annotate("items", std::to_string(result.items.size()));
  build_span.End();

  ScopedSpan partition_span(trace, "write.partition");
  std::unique_ptr<Partitioner> partitioner =
      CreatePartitioner(options_.algorithm);
  if (partitioner == nullptr) {
    return Status::InvalidArgument("unknown partitioning algorithm");
  }
  PartitionInput input;
  input.dataset = &placement_view;
  input.items = &result.items;
  input.options = &options_;
  auto partitioned = partitioner->Partition(input);
  if (!partitioned.ok()) return partitioned.status();
  partition_span.Annotate("chunks",
                          std::to_string(partitioned->chunks.size()));
  partition_span.End();

  // Chunks are assembled in partition order, and their bodies go out as
  // one batch, which the cluster serves node-parallel.
  ScopedSpan write_span(trace, "write.encode_and_put");
  StoreCatalog::Update update;
  update.layout = partitioned->layout;
  update.chunks.reserve(partitioned->chunks.size());
  std::vector<std::pair<std::string, std::string>> bodies;
  std::vector<std::pair<std::string, std::string>> maps;
  bodies.reserve(partitioned->chunks.size());
  maps.reserve(partitioned->chunks.size() + extended_maps.size());
  for (const std::vector<uint32_t>& item_indices : partitioned->chunks) {
    Chunk chunk(next_chunk_id_++);
    for (uint32_t item : item_indices) {
      chunk.AddSubChunk(std::move(result.sub_chunks[item]));
    }
    ChunkMap map = StoreCatalog::BuildMap(chunk.records(), record_versions);
    std::string body;
    chunk.EncodeTo(&body);
    std::string encoded_map;
    map.EncodeTo(&encoded_map);
    update.chunk_bytes += body.size();
    update.record_bytes += chunk.uncompressed_bytes();
    bodies.emplace_back(ChunkKey(chunk.id()), std::move(body));
    maps.emplace_back(ChunkMapKey(chunk.id()), std::move(encoded_map));
    update.chunks.push_back({chunk.id(), chunk.records(), std::move(map)});
  }
  RSTORE_RETURN_IF_ERROR(backend_->WriteBatch(options_.chunk_table, bodies));
  const WriteMetrics& metrics = WriteMetrics::Get();
  metrics.chunks_written_total->Increment(bodies.size());
  metrics.chunk_bytes_total->Increment(update.chunk_bytes);
  write_span.End();

  // Every map goes out as the second batch: the new chunks' maps, then
  // each extended map of an older chunk, with no chunk fetch (§4). Publish
  // bumps the extended maps' generations, which makes cached copies of
  // those chunks unreachable.
  ScopedSpan rewrite_span(trace, "write.map_rewrite");
  rewrite_span.Annotate("maps", std::to_string(extended_maps.size()));
  for (const auto& [id, map] : extended_maps) {
    std::string encoded;
    map.EncodeTo(&encoded);
    maps.emplace_back(ChunkMapKey(id), std::move(encoded));
  }
  RSTORE_RETURN_IF_ERROR(backend_->WriteBatch(options_.index_table, maps));
  rewrite_span.End();
  update.extended_maps = std::move(extended_maps);
  catalog->Publish(std::move(update));
  return Status::OK();
}

Status RStore::BulkLoad(const VersionedDataset& dataset,
                        const RecordPayloadMap& payloads) {
  if (loaded_ || !tree_.graph.empty()) {
    return Status::InvalidArgument("store already loaded");
  }
  RSTORE_RETURN_IF_ERROR(dataset.Validate());
  original_graph_ = dataset.graph;
  TreeTransformResult transform = ConvertToTree(dataset);
  tree_ = std::move(transform.tree);
  cursor_.Reset();

  // Renamed merge-arrivals are stored as fresh records carrying the original
  // payload (paper §2.5: "renamed to make them appear as newly inserted
  // records").
  const RecordPayloadMap* effective = &payloads;
  RecordPayloadMap augmented;
  if (!transform.renames.empty()) {
    augmented = payloads;
    for (const auto& [renamed, original] : transform.renames) {
      auto it = payloads.find(original);
      if (it == payloads.end()) {
        return Status::InvalidArgument("missing payload for merge record " +
                                       original.ToString());
      }
      augmented.emplace(renamed, it->second);
    }
    effective = &augmented;
  }

  RSTORE_RETURN_IF_ERROR(PartitionAndWrite(
      tree_, *effective, tree_.BuildRecordVersionMap(), {}, &catalog_,
      nullptr));
  loaded_ = true;
  return Status::OK();
}

Result<VersionId> RStore::Commit(VersionId parent, CommitDelta delta,
                                 TraceContext* trace) {
  // Resolve the membership delta against the parent version, whose records
  // the cursor holds by key (empty before the first commit).
  if (tree_.graph.empty()) {
    if (parent != kInvalidVersion) {
      return Status::InvalidArgument(
          "first commit must use parent == kInvalidVersion");
    }
  } else {
    if (parent >= tree_.graph.size()) {
      return Status::InvalidArgument("unknown parent version");
    }
    cursor_.MoveTo(parent);
  }

  VersionId version = tree_.graph.empty()
                          ? 0
                          : static_cast<VersionId>(tree_.graph.size());
  VersionDelta membership_delta;
  std::vector<Record> payload_records;
  std::unordered_set<std::string> touched;
  for (Record& record : delta.upserts) {
    if (!touched.insert(record.key.key).second) {
      return Status::InvalidArgument("key " + record.key.key +
                                     " appears twice in commit");
    }
    CompositeKey ck(record.key.key, version);
    membership_delta.added.push_back(ck);
    if (const CompositeKey* prior = cursor_.Find(record.key.key)) {
      membership_delta.removed.push_back(*prior);
    }
    payload_records.push_back(Record{ck, std::move(record.payload)});
  }
  for (const std::string& key : delta.deletes) {
    if (!touched.insert(key).second) {
      return Status::InvalidArgument("key " + key +
                                     " appears twice in commit");
    }
    const CompositeKey* prior = cursor_.Find(key);
    if (prior == nullptr) {
      return Status::InvalidArgument("cannot delete absent key " + key);
    }
    membership_delta.removed.push_back(*prior);
  }

  // Record the version in the graphs and stage the commit.
  if (tree_.graph.empty()) {
    original_graph_.AddRoot();
    tree_.graph.AddRoot();
  } else {
    auto r1 = original_graph_.AddVersion({parent});
    if (!r1.ok()) return r1.status();
    auto r2 = tree_.graph.AddVersion({parent});
    if (!r2.ok()) return r2.status();
  }
  tree_.deltas.push_back(membership_delta);
  loaded_ = true;

  PendingCommit pending;
  pending.version = version;
  pending.delta = std::move(membership_delta);
  delta_store_.Stage(std::move(pending), std::move(payload_records));
  const WriteMetrics& metrics = WriteMetrics::Get();
  metrics.commits_total->Increment();
  metrics.pending_versions->Add(1);

  if (delta_store_.pending_versions() >= options_.online_batch_size) {
    RSTORE_RETURN_IF_ERROR(ProcessBatch(trace));
  }
  return version;
}

Result<VersionId> RStore::CommitSnapshot(
    VersionId parent, const std::map<std::string, std::string>& snapshot,
    TraceContext* trace) {
  CommitDelta delta;
  if (tree_.graph.empty()) {
    // No parent to diff against: everything is an insert.
    for (const auto& [key, payload] : snapshot) {
      delta.upserts.push_back(Record{CompositeKey(key, 0), payload});
    }
    return Commit(parent, std::move(delta), trace);
  }
  if (parent >= tree_.graph.size()) {
    return Status::InvalidArgument("unknown parent version");
  }
  // Retrieve the prior version and diff record contents.
  auto prior = GetVersion(parent, nullptr, trace);
  if (!prior.ok()) return prior.status();
  std::unordered_map<std::string, const Record*> prior_by_key;
  prior_by_key.reserve(prior->size());
  for (const Record& r : *prior) prior_by_key.emplace(r.key.key, &r);
  for (const auto& [key, payload] : snapshot) {
    auto it = prior_by_key.find(key);
    if (it == prior_by_key.end() || it->second->payload != payload) {
      delta.upserts.push_back(Record{CompositeKey(key, 0), payload});
    }
  }
  for (const Record& r : *prior) {
    if (!snapshot.count(r.key.key)) delta.deletes.push_back(r.key.key);
  }
  return Commit(parent, std::move(delta), trace);
}

Status RStore::ProcessBatch(TraceContext* trace) {
  if (delta_store_.empty()) return Status::OK();
  // Every drain gets a span tree: callers without a context (Commit-driven
  // drains, maintenance entry points) use a local one, so the flight
  // recorder can attribute every batch regardless of who triggered it.
  TraceContext local_trace;
  if (trace == nullptr) trace = &local_trace;
  const size_t first_span = trace->spans().size();
  const KVStats before = backend_->stats();
  const uint64_t batch_versions = delta_store_.pending_versions();
  ScopedSpan batch_span(trace, "write.process_batch");
  batch_span.Annotate("versions", std::to_string(batch_versions));
  Status status = ProcessBatchImpl(trace);
  // Reconcile the span tree with the backend charge before the root span
  // closes: the drain's simulated cost advances the trace clock here, so
  // the "write.process_batch" sim duration equals the backend stats delta
  // exactly (asserted in observability_test).
  const KVStats charge = KVStats::Delta(backend_->stats(), before);
  trace->AdvanceSim(charge.simulated_micros);
  batch_span.End();
  RecordIngestFlight(*trace, first_span, charge, status);
  return status;
}

Status RStore::ProcessBatchImpl(TraceContext* trace) {
  const uint64_t batch_versions = delta_store_.pending_versions();

  // Phase 1 (§4): a read-only walk over the staged versions in id order,
  // each derived from its primary parent, so it costs the parent's span
  // plus the version's delta. The version's rows in older chunks are the
  // parent's rows with its ∆⁻ records cleared, appended to copies of those
  // chunks' maps; its new records are the parent's (when the parent is
  // staged too) minus its ∆⁻, plus its ∆⁺. The parent's rows come from the
  // published map, or from the row this walk appended for a staged parent.
  ScopedSpan index_span(trace, "write.index_update");
  const std::vector<PendingCommit>& pending = delta_store_.pending();
  const VersionId first_staged = pending.front().version;
  // Per staged version: the older chunks it has a row in, ascending, and
  // its new records as their version lists in new_record_versions.
  struct StagedRows {
    std::vector<ChunkId> chunks;
    std::vector<std::vector<VersionId>*> records;
  };
  std::vector<StagedRows> staged(pending.size());
  size_t batch_records = 0;
  for (const PendingCommit& commit : pending) {
    batch_records += commit.delta.added.size();
  }
  RecordVersionMap new_record_versions;
  new_record_versions.reserve(batch_records);
  std::map<ChunkId, ChunkMap> extended_maps;
  std::vector<std::pair<ChunkId, uint32_t>> cleared;  // (chunk, index)
  std::vector<uint32_t> cleared_in_chunk;
  for (size_t i = 0; i < pending.size(); ++i) {
    const VersionId v = pending[i].version;
    RSTORE_DCHECK(v == first_staged + i);
    const VersionDelta& delta = pending[i].delta;
    const VersionId parent = tree_.graph.PrimaryParent(v);
    const bool parent_staged =
        parent != kInvalidVersion && parent >= first_staged;
    StagedRows& rows = staged[i];

    // Every removed record is published or new in this batch: records of
    // staged versions are never in a published chunk. A new one is marked
    // by appending v to its version list, which no other record's list
    // ends in yet.
    cleared.clear();
    size_t marked = 0;
    for (const CompositeKey& ck : delta.removed) {
      if (ck.version >= first_staged) {
        auto it = new_record_versions.find(ck);
        RSTORE_CHECK(it != new_record_versions.end());
        it->second.push_back(v);
        ++marked;
      } else {
        const StoreCatalog::RecordSlot* slot = catalog_.FindRecord(ck);
        RSTORE_CHECK(slot != nullptr);
        cleared.emplace_back(slot->chunk, slot->index);
      }
    }
    std::sort(cleared.begin(), cleared.end());

    std::vector<ChunkId> published_chunks;
    if (!parent_staged && parent != kInvalidVersion) {
      published_chunks = catalog_.ChunksOfVersion(parent);
    }
    const std::vector<ChunkId>& parent_chunks =
        parent_staged ? staged[parent - first_staged].chunks
                      : published_chunks;
    size_t next = 0;
    for (ChunkId chunk : parent_chunks) {
      cleared_in_chunk.clear();
      for (; next < cleared.size() && cleared[next].first == chunk; ++next) {
        cleared_in_chunk.push_back(cleared[next].second);
      }
      // A chunk's map is copied for the batch only once a row lands in it.
      bool added;
      auto it = extended_maps.find(chunk);
      if (it != extended_maps.end()) {
        added = it->second.AppendDerivedRow(v, parent, cleared_in_chunk);
      } else {
        ChunkMap map = *catalog_.MapOfChunk(chunk);
        added = map.AppendDerivedRow(v, parent, cleared_in_chunk);
        if (added) extended_maps.emplace(chunk, std::move(map));
      }
      if (added) rows.chunks.push_back(chunk);
    }

    // A marked record of the parent drops its mark and stays out of v;
    // every other one gains v.
    if (parent_staged) {
      const std::vector<std::vector<VersionId>*>& inherited =
          staged[parent - first_staged].records;
      rows.records.reserve(inherited.size() + delta.added.size());
      for (std::vector<VersionId>* versions : inherited) {
        if (versions->back() == v) {
          versions->pop_back();
          --marked;
        } else {
          versions->push_back(v);
          rows.records.push_back(versions);
        }
      }
    }
    // The parent held every record its child removes.
    RSTORE_CHECK(next == cleared.size() && marked == 0);
    for (const CompositeKey& ck : delta.added) {
      std::vector<VersionId>& versions = new_record_versions[ck];
      versions.push_back(v);
      rows.records.push_back(&versions);
    }
  }
  const size_t rewrites = extended_maps.size();
  index_span.Annotate("affected_chunks", std::to_string(rewrites));
  index_span.End();

  // Phase 2: partition the batch's new records and write them, then
  // rewrite each extended map exactly once — no chunk fetches (§4). The
  // placement view shares the full tree but exposes only the staged
  // deltas, so the partitioning algorithm sees exactly the batch
  // sub-graph.
  VersionedDataset view;
  view.graph = tree_.graph;
  view.deltas.resize(tree_.graph.size());
  for (const PendingCommit& commit : delta_store_.pending()) {
    view.deltas[commit.version] = commit.delta;
  }
  RSTORE_RETURN_IF_ERROR(PartitionAndWrite(
      view, delta_store_.payloads(), new_record_versions,
      std::move(extended_maps), &catalog_, trace));
  delta_store_.Clear();
  const WriteMetrics& metrics = WriteMetrics::Get();
  metrics.batches_total->Increment();
  metrics.map_rewrites_total->Increment(rewrites);
  metrics.pending_versions->Add(-static_cast<int64_t>(batch_versions));
  metrics.batch_versions->Observe(batch_versions);
  return Status::OK();
}

Result<std::unique_ptr<RStore>> RStore::Reopen(KVStore* backend,
                                               const Options& options) {
  auto opened = Open(backend, options);
  if (!opened.ok()) return opened.status();
  std::unique_ptr<RStore> store = std::move(opened).value();

  // 1. Version graph + deltas + original (merge-bearing) graph.
  auto graph_blob = backend->Get(options.index_table, "g");
  if (!graph_blob.ok()) {
    if (graph_blob.status().IsNotFound()) {
      return Status::InvalidArgument(
          "backend holds no flushed RStore state (missing graph)");
    }
    return graph_blob.status();
  }
  Slice input(*graph_blob);
  RSTORE_RETURN_IF_ERROR(VersionGraph::DecodeFrom(&input, &store->tree_.graph));
  store->tree_.deltas.resize(store->tree_.graph.size());
  for (VersionDelta& delta : store->tree_.deltas) {
    RSTORE_RETURN_IF_ERROR(VersionDelta::DecodeFrom(&input, &delta));
  }
  RSTORE_RETURN_IF_ERROR(
      VersionGraph::DecodeFrom(&input, &store->original_graph_));
  store->loaded_ = !store->tree_.graph.empty();

  // 2. The catalog, derived from the chunk table and the deltas and
  // published as one update. A chunk holding a record of a version the
  // graph does not know was written by a drain after the last Flush; it is
  // left out, but its id is never reused. Retrieval rules follow the
  // configured algorithm.
  const RecordVersionMap record_versions =
      store->tree_.BuildRecordVersionMap();
  const VersionId num_versions = store->tree_.graph.size();
  StoreCatalog::Update update;
  if (options.algorithm == PartitionAlgorithm::kDeltaBaseline) {
    update.layout = LayoutKind::kDeltaChain;
  } else if (options.algorithm == PartitionAlgorithm::kSubChunkBaseline) {
    update.layout = LayoutKind::kSubChunkPerKey;
  }
  Status decode_status = Status::OK();
  RSTORE_RETURN_IF_ERROR(backend->Scan(
      options.chunk_table, [&](Slice, Slice value) {
        if (!decode_status.ok()) return;
        Chunk chunk;
        Status s = Chunk::DecodeFrom(value.ToString(), &chunk);
        if (!s.ok()) {
          decode_status = s;
          return;
        }
        store->next_chunk_id_ =
            std::max(store->next_chunk_id_, chunk.id() + 1);
        if (std::any_of(chunk.records().begin(), chunk.records().end(),
                        [num_versions](const CompositeKey& ck) {
                          return ck.version >= num_versions;
                        })) {
          return;
        }
        update.chunk_bytes += value.size();
        update.record_bytes += chunk.uncompressed_bytes();
        update.chunks.push_back(
            {chunk.id(), chunk.records(),
             StoreCatalog::BuildMap(chunk.records(), record_versions)});
      }));
  RSTORE_RETURN_IF_ERROR(decode_status);
  store->catalog_.Publish(std::move(update));
  return store;
}

Status RStore::Repartition(TraceContext* trace) {
  RSTORE_RETURN_IF_ERROR(ProcessBatch(trace));
  if (tree_.graph.empty()) return Status::OK();

  // Read every record payload back from the backend (the authoritative
  // copy; the application server keeps no payloads in memory). DELTA
  // records are encoded against bases in other chunks, so the chunks are
  // replayed in id order, as a chain-replay query does. A chunk the catalog
  // does not hold (left behind by a failed Repartition, or drained after
  // the last Flush before a Reopen) is not read, only deleted with the old
  // layout.
  std::vector<std::shared_ptr<const Chunk>> chunks;
  std::vector<std::pair<std::string, std::string>> old_entries;  // table,key
  Status decode_status = Status::OK();
  Status s = backend_->Scan(
      options_.chunk_table, [&](Slice key, Slice value) {
        if (!decode_status.ok()) return;
        auto chunk = std::make_shared<Chunk>();
        decode_status = Chunk::DecodeFrom(value.ToString(), chunk.get());
        if (!decode_status.ok()) return;
        // The map goes first: a body left without its map is still found
        // by the next Repartition's scan.
        old_entries.emplace_back(options_.index_table,
                                 ChunkMapKey(chunk->id()));
        old_entries.emplace_back(options_.chunk_table, key.ToString());
        if (catalog_.RecordsOfChunk(chunk->id()) != nullptr) {
          chunks.push_back(std::move(chunk));
        }
      });
  RSTORE_RETURN_IF_ERROR(s);
  RSTORE_RETURN_IF_ERROR(decode_status);
  std::sort(chunks.begin(), chunks.end(),
            [](const auto& a, const auto& b) { return a->id() < b->id(); });
  auto payloads = ReplayChunks(chunks);
  if (!payloads.ok()) return payloads.status();
  chunks.clear();

  // Copy, then swap: an offline pass over the full tree writes the new
  // layout under fresh chunk ids while the old chunks stay intact, and
  // publishes it into a fresh catalog that replaces the live one. A failed
  // write leaves the live catalog untouched; the old entries are deleted
  // only once both batches have landed.
  StoreCatalog fresh;
  RSTORE_RETURN_IF_ERROR(PartitionAndWrite(
      tree_, *payloads, tree_.BuildRecordVersionMap(), {}, &fresh, trace));
  catalog_ = std::move(fresh);
  // The new layout serves from here on; a failed delete leaves garbage the
  // next Repartition collects.
  for (const auto& [table, key] : old_entries) {
    RSTORE_RETURN_IF_ERROR(backend_->Delete(table, key));
  }
  return Status::OK();
}

Status RStore::VerifyIntegrity(TraceContext* trace) {
  RSTORE_RETURN_IF_ERROR(ProcessBatch(trace));
  // Per-version record sets reconstructed from chunk maps.
  std::vector<std::unordered_set<CompositeKey, CompositeKeyHash>>
      from_chunks(tree_.graph.size());
  // Two batched reads: every chunk body, then every chunk map.
  const std::vector<ChunkId> ids = catalog_.AllChunks();
  std::vector<std::string> body_keys;
  std::vector<std::string> map_keys;
  body_keys.reserve(ids.size());
  map_keys.reserve(ids.size());
  for (ChunkId id : ids) {
    body_keys.push_back(ChunkKey(id));
    map_keys.push_back(ChunkMapKey(id));
  }
  std::map<std::string, std::string> bodies;
  std::map<std::string, std::string> map_blobs;
  RSTORE_RETURN_IF_ERROR(
      backend_->MultiGet(options_.chunk_table, body_keys, &bodies));
  RSTORE_RETURN_IF_ERROR(
      backend_->MultiGet(options_.index_table, map_keys, &map_blobs));
  for (size_t i = 0; i < ids.size(); ++i) {
    const ChunkId id = ids[i];
    auto body = bodies.find(body_keys[i]);
    if (body == bodies.end()) {
      return Status::Corruption("chunk " + std::to_string(id) +
                                " unreadable: missing");
    }
    Chunk chunk;
    RSTORE_RETURN_IF_ERROR(
        Chunk::DecodeFrom(std::move(body->second), &chunk));
    if (chunk.id() != id) {
      return Status::Corruption("chunk id mismatch under key " +
                                std::to_string(id));
    }
    const std::vector<CompositeKey>* records = catalog_.RecordsOfChunk(id);
    if (records == nullptr || *records != chunk.records()) {
      return Status::Corruption("catalog record list diverges for chunk " +
                                std::to_string(id));
    }
    auto map_blob = map_blobs.find(map_keys[i]);
    if (map_blob == map_blobs.end()) {
      return Status::Corruption("chunk map " + std::to_string(id) +
                                " unreadable: missing");
    }
    Slice map_input(map_blob->second);
    ChunkMap map;
    RSTORE_RETURN_IF_ERROR(ChunkMap::DecodeFrom(&map_input, &map));
    if (map != *catalog_.MapOfChunk(id)) {
      return Status::Corruption("stored map of chunk " + std::to_string(id) +
                                " diverges from the catalog");
    }
    for (VersionId v : map.Versions()) {
      // The lossy projection must cover every (version, chunk) pair.
      std::vector<ChunkId> projected = catalog_.ChunksOfVersion(v);
      if (catalog_.layout() == LayoutKind::kChunked &&
          !std::binary_search(projected.begin(), projected.end(), id)) {
        return Status::Corruption(
            "version->chunk projection misses chunk " + std::to_string(id) +
            " for version " + std::to_string(v));
      }
      for (uint32_t index : map.RecordsOf(v)) {
        const CompositeKey& ck = chunk.records()[index];
        if (!from_chunks[v].insert(ck).second) {
          return Status::Corruption("version " + std::to_string(v) +
                                    " selects record " + ck.ToString() +
                                    " twice");
        }
      }
    }
    // Payloads decode. Records delta-encoded against external bases (DELTA
    // layout) are exercised by the chain-replay queries instead; decoding
    // them here would require replaying every chain.
    for (size_t sub = 0; sub < chunk.num_sub_chunks(); ++sub) {
      SubChunkView sc = chunk.sub_chunk(sub);
      if (sc.HasExternalParents()) continue;
      auto payloads = sc.ExtractAllPayloads();
      if (!payloads.ok()) {
        return Status::Corruption("sub-chunk payloads corrupt in chunk " +
                                  std::to_string(id) + ": " +
                                  payloads.status().ToString());
      }
    }
  }
  // Cross-check against delta-derived membership.
  for (VersionId v = 0; v < tree_.graph.size(); ++v) {
    VersionMembership expected = tree_.MaterializeVersion(v);
    if (expected.size() != from_chunks[v].size()) {
      return Status::Corruption(
          "version " + std::to_string(v) + " holds " +
          std::to_string(from_chunks[v].size()) + " records in chunks but " +
          std::to_string(expected.size()) + " per deltas");
    }
    for (const CompositeKey& ck : expected) {
      if (!from_chunks[v].count(ck)) {
        return Status::Corruption("record " + ck.ToString() +
                                  " missing from chunk maps of version " +
                                  std::to_string(v));
      }
    }
  }
  return Status::OK();
}

Status RStore::Flush(TraceContext* trace) {
  RSTORE_RETURN_IF_ERROR(ProcessBatch(trace));
  // The graph key is the only index state persisted: Reopen derives the
  // catalog from it and the chunk table.
  std::string graph_blob;
  tree_.graph.EncodeTo(&graph_blob);
  for (const VersionDelta& delta : tree_.deltas) delta.EncodeTo(&graph_blob);
  original_graph_.EncodeTo(&graph_blob);
  return backend_->Put(options_.index_table, "g", graph_blob);
}

Result<std::vector<Record>> RStore::RunQuery(const char* name,
                                             const Query& query,
                                             QueryStats* stats,
                                             TraceContext* trace,
                                             QueryDegradation* degradation) {
  RSTORE_RETURN_IF_ERROR(ProcessBatch(trace));
  const KVStats before = backend_->stats();
  QueryStats local;
  Result<std::vector<Record>> records =
      processor_.Run(query, &local, trace, degradation);
  RecordQueryFlight(name, records.status(), local,
                    KVStats::Delta(backend_->stats(), before), degradation,
                    trace);
  if (stats != nullptr) *stats += local;
  return records;
}

Future<AsyncQueryResult> RStore::RunQueryAsync(const char* name,
                                               Executor* executor, Query query,
                                               TraceContext* trace) {
  // The flush prologue runs synchronously, like the sync queries: writes
  // and async reads never overlap (documented contract).
  Status flushed = ProcessBatch(trace);
  if (!flushed.ok()) {
    AsyncQueryResult result;
    result.status = std::move(flushed);
    return MakeReadyFuture(std::move(result));
  }
  const KVStats before = backend_->stats();
  Future<AsyncQueryResult> future =
      processor_.RunAsync(executor, std::move(query), trace);
  // `trace` outlives the future (documented contract); `this` outlives
  // every query it serves.
  future.OnReady([this, name, before, trace](const AsyncQueryResult& result) {
    RecordQueryFlight(name, result.status, result.stats,
                      KVStats::Delta(backend_->stats(), before),
                      &result.degradation, trace);
  });
  return future;
}

Result<std::vector<Record>> RStore::GetVersion(VersionId version,
                                               QueryStats* stats,
                                               TraceContext* trace,
                                               QueryDegradation* degradation) {
  return RunQuery("get_version", Query{Query::Kind::kVersion, version}, stats,
                  trace, degradation);
}

Result<std::vector<Record>> RStore::GetRange(VersionId version,
                                             const std::string& key_lo,
                                             const std::string& key_hi,
                                             QueryStats* stats,
                                             TraceContext* trace,
                                             QueryDegradation* degradation) {
  return RunQuery("get_range",
                  Query{Query::Kind::kRange, version, key_lo, key_hi}, stats,
                  trace, degradation);
}

Result<std::vector<Record>> RStore::GetHistory(const std::string& key,
                                               QueryStats* stats,
                                               TraceContext* trace) {
  return RunQuery("get_history",
                  Query{Query::Kind::kHistory, kInvalidVersion, key}, stats,
                  trace, nullptr);
}

Result<Record> RStore::GetRecord(const std::string& key, VersionId version,
                                 QueryStats* stats, TraceContext* trace) {
  return PointAnswer(
      RunQuery("get_record", Query{Query::Kind::kRecord, version, key, key},
               stats, trace, nullptr),
      key, version);
}

Future<AsyncQueryResult> RStore::GetVersionAsync(Executor* executor,
                                                 VersionId version,
                                                 TraceContext* trace) {
  return RunQueryAsync("get_version_async", executor,
                       Query{Query::Kind::kVersion, version}, trace);
}

Future<AsyncQueryResult> RStore::GetRangeAsync(Executor* executor,
                                               VersionId version,
                                               const std::string& key_lo,
                                               const std::string& key_hi,
                                               TraceContext* trace) {
  return RunQueryAsync("get_range_async", executor,
                       Query{Query::Kind::kRange, version, key_lo, key_hi},
                       trace);
}

Future<AsyncQueryResult> RStore::GetHistoryAsync(Executor* executor,
                                                 const std::string& key,
                                                 TraceContext* trace) {
  return RunQueryAsync("get_history_async", executor,
                       Query{Query::Kind::kHistory, kInvalidVersion, key},
                       trace);
}

Future<AsyncRecordResult> RStore::GetRecordAsync(Executor* executor,
                                                 const std::string& key,
                                                 VersionId version,
                                                 TraceContext* trace) {
  return RunQueryAsync("get_record_async", executor,
                       Query{Query::Kind::kRecord, version, key, key}, trace)
      .Then([key, version](const AsyncQueryResult& found) {
        AsyncRecordResult result;
        result.stats = found.stats;
        Result<Record> record = PointAnswer(
            found.status.ok() ? Result<std::vector<Record>>(found.records)
                              : Result<std::vector<Record>>(found.status),
            key, version);
        if (record.ok()) {
          result.record = std::move(record).value();
        } else {
          result.status = record.status();
        }
        return result;
      });
}

Result<VersionDelta> RStore::Diff(VersionId from, VersionId to) const {
  if (from >= tree_.graph.size() || to >= tree_.graph.size()) {
    return Status::InvalidArgument("unknown version in diff");
  }
  // `to`'s cursor starts as a copy of `from`'s, so MoveTo walks only the
  // path between the two versions (or replays, when that is cheaper).
  MembershipCursor from_members(&tree_);
  from_members.MoveTo(from);
  MembershipCursor to_members = from_members;
  to_members.MoveTo(to);
  // A version holds one record per primary key, so a record is in the
  // other version exactly when the other's record for its key is it.
  auto missing_from = [](const MembershipCursor& members,
                         const MembershipCursor& other,
                         std::vector<CompositeKey>* out) {
    members.ForEach([&](const CompositeKey& ck) {
      const CompositeKey* same_key = other.Find(ck.key);
      if (same_key == nullptr || *same_key != ck) out->push_back(ck);
    });
    std::sort(out->begin(), out->end());
  };
  VersionDelta out;
  missing_from(to_members, from_members, &out.added);
  missing_from(from_members, to_members, &out.removed);
  return out;
}

Result<VersionId> RStore::MergeBase(VersionId a, VersionId b) const {
  if (a >= tree_.graph.size() || b >= tree_.graph.size()) {
    return Status::InvalidArgument("unknown version");
  }
  // Walk the deeper version up until both paths meet (ids are topological,
  // so the shallower of the two can never be below the other).
  while (a != b) {
    if (a > b) {
      a = tree_.graph.PrimaryParent(a);
    } else {
      b = tree_.graph.PrimaryParent(b);
    }
    if (a == kInvalidVersion || b == kInvalidVersion) {
      return Status::Corruption("disconnected version graph");
    }
  }
  return a;
}

uint64_t RStore::TotalVersionSpan() const {
  switch (catalog_.layout()) {
    case LayoutKind::kChunked:
      return catalog_.TotalVersionSpan();
    case LayoutKind::kDeltaChain: {
      // span(v) = span(parent) + |chunks originated at v|.
      std::vector<uint64_t> span(tree_.graph.size(), 0);
      uint64_t total = 0;
      for (VersionId v = 0; v < tree_.graph.size(); ++v) {
        VersionId parent = tree_.graph.PrimaryParent(v);
        span[v] = (parent == kInvalidVersion ? 0 : span[parent]) +
                  catalog_.ChunksOriginatedAt(v).size();
        total += span[v];
      }
      return total;
    }
    case LayoutKind::kSubChunkPerKey:
      return static_cast<uint64_t>(tree_.graph.size()) *
             catalog_.num_chunks();
  }
  return 0;
}

double RStore::CompressionRatio() const {
  if (catalog_.stored_chunk_bytes() == 0) return 1.0;
  return static_cast<double>(catalog_.stored_record_bytes()) /
         static_cast<double>(catalog_.stored_chunk_bytes());
}

}  // namespace rstore

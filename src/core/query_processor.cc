#include "core/query_processor.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace rstore {

namespace {

/// Read-path registry handles, resolved once per process.
struct QueryMetrics {
  Counter* queries_total;
  /// The counter mirroring each QueryStats field that kQueryStatsFields
  /// names one for.
  std::vector<std::pair<uint64_t QueryStats::*, Counter*>> mirrors;
  Histogram* span_chunks;

  static const QueryMetrics& Get() {
    static const QueryMetrics metrics = [] {
      MetricsRegistry& registry = MetricsRegistry::Default();
      QueryMetrics m;
      m.queries_total = registry.GetCounter("rstore_query_queries_total");
      for (const QueryStats::Field& field : kQueryStatsFields) {
        if (field.counter == nullptr) continue;
        m.mirrors.emplace_back(field.member,
                               registry.GetCounter(field.counter));
      }
      // Chunks per query — the paper's span metric (§2.5).
      m.span_chunks = registry.GetHistogram(
          "rstore_query_span_chunks", Histogram::ExponentialBoundaries(1, 4.0, 8));
      return m;
    }();
    return metrics;
  }
};

bool KeyInRange(const std::string& key, const std::string& lo,
                const std::string& hi) {
  return key >= lo && key <= hi;
}

/// A fetched body for Chunk::DecodeFrom, which takes it over: moved out of
/// a batch the caller owns, copied out of one it only reads.
std::string TakeBody(std::string& body) { return std::move(body); }
std::string TakeBody(const std::string& body) { return body; }

/// A body fetched as chunk `id` must decode as that chunk and hold exactly
/// the records its catalog map indexes: extraction indexes records() by the
/// map's rows without checking them again.
Status CheckBody(ChunkId id, const Chunk& body, const StoreCatalog& catalog) {
  if (body.id() != id) {
    return Status::Corruption("body stored as chunk " + std::to_string(id) +
                              " is chunk " + std::to_string(body.id()));
  }
  const ChunkMap* map = catalog.MapOfChunk(id);
  if (map == nullptr || map->record_count() != body.record_count()) {
    return Status::Corruption("chunk " + std::to_string(id) +
                              " does not hold the records its map indexes");
  }
  return Status::OK();
}

}  // namespace

QueryProcessor::QueryProcessor(KVStore* kvs, const StoreCatalog* catalog,
                               const VersionedDataset* dataset,
                               const Options* options, ChunkCache* cache)
    : kvs_(kvs),
      catalog_(catalog),
      dataset_(dataset),
      options_(options),
      cache_(cache) {}

QueryProcessor::FetchPlan QueryProcessor::PrepareFetch(
    const std::vector<ChunkId>& ids, TraceContext* trace) {
  FetchPlan plan;
  plan.chunks.resize(ids.size());
  if (cache_ != nullptr) {
    ScopedSpan lookup_span(trace, "cache.lookup");
    for (size_t i = 0; i < ids.size(); ++i) {
      plan.chunks[i] = cache_->Lookup(ids[i]);
      if (plan.chunks[i] == nullptr) plan.miss.push_back(i);
    }
    lookup_span.Annotate("hits",
                         std::to_string(ids.size() - plan.miss.size()));
    lookup_span.Annotate("misses", std::to_string(plan.miss.size()));
  } else {
    plan.miss.resize(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) plan.miss[i] = i;
  }
  plan.chunk_keys.reserve(plan.miss.size());
  for (size_t i : plan.miss) plan.chunk_keys.push_back(ChunkKey(ids[i]));
  return plan;
}

template <typename BodyMap>
Status QueryProcessor::DecodeAndInsert(
    const std::vector<ChunkId>& ids, FetchPlan* plan, BodyMap& chunk_values,
    const std::vector<KeyReadFailure>& failures, TraceContext* trace,
    QueryDegradation* degradation) {
  const std::vector<size_t>& miss = plan->miss;
  // Index failed keys by name so decode can tell "the backend could not
  // serve it" (degrade) apart from "it does not exist" (corruption).
  std::map<std::string, const Status*> unavailable;
  for (const KeyReadFailure& f : failures) unavailable[f.key] = &f.status;

  ScopedSpan decode_span(trace, "query.decode");
  decode_span.Annotate("chunks", std::to_string(miss.size()));
  // Casualties join the caller's report only once every chunk decoded, so a
  // failing decode leaves the report, like the cache, untouched.
  QueryDegradation casualties;
  // The paper's evaluated prototype processes chunks sequentially (§5.5).
  for (size_t m = 0; m < miss.size(); ++m) {
    const ChunkId id = ids[miss[m]];
    auto it = chunk_values.find(plan->chunk_keys[m]);
    if (it == chunk_values.end()) {
      auto fit = unavailable.find(plan->chunk_keys[m]);
      if (fit == unavailable.end()) {
        return Status::Corruption("chunk " + std::to_string(id) +
                                  " missing from backend");
      }
      // The chunk ref stays null.
      casualties.missing_chunks.push_back(id);
      casualties.messages.push_back(fit->second->ToString());
      continue;
    }
    auto decoded = std::make_shared<Chunk>();
    // Each body is taken once: the ids of one fetch are distinct.
    RSTORE_RETURN_IF_ERROR(
        Chunk::DecodeFrom(TakeBody(it->second), decoded.get()));
    RSTORE_RETURN_IF_ERROR(CheckBody(id, *decoded, *catalog_));
    plan->chunks[miss[m]] = std::move(decoded);
  }
  if (degradation != nullptr) {
    for (size_t c = 0; c < casualties.missing_chunks.size(); ++c) {
      degradation->missing_chunks.push_back(casualties.missing_chunks[c]);
      degradation->messages.push_back(std::move(casualties.messages[c]));
    }
  }
  if (cache_ != nullptr) {
    for (size_t i : miss) {
      if (plan->chunks[i] == nullptr) continue;  // best-effort casualty
      cache_->Insert(ids[i], plan->chunks[i],
                     plan->chunks[i]->ApproximateMemoryBytes());
    }
  }
  return Status::OK();
}

uint64_t QueryProcessor::AccountFetch(const std::vector<ChunkId>& ids,
                                      const FetchPlan& plan,
                                      const KVStats& charge,
                                      QueryStats* stats) {
  // chunks_fetched stays the query's span (paper §2.5) regardless of the
  // cache; bytes/latency only count traffic that reached the backend.
  QueryStats fetch;
  static_cast<LatencyAttribution&>(fetch) = charge;
  fetch.chunks_fetched = ids.size();
  fetch.bytes_fetched = charge.bytes_read;
  if (cache_ != nullptr) {
    fetch.cache_hits = ids.size() - plan.miss.size();
    fetch.cache_misses = plan.miss.size();
  }
  for (const ChunkRef& chunk : plan.chunks) {
    if (chunk == nullptr) ++fetch.missing_chunks;
  }
  if (stats != nullptr) *stats += fetch;
  const QueryMetrics& metrics = QueryMetrics::Get();
  for (const auto& [member, counter] : metrics.mirrors) {
    if (fetch.*member > 0) counter->Increment(fetch.*member);
  }
  metrics.span_chunks->Observe(ids.size());
  return fetch.missing_chunks;
}

Result<std::vector<QueryProcessor::ChunkRef>> QueryProcessor::FetchChunks(
    const std::vector<ChunkId>& ids, QueryStats* stats, TraceContext* trace,
    QueryDegradation* degradation) {
  ScopedSpan fetch_span(trace, "query.fetch_chunks");
  fetch_span.Annotate("chunks", std::to_string(ids.size()));
  FetchPlan plan = PrepareFetch(ids, trace);

  KVStats charge;  // a fetch the cache serves whole costs the backend nothing
  if (!plan.miss.empty()) {
    const KVStats before = kvs_->stats();
    std::map<std::string, std::string> chunk_values;
    std::vector<KeyReadFailure> failures;
    if (degradation != nullptr) {
      // Best-effort: keys on unavailable replicas land in the failure list
      // instead of failing the batch.
      RSTORE_RETURN_IF_ERROR(
          kvs_->MultiGetPartial(options_->chunk_table, plan.chunk_keys,
                                &chunk_values, &failures, trace));
    } else {
      RSTORE_RETURN_IF_ERROR(kvs_->MultiGet(
          options_->chunk_table, plan.chunk_keys, &chunk_values, trace));
    }
    charge = KVStats::Delta(kvs_->stats(), before);
    RSTORE_RETURN_IF_ERROR(DecodeAndInsert(ids, &plan, chunk_values, failures,
                                           trace, degradation));
  }
  uint64_t n_missing = AccountFetch(ids, plan, charge, stats);
  if (n_missing > 0) {
    fetch_span.Annotate("missing", std::to_string(n_missing));
  }
  return std::move(plan.chunks);
}

QueryProcessor::Plan QueryProcessor::PlanQuery(const Query& query,
                                               TraceContext* trace) const {
  using Kind = Query::Kind;
  Plan plan;
  if (query.kind != Kind::kEvolution &&
      query.version >= dataset_->graph.size()) {
    plan.status = Status::InvalidArgument("unknown version");
    return plan;
  }
  if (query.kind == Kind::kRange && query.key_lo > query.key_hi) {
    plan.status = Status::InvalidArgument("empty key range");
    return plan;
  }
  if (trace != nullptr) {
    static constexpr const char* kSpanNames[] = {
        "query.get_version", "query.get_range", "query.get_history",
        "query.get_record"};
    plan.span = trace->StartSpan(kSpanNames[static_cast<int>(query.kind)]);
    if (query.kind == Kind::kEvolution || query.kind == Kind::kPoint) {
      trace->Annotate(plan.span, "key", query.key);
    }
    if (query.kind != Kind::kEvolution) {
      trace->Annotate(plan.span, "version", std::to_string(query.version));
    }
  }
  QueryMetrics::Get().queries_total->Increment();

  const LayoutKind layout = catalog_->layout();
  const bool delta = layout == LayoutKind::kDeltaChain;
  switch (query.kind) {
    case Kind::kFullVersion:
      if (delta) {
        plan.ids = DeltaChainIds(query.version);
      } else if (layout == LayoutKind::kChunked) {
        plan.ids = catalog_->ChunksOfVersion(query.version);
      } else {
        // No version->chunk index: every chunk must be retrieved (§2.2).
        plan.ids = catalog_->AllChunks();
      }
      break;
    case Kind::kRange:
      plan.ids = delta ? DeltaChainIds(query.version)
                       : RangeChunkIds(query.version, query.key_lo,
                                       query.key_hi);
      break;
    case Kind::kEvolution:
      // "For DELTA, we need to reconstruct all the versions and then filter
      // out the required records which renders execution of Q3 impractical"
      // (§5.4): every chunk must come back.
      plan.ids = delta ? catalog_->AllChunks()
                       : catalog_->ChunksOfKey(query.key);
      break;
    case Kind::kPoint:
      if (delta) {
        plan.ids = DeltaChainIds(query.version);
      } else if (layout == LayoutKind::kSubChunkPerKey) {
        plan.ids = catalog_->ChunksOfKey(query.key);
      } else {
        // Index-ANDing of the two projections (paper §2.4).
        std::vector<ChunkId> by_version =
            catalog_->ChunksOfVersion(query.version);
        std::vector<ChunkId> by_key = catalog_->ChunksOfKey(query.key);
        std::set_intersection(by_version.begin(), by_version.end(),
                              by_key.begin(), by_key.end(),
                              std::back_inserter(plan.ids));
      }
      break;
  }
  // A delta chain with a hole cannot be replayed, so DELTA is always strict
  // (DESIGN.md "Fault tolerance"); so are history and point queries.
  plan.best_effort =
      options_->read_mode == ReadMode::kBestEffort && !delta &&
      (query.kind == Kind::kFullVersion || query.kind == Kind::kRange);
  return plan;
}

Result<std::vector<Record>> QueryProcessor::FinishQuery(
    const Query& query, const std::vector<ChunkRef>& chunks) const {
  using Kind = Query::Kind;
  if (query.kind == Kind::kEvolution) {
    return HistoryFromChunks(chunks, query.key);
  }
  if (catalog_->layout() == LayoutKind::kDeltaChain) {
    // A point query replays as the range [key, key].
    const bool point = query.kind == Kind::kPoint;
    return ReplayDeltaChain(chunks, query.version,
                            query.kind != Kind::kFullVersion,
                            point ? query.key : query.key_lo,
                            point ? query.key : query.key_hi);
  }
  if (query.kind == Kind::kPoint) {
    return RecordFromChunks(chunks, query.key, query.version);
  }
  return ExtractVersionRecords(chunks, query.version,
                               query.kind == Kind::kRange, query.key_lo,
                               query.key_hi);
}

Result<std::vector<Record>> QueryProcessor::Run(const Query& query,
                                                QueryStats* stats,
                                                TraceContext* trace,
                                                QueryDegradation* degradation) {
  Plan plan = PlanQuery(query, trace);
  if (!plan.status.ok()) return plan.status;
  // The caller's report object is optional: the missing_chunks stat still
  // counts best-effort casualties.
  QueryDegradation local_degradation;
  if (degradation == nullptr) degradation = &local_degradation;
  auto chunks = FetchChunks(plan.ids, stats, trace,
                            plan.best_effort ? degradation : nullptr);
  Result<std::vector<Record>> records =
      chunks.ok() ? FinishQuery(query, *chunks)
                  : Result<std::vector<Record>>(chunks.status());
  if (trace != nullptr) trace->EndSpan(plan.span);
  return records;
}

Future<AsyncQueryResult> QueryProcessor::RunAsync(Executor* executor,
                                                  Query query,
                                                  TraceContext* trace) {
  Plan plan = PlanQuery(query, trace);
  if (!plan.status.ok()) {
    AsyncQueryResult result;
    result.status = std::move(plan.status);
    return MakeReadyFuture(std::move(result));
  }
  auto state = std::make_shared<AsyncQuery>();
  state->trace = trace;
  state->query = std::move(query);
  state->plan = std::move(plan);
  if (trace != nullptr) {
    state->fetch_span = trace->StartSpan("query.fetch_chunks");
    trace->Annotate(state->fetch_span, "chunks",
                    std::to_string(state->plan.ids.size()));
  }
  state->fetch = PrepareFetch(state->plan.ids, trace);
  if (state->fetch.miss.empty()) {
    // Fully served from cache: nothing reaches the backend, the query
    // completes at the current virtual instant with zero charge (exactly
    // the sync path's zero stats delta).
    FinishFetchAsync(state, AsyncMultiGetResult{});
    return state->promise.future();
  }
  kvs_->MultiGetAsync(executor, options_->chunk_table, state->fetch.chunk_keys,
                      state->plan.best_effort, trace)
      .OnReady([this, state](const AsyncMultiGetResult& bodies) {
        FinishFetchAsync(state, bodies);
      });
  return state->promise.future();
}

void QueryProcessor::FinishFetchAsync(const AsyncQueryPtr& state,
                                      const AsyncMultiGetResult& bodies) {
  if (!bodies.status.ok()) {
    CompleteAsync(state, bodies.status);
    return;
  }
  if (!state->fetch.miss.empty()) {
    Status s = DecodeAndInsert(
        state->plan.ids, &state->fetch, bodies.values, bodies.failures,
        state->trace,
        state->plan.best_effort ? &state->result.degradation : nullptr);
    if (!s.ok()) {
      CompleteAsync(state, s);
      return;
    }
  }
  uint64_t n_missing = AccountFetch(state->plan.ids, state->fetch,
                                    bodies.charge, &state->result.stats);
  if (state->trace != nullptr && n_missing > 0) {
    state->trace->Annotate(state->fetch_span, "missing",
                           std::to_string(n_missing));
  }
  CompleteAsync(state, Status::OK());
}

void QueryProcessor::CompleteAsync(const AsyncQueryPtr& state,
                                   const Status& fetched) {
  TraceContext* trace = state->trace;
  if (trace != nullptr) trace->EndSpan(state->fetch_span);
  AsyncQueryResult& result = state->result;
  Result<std::vector<Record>> records =
      fetched.ok() ? FinishQuery(state->query, state->fetch.chunks)
                   : Result<std::vector<Record>>(fetched);
  if (records.ok()) {
    result.records = std::move(records).value();
  } else {
    result.status = records.status();
  }
  if (trace != nullptr) trace->EndSpan(state->plan.span);
  state->promise.Set(std::move(result));
}

const ChunkMap& QueryProcessor::MapOf(const Chunk& chunk) const {
  // Every fetched chunk is one the catalog listed, so its map exists; decode
  // checked that the map covers the chunk's records.
  const ChunkMap* map = catalog_->MapOfChunk(chunk.id());
  RSTORE_DCHECK(map != nullptr && map->record_count() == chunk.record_count());
  return *map;
}

Result<std::vector<Record>> QueryProcessor::ExtractVersionRecords(
    const std::vector<ChunkRef>& chunks, VersionId version, bool use_range,
    const std::string& key_lo, const std::string& key_hi) const {
  std::vector<Record> out;
  for (const ChunkRef& chunk_ref : chunks) {
    if (chunk_ref == nullptr) continue;  // best-effort fetch casualty
    const Chunk& chunk = *chunk_ref;
    std::vector<uint32_t> indices = MapOf(chunk).RecordsOf(version);
    if (use_range) {
      std::erase_if(indices, [&](uint32_t idx) {
        return !KeyInRange(chunk.records()[idx].key, key_lo, key_hi);
      });
    }
    if (indices.empty()) continue;  // lossy-projection artifact
    auto extracted = chunk.ExtractRecords(indices);
    if (!extracted.ok()) return extracted.status();
    for (auto& [ck, payload] : extracted.value()) {
      out.push_back(Record{ck, std::move(payload)});
    }
  }
  std::sort(out.begin(), out.end(), [](const Record& a, const Record& b) {
    return a.key < b.key;
  });
  return out;
}

std::vector<ChunkId> QueryProcessor::DeltaChainIds(VersionId version) const {
  // DELTA layout: every delta object on root->version must be retrieved.
  // (Partial retrieval still reconstructs the full version first, then
  // filters — the paper's worst case for this baseline.)
  std::vector<ChunkId> ids;
  for (VersionId step : dataset_->graph.PathFromRoot(version)) {
    for (ChunkId id : catalog_->ChunksOriginatedAt(step)) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

std::vector<ChunkId> QueryProcessor::RangeChunkIds(
    VersionId version, const std::string& key_lo,
    const std::string& key_hi) const {
  std::vector<ChunkId> ids;
  if (catalog_->layout() == LayoutKind::kChunked) {
    // Index-ANDing: chunks of the version INTERSECT chunks holding any key
    // in the range. The key->chunks projection is keyed by exact key, so
    // candidates come from scanning each version chunk's record list once.
    for (ChunkId id : catalog_->ChunksOfVersion(version)) {
      const std::vector<CompositeKey>* records = catalog_->RecordsOfChunk(id);
      if (records == nullptr) continue;
      for (const CompositeKey& ck : *records) {
        if (KeyInRange(ck.key, key_lo, key_hi)) {
          ids.push_back(id);
          break;
        }
      }
    }
  } else {
    // One chunk per key: fetch the chunks whose key falls in the range.
    for (ChunkId id : catalog_->AllChunks()) {
      const std::vector<CompositeKey>* records = catalog_->RecordsOfChunk(id);
      if (records != nullptr && !records->empty() &&
          KeyInRange((*records)[0].key, key_lo, key_hi)) {
        ids.push_back(id);
      }
    }
  }
  return ids;
}

Result<std::vector<Record>> QueryProcessor::ReplayDeltaChain(
    const std::vector<ChunkRef>& chunks, VersionId version, bool use_range,
    const std::string& key_lo, const std::string& key_hi) const {
  auto replayed = ReplayChunks(chunks);
  if (!replayed.ok()) return replayed.status();
  // Membership — replayed on the application server from the in-memory
  // deltas — selects the live records.
  VersionMembership members = dataset_->MaterializeVersion(version);
  std::vector<Record> out;
  for (const CompositeKey& ck : members) {
    if (use_range && !KeyInRange(ck.key, key_lo, key_hi)) continue;
    auto it = replayed->find(ck);
    if (it == replayed->end()) {
      return Status::Corruption("record " + ck.ToString() +
                                " missing from replayed chain");
    }
    out.push_back(Record{ck, it->second});
  }
  std::sort(out.begin(), out.end(), [](const Record& a, const Record& b) {
    return a.key < b.key;
  });
  return out;
}

Result<std::vector<Record>> QueryProcessor::HistoryFromChunks(
    const std::vector<ChunkRef>& chunks, const std::string& key) const {
  std::vector<Record> out;
  if (catalog_->layout() == LayoutKind::kDeltaChain) {
    // Everything was fetched; replay it all (record-level deltas may chain
    // across versions) and filter by key.
    auto replayed = ReplayChunks(chunks);
    if (!replayed.ok()) return replayed.status();
    for (auto& [ck, payload] : *replayed) {
      if (ck.key == key) out.push_back(Record{ck, std::move(payload)});
    }
  } else {
    for (const ChunkRef& chunk_ref : chunks) {
      const Chunk& chunk = *chunk_ref;
      std::vector<uint32_t> wanted;
      for (uint32_t i = 0; i < chunk.records().size(); ++i) {
        if (chunk.records()[i].key == key) wanted.push_back(i);
      }
      if (wanted.empty()) continue;
      auto extracted = chunk.ExtractRecords(wanted);
      if (!extracted.ok()) return extracted.status();
      for (auto& [ck, payload] : extracted.value()) {
        out.push_back(Record{ck, std::move(payload)});
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const Record& a, const Record& b) {
    return a.key.version < b.key.version;
  });
  return out;
}

Result<std::vector<Record>> QueryProcessor::RecordFromChunks(
    const std::vector<ChunkRef>& chunks, const std::string& key,
    VersionId version) const {
  std::vector<Record> out;
  for (const ChunkRef& chunk_ref : chunks) {
    const Chunk& chunk = *chunk_ref;
    for (uint32_t idx : MapOf(chunk).RecordsOf(version)) {
      if (chunk.records()[idx].key == key) {
        auto payload = chunk.ExtractPayload(chunk.records()[idx]);
        if (!payload.ok()) return payload.status();
        out.push_back(Record{chunk.records()[idx], std::move(payload.value())});
        return out;
      }
    }
  }
  return out;
}

}  // namespace rstore

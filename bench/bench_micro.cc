// Component microbenchmarks (google-benchmark): the building blocks whose
// costs the system-level experiments aggregate — codecs, bitmaps, min-hash,
// backend MultiGet, and the partitioning algorithms themselves.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cctype>

#include "bench_util.h"
#include "common/hash.h"
#include "common/random.h"
#include "compress/bitmap.h"
#include "compress/delta_codec.h"
#include "compress/lz_codec.h"
#include "core/chunk.h"
#include "kvstore/cluster.h"
#include "workload/dataset_catalog.h"
#include "workload/record_generator.h"

namespace rstore {
namespace {

std::string MakeJsonPayload(size_t approx_bytes) {
  workload::RecordGenerator gen(static_cast<uint32_t>(approx_bytes), 42);
  return gen.Generate("bench-key");
}

void BM_LzCompressJson(benchmark::State& state) {
  std::string input = MakeJsonPayload(static_cast<size_t>(state.range(0)));
  std::string out;
  for (auto _ : state) {
    lz::Compress(Slice(input), &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          input.size());
}
BENCHMARK(BM_LzCompressJson)->Arg(256)->Arg(4096)->Arg(65536);

void BM_LzDecompressJson(benchmark::State& state) {
  std::string input = MakeJsonPayload(static_cast<size_t>(state.range(0)));
  std::string compressed, out;
  lz::Compress(Slice(input), &compressed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lz::Decompress(Slice(compressed), &out).ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          input.size());
}
BENCHMARK(BM_LzDecompressJson)->Arg(4096)->Arg(65536);

void BM_DeltaEncode(benchmark::State& state) {
  workload::RecordGenerator gen(static_cast<uint32_t>(state.range(0)), 7);
  std::string base = gen.Generate("k");
  std::string target = gen.Mutate(base, 0.05);
  std::string delta;
  for (auto _ : state) {
    delta_codec::Encode(Slice(base), Slice(target), &delta);
    benchmark::DoNotOptimize(delta.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          base.size());
}
BENCHMARK(BM_DeltaEncode)->Arg(1024)->Arg(16384);

void BM_DeltaApply(benchmark::State& state) {
  workload::RecordGenerator gen(static_cast<uint32_t>(state.range(0)), 7);
  std::string base = gen.Generate("k");
  std::string target = gen.Mutate(base, 0.05);
  std::string delta, out;
  delta_codec::Encode(Slice(base), Slice(target), &delta);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        delta_codec::Apply(Slice(base), Slice(delta), &out).ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          base.size());
}
BENCHMARK(BM_DeltaApply)->Arg(1024)->Arg(16384);

void BM_BitmapSerialize(benchmark::State& state) {
  Random rng(3);
  Bitmap bitmap(static_cast<size_t>(state.range(0)));
  for (int i = 0; i < state.range(0) / 10; ++i) {
    bitmap.Set(rng.Uniform(static_cast<uint64_t>(state.range(0))));
  }
  std::string out;
  for (auto _ : state) {
    out.clear();
    bitmap.SerializeTo(&out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_BitmapSerialize)->Arg(10000)->Arg(1000000);

/// A chunk body at the end-to-end benchmark's shape: 200 versions of 1000
/// records of 500 B, 10 % updates per version, k = 4 LZ sub-chunks,
/// BOTTOM-UP chunks of a tenth of a version. The chunk is the one of median
/// body size (about 35 KB and 70 sub-chunks).
struct StoredChunkFixture {
  std::string body;
  size_t sub_chunks = 0;
};

StoredChunkFixture MakeChunkFixture() {
  workload::DatasetConfig config;
  config.num_versions = 200;
  config.records_per_version = 1000;
  config.record_size_bytes = 500;
  config.update_fraction = 0.10;
  config.branch_probability = 0.2;
  config.pd = 0.05;
  workload::GeneratedDataset gen = workload::GenerateDataset(config);
  Options options;
  options.algorithm = PartitionAlgorithm::kBottomUp;
  options.max_sub_chunk_records = 4;
  options.compression = CompressionType::kLZ;
  options.chunk_capacity_bytes = bench::ScaledChunkCapacity(gen);
  RecordVersionMap versions = gen.dataset.BuildRecordVersionMap();
  auto built = BuildSubChunks(gen.dataset, gen.payloads, versions, options);
  PartitionInput input;
  input.dataset = &gen.dataset;
  input.items = &built->items;
  input.options = &options;
  auto partitioned = CreatePartitioner(options.algorithm)->Partition(input);
  std::vector<StoredChunkFixture> chunks;
  for (const std::vector<uint32_t>& items : partitioned->chunks) {
    Chunk chunk(chunks.size() + 1);
    for (uint32_t item : items) {
      chunk.AddSubChunk(std::move(built->sub_chunks[item]));
    }
    StoredChunkFixture& encoded = chunks.emplace_back();
    chunk.EncodeTo(&encoded.body);
    encoded.sub_chunks = items.size();
  }
  std::sort(chunks.begin(), chunks.end(), [](const auto& a, const auto& b) {
    return a.body.size() < b.body.size();
  });
  return chunks[chunks.size() / 2];
}

/// Client-side decode of one fetched chunk, as the cache-off read path
/// does it: the body is copied out of the fetched batch and decoded, and
/// the chunk destroyed. Queries read the chunk's map from the catalog, so
/// no map is decoded.
void BM_ChunkDecode(benchmark::State& state) {
  static const StoredChunkFixture fixture = MakeChunkFixture();
  for (auto _ : state) {
    Chunk chunk;
    bool ok = Chunk::DecodeFrom(fixture.body, &chunk).ok();
    benchmark::DoNotOptimize(ok);
  }
  state.counters["body_bytes"] = static_cast<double>(fixture.body.size());
  state.counters["sub_chunks"] = static_cast<double>(fixture.sub_chunks);
}
BENCHMARK(BM_ChunkDecode);

void BM_MinHashVersionSet(benchmark::State& state) {
  HashFamily family(4, 99);
  std::vector<VersionId> versions(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < versions.size(); ++i) {
    versions[i] = static_cast<VersionId>(i * 3);
  }
  for (auto _ : state) {
    uint64_t acc = 0;
    for (uint32_t f = 0; f < 4; ++f) {
      uint64_t best = UINT64_MAX;
      for (VersionId v : versions) {
        best = std::min(best, family.Apply(f, v + 1));
      }
      acc ^= best;
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_MinHashVersionSet)->Arg(16)->Arg(256);

void BM_ClusterMultiGet(benchmark::State& state) {
  ClusterOptions options;
  options.num_nodes = 8;
  options.latency = ZeroLatencyModel();  // measure real CPU cost
  Cluster cluster(options);
  (void)cluster.CreateTable("t");
  std::vector<std::string> keys;
  for (int i = 0; i < 4096; ++i) {
    std::string key = "key" + std::to_string(i);
    keys.push_back(key);
    (void)cluster.Put("t", key, std::string(256, 'v'));
  }
  std::vector<std::string> batch(keys.begin(),
                                 keys.begin() + state.range(0));
  for (auto _ : state) {
    std::map<std::string, std::string> out;
    benchmark::DoNotOptimize(cluster.MultiGet("t", batch, &out).ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ClusterMultiGet)->Arg(16)->Arg(512)->Arg(4096);

void BM_Partitioner(benchmark::State& state) {
  auto config = *workload::CatalogConfig("C1");
  config.num_versions = 300;
  static workload::GeneratedDataset gen = workload::GenerateDataset(config);
  Options options;
  options.chunk_capacity_bytes = bench::ScaledChunkCapacity(gen);
  options.max_sub_chunk_records = 1;
  options.compression = CompressionType::kNone;
  RecordVersionMap rv = gen.dataset.BuildRecordVersionMap();
  auto built = BuildSubChunks(gen.dataset, gen.payloads, rv, options);
  if (!built.ok()) {
    state.SkipWithError("sub-chunking failed");
    return;
  }
  auto algorithm = static_cast<PartitionAlgorithm>(state.range(0));
  auto partitioner = CreatePartitioner(algorithm);
  PartitionInput input;
  input.dataset = &gen.dataset;
  input.items = &built->items;
  input.options = &options;
  for (auto _ : state) {
    auto p = partitioner->Partition(input);
    benchmark::DoNotOptimize(p.ok());
  }
  state.SetLabel(PartitionAlgorithmName(algorithm));
}
BENCHMARK(BM_Partitioner)
    ->Arg(static_cast<int>(PartitionAlgorithm::kBottomUp))
    ->Arg(static_cast<int>(PartitionAlgorithm::kShingle))
    ->Arg(static_cast<int>(PartitionAlgorithm::kDepthFirst))
    ->Arg(static_cast<int>(PartitionAlgorithm::kBreadthFirst));

}  // namespace
}  // namespace rstore

namespace {

/// Console output plus the repo-standard flat BENCH_micro.json: one
/// "<name>_real_ns" entry per benchmark run, with the run name sanitized to
/// an identifier ("BM_LzCompressJson/256" -> "BM_LzCompressJson_256").
class FlatJsonReporter : public benchmark::ConsoleReporter {
 public:
  explicit FlatJsonReporter(rstore::bench::BenchReport* report)
      : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      std::string name = run.benchmark_name();
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      report_->Add(name + "_real_ns", run.GetAdjustedRealTime());
    }
  }

 private:
  rstore::bench::BenchReport* report_;
};

}  // namespace

int main(int argc, char** argv) {
  // Smoke mode: cut per-benchmark measuring time so CI can validate the
  // binary and its JSON output in seconds.
  std::vector<char*> args(argv, argv + argc);
  char min_time_flag[] = "--benchmark_min_time=0.01";
  if (rstore::bench::SmokeMode()) args.push_back(min_time_flag);
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  rstore::bench::BenchReport report("micro");
  FlatJsonReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  report.Write();
  return 0;
}

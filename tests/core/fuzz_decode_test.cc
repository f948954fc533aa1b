// Decode robustness: every wire-format decoder must reject arbitrary bytes
// with a clean Status — no crashes, no hangs, no silent partial success that
// violates invariants. Exercised with (a) pure random buffers and (b)
// mutated valid encodings, which reach much deeper into the decoders.

#include <gtest/gtest.h>

#include "common/random.h"
#include "compress/bitmap.h"
#include "compress/delta_codec.h"
#include "compress/lz_codec.h"
#include "core/chunk.h"
#include "core/chunk_map.h"
#include "core/sub_chunk.h"
#include "json/json_parser.h"
#include "version/delta.h"
#include "version/version_graph.h"

namespace rstore {
namespace {

std::string RandomBytes(Random* rng, size_t max_len) {
  std::string out;
  size_t len = rng->Uniform(max_len + 1);
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>(rng->Uniform(256)));
  }
  return out;
}

std::string Mutate(Random* rng, std::string input) {
  if (input.empty()) return input;
  int edits = 1 + static_cast<int>(rng->Uniform(4));
  for (int e = 0; e < edits; ++e) {
    switch (rng->Uniform(3)) {
      case 0:  // flip a byte
        input[rng->Uniform(input.size())] =
            static_cast<char>(rng->Uniform(256));
        break;
      case 1:  // truncate
        input.resize(rng->Uniform(input.size() + 1));
        break;
      default:  // append garbage
        input.push_back(static_cast<char>(rng->Uniform(256)));
    }
    if (input.empty()) break;
  }
  return input;
}

/// A valid encoded chunk (with two sub-chunks) to mutate.
std::string ValidChunkEncoding() {
  Chunk chunk(9);
  auto sc1 = SubChunk::Build(
      {{CompositeKey("A", 0), 0, "payload one for sub-chunk A", {}, {}}},
      CompressionType::kLZ);
  auto sc2 = SubChunk::Build({{CompositeKey("B", 0), 0, "payload B zero", {}, {}},
                              {CompositeKey("B", 3), 0, "payload B three", {}, {}}},
                             CompressionType::kLZ);
  chunk.AddSubChunk(*std::move(sc1));
  chunk.AddSubChunk(*std::move(sc2));
  std::string out;
  chunk.EncodeTo(&out);
  return out;
}

/// Extracts every record of a decoded chunk, all at once and one by one.
/// Each call must return a Status; none may crash.
void ExtractEverything(const Chunk& chunk) {
  std::vector<uint32_t> all(chunk.record_count());
  for (uint32_t i = 0; i < all.size(); ++i) all[i] = i;
  (void)chunk.ExtractRecords(all);
  for (const CompositeKey& ck : chunk.records()) {
    (void)chunk.ExtractPayload(ck);
  }
}

class FuzzDecodeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzDecodeTest, DecodersNeverCrashOnGarbage) {
  Random rng(GetParam() * 7919 + 1);
  const std::string valid_chunk = ValidChunkEncoding();
  std::string valid_map;
  {
    ChunkMap map(8);
    map.Add(0, 1);
    map.Add(2, 7);
    map.EncodeTo(&valid_map);
  }
  std::string valid_graph;
  {
    VersionGraph g;
    g.AddRoot();
    (void)*g.AddVersion({0});
    (void)*g.AddVersion({0, 1});
    g.EncodeTo(&valid_graph);
  }
  std::string valid_bitmap;
  {
    Bitmap b(200);
    b.Set(3);
    b.Set(150);
    b.SerializeTo(&valid_bitmap);
  }
  std::string valid_lz;
  lz::Compress(Slice("compressible compressible compressible"), &valid_lz);
  std::string valid_delta;
  delta_codec::Encode(Slice("the base payload content"),
                      Slice("the modified payload content"), &valid_delta);

  for (int trial = 0; trial < 200; ++trial) {
    // Alternate pure-random and mutated-valid inputs.
    bool mutated = trial % 2 == 1;
    auto make_input = [&](const std::string& valid) {
      return mutated ? Mutate(&rng, valid) : RandomBytes(&rng, 300);
    };
    // Each input is bound to a named string: Slice is non-owning, so the
    // backing bytes must outlive every DecodeFrom call that reads them.
    {
      Chunk out;
      if (Chunk::DecodeFrom(make_input(valid_chunk), &out).ok()) {
        // Blobs are read in place by offset: extraction must stay in
        // bounds and answer with a Status, whatever the tables say.
        ExtractEverything(out);
      }
    }
    {
      std::string input = make_input(valid_map);
      Slice in(input);
      ChunkMap out;
      (void)ChunkMap::DecodeFrom(&in, &out);
    }
    {
      std::string input = make_input(valid_graph);
      Slice in(input);
      VersionGraph out;
      (void)VersionGraph::DecodeFrom(&in, &out);
    }
    {
      std::string input = make_input(valid_bitmap);
      Slice in(input);
      Bitmap out;
      (void)Bitmap::DeserializeFrom(&in, &out);
    }
    {
      std::string out;
      (void)lz::Decompress(Slice(make_input(valid_lz)), &out);
    }
    {
      std::string out;
      (void)delta_codec::Apply(Slice("the base payload content"),
                               Slice(make_input(valid_delta)), &out);
    }
    {
      std::string input = make_input("{\"a\":[1,2,{\"b\":null}]}");
      (void)json::Parse(input);
    }
    {
      std::string input = make_input("");
      Slice in(input);
      VersionDelta out;
      (void)VersionDelta::DecodeFrom(&in, &out);
    }
  }
}

TEST_P(FuzzDecodeTest, MutatedSubChunkNeverYieldsWrongPayload) {
  // Stronger property: if a mutated sub-chunk DOES decode, extraction either
  // fails cleanly or returns payloads (decoders cannot verify content
  // without checksums — but must never crash or loop).
  Random rng(GetParam() * 31337 + 5);
  auto valid = SubChunk::Build(
      {{CompositeKey("key", 0), 0, std::string(500, 'x'), {}, {}},
       {CompositeKey("key", 1), 0, std::string(500, 'y'), {}, {}}},
      CompressionType::kLZ);
  ASSERT_TRUE(valid.ok());
  std::string encoded;
  valid->EncodeTo(&encoded);
  for (int trial = 0; trial < 200; ++trial) {
    std::string input = Mutate(&rng, encoded);
    Slice in(input);
    SubChunk out;
    if (SubChunk::DecodeFrom(&in, &out).ok()) {
      (void)out.ExtractAllPayloads();
    }
  }
}

TEST_P(FuzzDecodeTest, MutatedChunkExtractsEveryRecordSafely) {
  // Deeper than DecodersNeverCrashOnGarbage: mutations of a larger chunk
  // (multi-member sub-chunks, an external parent) that still decode are
  // extracted record by record, with and without a resolver.
  Random rng(GetParam() * 104729 + 3);
  Chunk chunk(11);
  auto grouped = SubChunk::Build(
      {{CompositeKey("key", 0), 0, std::string(300, 'x'), {}, {}},
       {CompositeKey("key", 1), 0, std::string(300, 'y'), {}, {}},
       {CompositeKey("key", 2), 1, std::string(300, 'z'), {}, {}}},
      CompressionType::kLZ);
  ASSERT_TRUE(grouped.ok());
  SubChunk::Member based;
  based.key = CompositeKey("other", 4);
  based.payload = "the modified payload content";
  based.external_parent = CompositeKey("other", 1);
  based.external_parent_payload = "the base payload content";
  auto external = SubChunk::Build({std::move(based)}, CompressionType::kNone);
  ASSERT_TRUE(external.ok());
  chunk.AddSubChunk(*std::move(grouped));
  chunk.AddSubChunk(*std::move(external));
  std::string encoded;
  chunk.EncodeTo(&encoded);
  SubChunk::PayloadResolver resolver =
      [](const CompositeKey&) -> Result<std::string> {
    return std::string("the base payload content");
  };
  size_t decoded_ok = 0;
  for (int trial = 0; trial < 400; ++trial) {
    Chunk out;
    if (!Chunk::DecodeFrom(Mutate(&rng, encoded), &out).ok()) continue;
    ++decoded_ok;
    ExtractEverything(out);
    std::vector<uint32_t> all(out.record_count());
    for (uint32_t i = 0; i < all.size(); ++i) all[i] = i;
    (void)out.ExtractRecords(all, resolver);
  }
  // Byte flips inside blobs leave the tables intact, so some mutations
  // always decode and reach extraction.
  EXPECT_GT(decoded_ok, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDecodeTest,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

}  // namespace
}  // namespace rstore

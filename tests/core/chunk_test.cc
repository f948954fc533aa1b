#include "core/chunk.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "common/coding.h"
#include "core/chunk_map.h"

namespace rstore {

/// Reaches into a chunk's tables so each corruption class Validate() claims
/// to detect can be injected and shown to fire.
class ChunkTestPeer {
 public:
  static std::string& data(Chunk* c) { return c->data_; }
  static uint32_t& payload_begin(Chunk* c) { return c->payload_begin_; }
  static std::vector<SubChunkExtent>& sub_chunks(Chunk* c) {
    return c->sub_chunks_;
  }
  static std::vector<CompositeKey>& records(Chunk* c) { return c->records_; }
  static std::vector<SubChunkMember>& members(Chunk* c) {
    return c->members_;
  }
};

namespace {

SubChunk MakeSubChunk(const std::string& key,
                      std::vector<std::pair<VersionId, std::string>> records) {
  std::vector<SubChunk::Member> members;
  for (size_t i = 0; i < records.size(); ++i) {
    SubChunk::Member m;
    m.key = CompositeKey(key, records[i].first);
    m.parent_index = i == 0 ? 0 : static_cast<uint32_t>(i - 1);
    m.payload = std::move(records[i].second);
    members.push_back(std::move(m));
  }
  auto sc = SubChunk::Build(std::move(members), CompressionType::kLZ);
  EXPECT_TRUE(sc.ok());
  return *std::move(sc);
}

TEST(ChunkMapTest, AddAndQuery) {
  ChunkMap map(4);
  map.Add(0, 0);
  map.Add(0, 1);
  map.Add(2, 1);
  map.Add(2, 3);
  EXPECT_EQ(map.Versions(), (std::vector<VersionId>{0, 2}));
  EXPECT_TRUE(map.HasVersion(0));
  EXPECT_FALSE(map.HasVersion(1));
  EXPECT_EQ(map.RecordsOf(0), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(map.RecordsOf(2), (std::vector<uint32_t>{1, 3}));
  EXPECT_TRUE(map.RecordsOf(7).empty());
}

TEST(ChunkMapTest, EncodeDecodeRoundTrip) {
  ChunkMap map(100);
  for (uint32_t v = 0; v < 20; ++v) {
    for (uint32_t r = v; r < 100; r += 7) map.Add(v, r);
  }
  std::string buf;
  map.EncodeTo(&buf);
  Slice in(buf);
  ChunkMap decoded;
  ASSERT_TRUE(ChunkMap::DecodeFrom(&in, &decoded).ok());
  EXPECT_TRUE(in.empty());
  EXPECT_TRUE(decoded == map);
}

TEST(ChunkMapTest, DecodeRejectsRepeatedOrDescendingVersions) {
  // EncodeTo writes versions in ascending order only; a repeated version
  // would otherwise silently keep one of its two bitmaps.
  auto encode = [](VersionId first, VersionId second) {
    std::string buf;
    PutVarint32(&buf, 8);  // record count
    PutVarint64(&buf, 2);  // versions
    Bitmap one(8);
    one.Set(1);
    Bitmap seven(8);
    seven.Set(7);
    PutVarint32(&buf, first);
    one.SerializeTo(&buf);
    PutVarint32(&buf, second);
    seven.SerializeTo(&buf);
    return buf;
  };
  for (auto [first, second] : {std::pair<VersionId, VersionId>{0, 0},
                               std::pair<VersionId, VersionId>{3, 2}}) {
    std::string buf = encode(first, second);
    Slice in(buf);
    ChunkMap decoded;
    EXPECT_TRUE(ChunkMap::DecodeFrom(&in, &decoded).IsCorruption())
        << first << "," << second;
  }
  std::string ascending = encode(2, 3);
  Slice in(ascending);
  ChunkMap decoded;
  ASSERT_TRUE(ChunkMap::DecodeFrom(&in, &decoded).ok());
  EXPECT_EQ(decoded.RecordsOf(2), (std::vector<uint32_t>{1}));
  EXPECT_EQ(decoded.RecordsOf(3), (std::vector<uint32_t>{7}));
}

TEST(ChunkMapTest, DecodeRejectsSizeMismatch) {
  ChunkMap map(10);
  map.Add(1, 5);
  std::string buf;
  map.EncodeTo(&buf);
  // Tamper: claim 11 records but keep a 10-bit bitmap.
  buf[0] = 11;
  Slice in(buf);
  ChunkMap decoded;
  EXPECT_FALSE(ChunkMap::DecodeFrom(&in, &decoded).ok());
}

TEST(ChunkTest, FlattenedRecordList) {
  Chunk chunk(7);
  EXPECT_EQ(chunk.id(), 7u);
  uint32_t first_a = chunk.AddSubChunk(
      MakeSubChunk("A", {{0, "a0"}, {2, "a2"}}));
  uint32_t first_b = chunk.AddSubChunk(MakeSubChunk("B", {{1, "b1"}}));
  EXPECT_EQ(first_a, 0u);
  EXPECT_EQ(first_b, 2u);
  EXPECT_EQ(chunk.record_count(), 3u);
  EXPECT_EQ(chunk.records()[0], CompositeKey("A", 0));
  EXPECT_EQ(chunk.records()[1], CompositeKey("A", 2));
  EXPECT_EQ(chunk.records()[2], CompositeKey("B", 1));
}

TEST(ChunkTest, ExtractPayloadAndRecords) {
  Chunk chunk(1);
  chunk.AddSubChunk(MakeSubChunk("A", {{0, "payload-a0"}, {2, "payload-a2"}}));
  chunk.AddSubChunk(MakeSubChunk("B", {{1, "payload-b1"}}));

  auto p = chunk.ExtractPayload(CompositeKey("A", 2));
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(*p, "payload-a2");
  EXPECT_TRUE(
      chunk.ExtractPayload(CompositeKey("C", 0)).status().IsNotFound());

  auto records = chunk.ExtractRecords({0, 2});
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].first, CompositeKey("A", 0));
  EXPECT_EQ((*records)[0].second, "payload-a0");
  EXPECT_EQ((*records)[1].first, CompositeKey("B", 1));
  EXPECT_EQ((*records)[1].second, "payload-b1");

  EXPECT_FALSE(chunk.ExtractRecords({9}).ok());
}

TEST(ChunkTest, ChunkMapIntegration) {
  Chunk chunk(3);
  chunk.AddSubChunk(MakeSubChunk("A", {{0, "a0"}}));
  chunk.AddSubChunk(MakeSubChunk("B", {{0, "b0"}, {1, "b1"}}));
  // A@0 and B@0 belong to V0; B@1 replaces B@0 in V1 (A@0 persists).
  ChunkMap map(chunk.record_count());
  map.Add(0, 0);
  map.Add(0, 1);
  map.Add(1, 0);
  map.Add(1, 2);
  auto v1 = map.RecordsOf(1);
  EXPECT_EQ(v1, (std::vector<uint32_t>{0, 2}));
  auto extracted = chunk.ExtractRecords(v1);
  ASSERT_TRUE(extracted.ok());
  EXPECT_EQ((*extracted)[0].second, "a0");
  EXPECT_EQ((*extracted)[1].second, "b1");
  EXPECT_TRUE(chunk.Validate().ok());
}

TEST(ChunkTest, EncodeDecodeRoundTrip) {
  Chunk chunk(42);
  chunk.AddSubChunk(MakeSubChunk("A", {{0, std::string(500, 'x')}}));
  chunk.AddSubChunk(MakeSubChunk("B", {{0, "b0"}, {3, "b3"}}));
  std::string body;
  chunk.EncodeTo(&body);
  Chunk decoded;
  ASSERT_TRUE(Chunk::DecodeFrom(body, &decoded).ok());
  EXPECT_EQ(decoded.id(), 42u);
  EXPECT_EQ(decoded.record_count(), 3u);
  EXPECT_EQ(decoded.records(), chunk.records());
  EXPECT_EQ(*decoded.ExtractPayload(CompositeKey("B", 3)), "b3");
  EXPECT_TRUE(decoded.Validate().ok());
}

TEST(ChunkTest, DecodeRejectsTrailingBytes) {
  Chunk chunk(5);
  chunk.AddSubChunk(MakeSubChunk("A", {{0, "a0"}}));
  std::string body;
  chunk.EncodeTo(&body);
  Chunk decoded;
  ASSERT_TRUE(Chunk::DecodeFrom(body, &decoded).ok());
  body.push_back('\0');
  EXPECT_TRUE(Chunk::DecodeFrom(body, &decoded).IsCorruption());
}

TEST(ChunkTest, CopiesAndMovesOutliveTheOriginal) {
  // The tables index the chunk's bytes by offset, so a copy or a moved-to
  // chunk reads its own bytes, never the source's.
  auto decoded = std::make_unique<Chunk>();
  {
    Chunk built(8);
    built.AddSubChunk(MakeSubChunk("A", {{0, std::string(300, 'a')}}));
    built.AddSubChunk(MakeSubChunk("B", {{0, "b0"}, {1, "b1"}}));
    std::string body;
    built.EncodeTo(&body);
    ASSERT_TRUE(Chunk::DecodeFrom(std::move(body), decoded.get()).ok());
  }
  Chunk copy = *decoded;
  Chunk moved = std::move(*decoded);
  decoded.reset();
  for (const Chunk* chunk : {&copy, &moved}) {
    EXPECT_TRUE(chunk->Validate().ok());
    EXPECT_EQ(*chunk->ExtractPayload(CompositeKey("A", 0)),
              std::string(300, 'a'));
    EXPECT_EQ(*chunk->ExtractPayload(CompositeKey("B", 1)), "b1");
  }
}

TEST(ChunkTest, PayloadBytesTracksSubChunkSizes) {
  Chunk chunk(1);
  EXPECT_EQ(chunk.payload_bytes(), 0u);
  SubChunk sc = MakeSubChunk("A", {{0, std::string(1000, 'q')}});
  uint64_t expected = sc.serialized_size();
  chunk.AddSubChunk(std::move(sc));
  EXPECT_EQ(chunk.payload_bytes(), expected);
}

TEST(ChunkTest, ValidateDetectsEveryTampering) {
  using Peer = ChunkTestPeer;
  auto fresh = [] {
    Chunk built(4);
    built.AddSubChunk(MakeSubChunk("A", {{0, "a0"}}));
    built.AddSubChunk(MakeSubChunk("B", {{0, "b0"}, {1, "b1"}, {2, "b2"}}));
    std::string body;
    built.EncodeTo(&body);
    Chunk decoded;
    EXPECT_TRUE(Chunk::DecodeFrom(std::move(body), &decoded).ok());
    return decoded;
  };
  const std::vector<std::pair<std::string, std::function<void(Chunk*)>>>
      tamperings = {
          {"size mismatch", [](Chunk* c) { Peer::members(c).pop_back(); }},
          {"payload starts past",
           [](Chunk* c) {
             Peer::payload_begin(c) =
                 static_cast<uint32_t>(Peer::data(c).size() + 1);
           }},
          {"unreadable",
           [](Chunk* c) {
             Peer::data(c)[Peer::sub_chunks(c)[1].begin] = 0;  // no members
           }},
          {"table diverges",
           [](Chunk* c) { Peer::sub_chunks(c)[0].uncompressed_bytes += 1; }},
          {"bytes past", [](Chunk* c) { Peer::data(c).push_back('x'); }},
          {"record list diverges",
           [](Chunk* c) { Peer::records(c)[0].version += 1; }},
          {"parent links diverge",
           [](Chunk* c) { Peer::members(c)[3].parent = 0; }},
      };
  for (const auto& [expected, tamper] : tamperings) {
    Chunk chunk = fresh();
    ASSERT_TRUE(chunk.Validate().ok());
    tamper(&chunk);
    Status s = chunk.Validate();
    EXPECT_TRUE(s.IsCorruption()) << expected;
    EXPECT_NE(s.ToString().find(expected), std::string::npos)
        << expected << ": " << s.ToString();
  }
}

TEST(ChunkKeyTest, DistinctAndStable) {
  EXPECT_EQ(ChunkKey(5), ChunkKey(5));
  EXPECT_NE(ChunkKey(5), ChunkKey(6));
  EXPECT_EQ(ChunkKey(0)[0], 'c');
}

}  // namespace
}  // namespace rstore

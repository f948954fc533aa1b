#include "core/chunk.h"

#include <algorithm>
#include <iterator>

#include "common/coding.h"
#include "common/logging.h"

namespace rstore {

std::string ChunkKey(ChunkId id) {
  std::string key = "c";
  PutVarint64(&key, id);
  return key;
}

std::string ChunkMapKey(ChunkId id) {
  std::string key = "m";
  PutVarint64(&key, id);
  return key;
}

uint32_t Chunk::AddSubChunk(SubChunk sub_chunk) {
  const uint32_t first = record_count();
  RSTORE_CHECK(data_.size() + sub_chunk.encoded_.size() <= UINT32_MAX)
      << "chunk exceeds 32-bit offsets";
  const auto shift = static_cast<uint32_t>(data_.size());
  data_.append(sub_chunk.encoded_);
  SubChunkExtent extent = sub_chunk.extent_;
  extent.begin += shift;
  extent.blob_begin += shift;
  extent.end += shift;
  extent.first_member = first;
  sub_chunks_.push_back(extent);
  for (SubChunkMember member : sub_chunk.members_) {
    if (member.parent == SubChunkMember::kExternalParent) {
      member.external_key_at += shift;
    }
    members_.push_back(member);
  }
  records_.insert(records_.end(),
                  std::make_move_iterator(sub_chunk.keys_.begin()),
                  std::make_move_iterator(sub_chunk.keys_.end()));
  return first;
}

SubChunkView Chunk::sub_chunk(size_t s) const {
  const SubChunkExtent& extent = sub_chunks_[s];
  return SubChunkView(data_.data(), extent,
                      records_.data() + extent.first_member,
                      members_.data() + extent.first_member);
}

size_t Chunk::SubChunkOf(uint32_t record) const {
  auto after = std::upper_bound(
      sub_chunks_.begin(), sub_chunks_.end(), record,
      [](uint32_t r, const SubChunkExtent& e) { return r < e.first_member; });
  return static_cast<size_t>(after - sub_chunks_.begin()) - 1;
}

uint64_t Chunk::ApproximateMemoryBytes() const {
  // Sizes of the objects of the earlier layout on LP64 libstdc++: the
  // chunk, each sub-chunk, and each composite-key slot.
  constexpr uint64_t kChunkCharge = 144;
  constexpr uint64_t kSubChunkCharge = 120;
  constexpr uint64_t kKeyCharge = 40;
  uint64_t bytes = kChunkCharge;
  for (const SubChunkExtent& extent : sub_chunks_) {
    bytes += kSubChunkCharge + (extent.end - extent.blob_begin);
  }
  // Each record held its key twice (sub-chunk member and flattened record
  // list), an external-parent key slot, a parent index and a sub-chunk
  // index.
  for (size_t i = 0; i < records_.size(); ++i) {
    bytes += 3 * kKeyCharge + 2 * records_[i].key.size() +
             2 * sizeof(uint32_t);
    if (members_[i].parent == SubChunkMember::kExternalParent) {
      Slice external(data_.data() + members_[i].external_key_at,
                     data_.size() - members_[i].external_key_at);
      uint32_t key_size = 0;
      // Parse checked this key; it starts with its length.
      if (GetVarint32(&external, &key_size).ok()) bytes += key_size;
    }
  }
  return bytes;
}

Result<std::string> Chunk::ExtractPayload(
    const CompositeKey& ck, const PayloadResolver& resolver) const {
  auto it = std::find(records_.begin(), records_.end(), ck);
  if (it == records_.end()) {
    return Status::NotFound("record " + ck.ToString() + " not in chunk");
  }
  return sub_chunk(SubChunkOf(static_cast<uint32_t>(it - records_.begin())))
      .ExtractPayload(ck, resolver);
}

Result<std::vector<std::pair<CompositeKey, std::string>>>
Chunk::ExtractRecords(const std::vector<uint32_t>& record_indices,
                      const PayloadResolver& resolver) const {
  // Group requested records by owning sub-chunk, each group in request
  // order, so each sub-chunk is decompressed exactly once.
  std::vector<std::pair<size_t, uint32_t>> wanted;  // (sub-chunk, record)
  wanted.reserve(record_indices.size());
  for (uint32_t idx : record_indices) {
    if (idx >= records_.size()) {
      return Status::InvalidArgument("record index out of range");
    }
    wanted.emplace_back(SubChunkOf(idx), idx);
  }
  std::stable_sort(
      wanted.begin(), wanted.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::pair<CompositeKey, std::string>> out;
  out.reserve(wanted.size());
  for (size_t w = 0; w < wanted.size();) {
    const size_t s = wanted[w].first;
    auto payloads = sub_chunk(s).ExtractAllPayloads(resolver);
    if (!payloads.ok()) return payloads.status();
    const uint32_t first = sub_chunks_[s].first_member;
    for (; w < wanted.size() && wanted[w].first == s; ++w) {
      const uint32_t idx = wanted[w].second;
      out.emplace_back(records_[idx], std::move(payloads.value()[idx - first]));
    }
  }
  return out;
}

uint64_t Chunk::uncompressed_bytes() const {
  uint64_t total = 0;
  for (const SubChunkExtent& extent : sub_chunks_) {
    total += extent.uncompressed_bytes;
  }
  return total;
}

void Chunk::EncodeTo(std::string* out) const {
  PutVarint64(out, id_);
  PutVarint64(out, sub_chunks_.size());
  out->append(data_, payload_begin_);
}

Status Chunk::DecodeFrom(std::string body, Chunk* out) {
  *out = Chunk();
  Slice input(body);
  RSTORE_RETURN_IF_ERROR(GetVarint64(&input, &out->id_));
  uint64_t count;
  RSTORE_RETURN_IF_ERROR(GetVarint64(&input, &count));
  if (count > input.size()) {
    // Untrusted count: every sub-chunk takes several encoded bytes.
    return Status::Corruption("sub-chunk count exceeds input");
  }
  out->payload_begin_ = static_cast<uint32_t>(input.data() - body.data());
  // Most sub-chunks hold one record, so the per-record arrays rarely grow.
  out->sub_chunks_.reserve(count);
  out->records_.reserve(count);
  out->members_.reserve(count);
  for (uint64_t s = 0; s < count; ++s) {
    RSTORE_RETURN_IF_ERROR(SubChunk::Parse(body.data(), &input,
                                           &out->records_, &out->members_,
                                           &out->sub_chunks_.emplace_back()));
  }
  if (!input.empty()) {
    return Status::Corruption("trailing bytes after the last sub-chunk");
  }
  out->data_ = std::move(body);
  RSTORE_DCHECK(out->Validate().ok()) << "decoded chunk fails validation";
  return Status::OK();
}

Status Chunk::Validate() const {
  if (members_.size() != records_.size()) {
    return Status::Corruption("record list / member table size mismatch");
  }
  if (payload_begin_ > data_.size()) {
    return Status::Corruption("payload starts past the chunk's bytes");
  }
  // The tables must be exactly what the encodings say, and the encodings
  // must sit back to back up to the end of the bytes.
  std::vector<CompositeKey> keys;
  std::vector<SubChunkMember> members;
  Slice input(data_.data() + payload_begin_, payload_bytes());
  for (const SubChunkExtent& recorded : sub_chunks_) {
    SubChunkExtent parsed;
    if (!SubChunk::Parse(data_.data(), &input, &keys, &members, &parsed)
             .ok()) {
      return Status::Corruption("sub-chunk encoding unreadable");
    }
    if (!(parsed == recorded)) {
      return Status::Corruption("sub-chunk table diverges from encodings");
    }
  }
  if (!input.empty()) {
    return Status::Corruption("bytes past the last sub-chunk");
  }
  if (keys != records_) {
    return Status::Corruption("record list diverges from sub-chunk keys");
  }
  if (members != members_) {
    return Status::Corruption("parent links diverge from sub-chunk keys");
  }
  return Status::OK();
}

Result<RecordPayloadMap> ReplayChunks(
    const std::vector<std::shared_ptr<const Chunk>>& chunks) {
  RecordPayloadMap replayed;
  PayloadResolver resolver =
      [&replayed](const CompositeKey& ck) -> Result<std::string> {
    auto it = replayed.find(ck);
    if (it == replayed.end()) {
      return Status::Corruption("delta base record " + ck.ToString() +
                                " not yet replayed");
    }
    return it->second;
  };
  for (const auto& chunk : chunks) {
    std::vector<uint32_t> all(chunk->record_count());
    for (uint32_t i = 0; i < all.size(); ++i) all[i] = i;
    auto extracted = chunk->ExtractRecords(all, resolver);
    if (!extracted.ok()) return extracted.status();
    for (auto& [ck, payload] : extracted.value()) {
      replayed[ck] = std::move(payload);
    }
  }
  return replayed;
}

}  // namespace rstore

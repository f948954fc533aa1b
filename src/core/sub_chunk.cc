#include "core/sub_chunk.h"

#include <algorithm>

#include "common/coding.h"
#include "common/logging.h"
#include "compress/delta_codec.h"

namespace rstore {

Result<SubChunk> SubChunk::Build(std::vector<Member> members,
                                 CompressionType compression) {
  if (members.empty()) {
    return Status::InvalidArgument("sub-chunk needs at least one member");
  }
  if (members[0].parent_index != 0 && !members[0].external_parent) {
    return Status::InvalidArgument("head member must be its own parent");
  }
  std::string table;  // the member table, encoded
  std::string raw;    // length-prefixed payloads and deltas, uncompressed
  uint64_t uncompressed_bytes = 0;
  PutVarint64(&table, members.size());
  for (uint32_t i = 0; i < members.size(); ++i) {
    const Member& m = members[i];
    if (i > 0 && m.key.key != members[0].key.key) {
      return Status::InvalidArgument(
          "sub-chunk members must share a primary key");
    }
    m.key.EncodeTo(&table);
    uncompressed_bytes += m.payload.size();
    if (m.external_parent) {
      PutVarint32(&table, SubChunkMember::kExternalParent);
      m.external_parent->EncodeTo(&table);
      std::string delta;
      delta_codec::Encode(Slice(m.external_parent_payload), Slice(m.payload),
                          &delta);
      PutLengthPrefixed(&raw, Slice(delta));
      continue;
    }
    if (i > 0 && m.parent_index >= i) {
      return Status::InvalidArgument(
          "member " + std::to_string(i) + " references non-earlier parent");
    }
    PutVarint32(&table, m.parent_index);
    if (i == 0) {
      PutLengthPrefixed(&raw, Slice(m.payload));
    } else {
      std::string delta;
      delta_codec::Encode(Slice(members[m.parent_index].payload),
                          Slice(m.payload), &delta);
      PutLengthPrefixed(&raw, Slice(delta));
    }
  }
  std::string blob;
  GetCompressor(compression)->Compress(Slice(raw), &blob);

  SubChunk sc;
  sc.encoded_ = std::move(table);
  sc.encoded_.push_back(static_cast<char>(compression));
  PutVarint64(&sc.encoded_, uncompressed_bytes);
  PutLengthPrefixed(&sc.encoded_, Slice(blob));
  // The member table comes from parsing the encoding back, so a built
  // sub-chunk and a decoded one are the same by construction.
  Slice input(sc.encoded_);
  Status parsed = Parse(sc.encoded_.data(), &input, &sc.keys_, &sc.members_,
                        &sc.extent_);
  RSTORE_CHECK(parsed.ok() && input.empty())
      << "built sub-chunk does not parse: " << parsed.ToString();
  return sc;
}

bool SubChunk::Contains(const CompositeKey& ck) const {
  return std::find(keys_.begin(), keys_.end(), ck) != keys_.end();
}

Status SubChunk::DecodeFrom(Slice* input, SubChunk* out) {
  *out = SubChunk();
  Slice rest = *input;
  RSTORE_RETURN_IF_ERROR(
      Parse(input->data(), &rest, &out->keys_, &out->members_, &out->extent_));
  out->encoded_.assign(input->data(), out->extent_.end);
  *input = rest;
  return Status::OK();
}

Status SubChunk::Parse(const char* buffer, Slice* input,
                       std::vector<CompositeKey>* keys,
                       std::vector<SubChunkMember>* members,
                       SubChunkExtent* extent) {
  if (static_cast<uint64_t>(input->data() + input->size() - buffer) >
      UINT32_MAX) {
    return Status::Corruption("sub-chunk buffer exceeds 32-bit offsets");
  }
  auto offset = [buffer](const char* at) {
    return static_cast<uint32_t>(at - buffer);
  };
  extent->begin = offset(input->data());
  extent->first_member = static_cast<uint32_t>(keys->size());
  uint64_t count;
  RSTORE_RETURN_IF_ERROR(GetVarint64(input, &count));
  if (count == 0) return Status::Corruption("empty sub-chunk");
  if (count > input->size()) {
    // Untrusted count: each member costs >= 2 encoded bytes, so never
    // accept more members than the input could possibly hold.
    return Status::Corruption("sub-chunk member count exceeds input");
  }
  extent->member_count = static_cast<uint32_t>(count);
  for (uint64_t i = 0; i < count; ++i) {
    CompositeKey& key = keys->emplace_back();
    RSTORE_RETURN_IF_ERROR(CompositeKey::DecodeFrom(input, &key));
    SubChunkMember& member = members->emplace_back();
    RSTORE_RETURN_IF_ERROR(GetVarint32(input, &member.parent));
    if (member.parent == SubChunkMember::kExternalParent) {
      member.external_key_at = offset(input->data());
      Slice external_key;
      uint32_t external_version;
      RSTORE_RETURN_IF_ERROR(GetLengthPrefixed(input, &external_key));
      RSTORE_RETURN_IF_ERROR(GetVarint32(input, &external_version));
    } else if (i == 0 && member.parent != 0) {
      return Status::Corruption("sub-chunk head parent must be 0");
    } else if (i > 0 && member.parent >= i) {
      return Status::Corruption("sub-chunk parent index out of order");
    }
  }
  if (input->empty()) return Status::Corruption("truncated sub-chunk");
  extent->compression = static_cast<CompressionType>((*input)[0]);
  input->RemovePrefix(1);
  RSTORE_RETURN_IF_ERROR(GetVarint64(input, &extent->uncompressed_bytes));
  Slice blob;
  RSTORE_RETURN_IF_ERROR(GetLengthPrefixed(input, &blob));
  extent->blob_begin = offset(blob.data());
  extent->end = offset(blob.data() + blob.size());
  return Status::OK();
}

bool SubChunkView::HasExternalParents() const {
  for (uint32_t i = 0; i < extent_.member_count; ++i) {
    if (members_[i].parent == SubChunkMember::kExternalParent) return true;
  }
  return false;
}

Result<std::vector<std::string>> SubChunkView::ExtractAllPayloads(
    const PayloadResolver& resolver) const {
  const Slice blob(buffer_ + extent_.blob_begin,
                   extent_.end - extent_.blob_begin);
  std::string raw;
  RSTORE_RETURN_IF_ERROR(
      GetCompressor(extent_.compression)->Decompress(blob, &raw));
  Slice input(raw);
  std::vector<std::string> payloads(extent_.member_count);
  for (uint32_t i = 0; i < extent_.member_count; ++i) {
    Slice piece;
    RSTORE_RETURN_IF_ERROR(GetLengthPrefixed(&input, &piece));
    const SubChunkMember& member = members_[i];
    if (member.parent == SubChunkMember::kExternalParent) {
      if (!resolver) {
        return Status::InvalidArgument(
            "sub-chunk member " + keys_[i].ToString() +
            " needs an external base record but no resolver was given");
      }
      // Parse checked this key when the sub-chunk was decoded.
      Slice key_input(buffer_ + member.external_key_at,
                      extent_.end - member.external_key_at);
      CompositeKey external;
      RSTORE_RETURN_IF_ERROR(CompositeKey::DecodeFrom(&key_input, &external));
      auto base = resolver(external);
      if (!base.ok()) return base.status();
      RSTORE_RETURN_IF_ERROR(
          delta_codec::Apply(Slice(*base), piece, &payloads[i]));
    } else if (i == 0) {
      payloads[0] = piece.ToString();
    } else {
      RSTORE_RETURN_IF_ERROR(delta_codec::Apply(
          Slice(payloads[member.parent]), piece, &payloads[i]));
    }
  }
  return payloads;
}

Result<std::string> SubChunkView::ExtractPayload(
    const CompositeKey& ck, const PayloadResolver& resolver) const {
  std::span<const CompositeKey> members = keys();
  auto it = std::find(members.begin(), members.end(), ck);
  if (it == members.end()) {
    return Status::NotFound("record " + ck.ToString() + " not in sub-chunk");
  }
  // Parents always precede their dependents, so the whole chain is needed.
  auto payloads = ExtractAllPayloads(resolver);
  if (!payloads.ok()) return payloads.status();
  return std::move(payloads.value()[static_cast<size_t>(it - members.begin())]);
}

}  // namespace rstore

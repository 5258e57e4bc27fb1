#include "verify.hpp"

#include <algorithm>
#include <vector>

#include "ctwatch/ct/merkle.hpp"
#include "ctwatch/httpd/json.hpp"
#include "ctwatch/util/encoding.hpp"

namespace perfbench {

namespace ct = ctwatch::ct;
namespace json = ctwatch::httpd::json;

namespace {

std::optional<Digest> digest_of(const json::Value* value) {
  if (value == nullptr || !value->is_string()) return std::nullopt;
  const auto raw = ctwatch::try_base64_decode(value->as_string());
  if (!raw || raw->size() != Digest{}.size()) return std::nullopt;
  Digest out{};
  std::copy(raw->begin(), raw->end(), out.begin());
  return out;
}

std::optional<std::vector<Digest>> path_of(const json::Value& doc, const char* key) {
  const json::Value* array = doc.get(key);
  if (array == nullptr || !array->is_array()) return std::nullopt;
  std::vector<Digest> out;
  for (const json::Value& node : array->as_array()) {
    const auto digest = digest_of(&node);
    if (!digest) return std::nullopt;
    out.push_back(*digest);
  }
  return out;
}

/// TLS digitally-signed blob: u8 scheme, u16 length, signature bytes.
std::optional<ctwatch::crypto::SignatureBlob> signature_of(const json::Value* value) {
  if (value == nullptr || !value->is_string()) return std::nullopt;
  const auto raw = ctwatch::try_base64_decode(value->as_string());
  if (!raw || raw->size() < 3) return std::nullopt;
  const std::size_t length = (std::size_t{(*raw)[1]} << 8) | (*raw)[2];
  if (raw->size() != 3 + length) return std::nullopt;
  ctwatch::crypto::SignatureBlob blob;
  blob.scheme = static_cast<ctwatch::crypto::SignatureScheme>((*raw)[0]);
  blob.data.assign(raw->begin() + 3, raw->end());
  return blob;
}

}  // namespace

std::optional<ct::SignedTreeHead> check_sth(const std::string& body, BytesView log_key) {
  const auto doc = json::parse(body);
  if (!doc || !doc->is_object()) return std::nullopt;
  const auto size = doc->get_u64("tree_size");
  const auto timestamp = doc->get_u64("timestamp");
  const auto root = digest_of(doc->get("sha256_root_hash"));
  const auto signature = signature_of(doc->get("tree_head_signature"));
  if (!size || !timestamp || !root || !signature) return std::nullopt;
  ct::SignedTreeHead sth;
  sth.tree_size = *size;
  sth.timestamp_ms = *timestamp;
  sth.root_hash = *root;
  sth.signature = *signature;
  if (!ct::verify_sth(sth, log_key)) return std::nullopt;
  return sth;
}

bool check_inclusion(const std::string& body, const Digest& leaf, std::uint64_t index,
                     const Head& head, std::size_t* proof_len) {
  const auto doc = json::parse(body);
  if (!doc || !doc->is_object() || doc->get_u64("leaf_index") != index) return false;
  const auto path = path_of(*doc, "audit_path");
  if (!path) return false;
  if (proof_len != nullptr) *proof_len = path->size();
  return ct::verify_inclusion(leaf, index, head.size, *path, head.root);
}

bool check_consistency(const std::string& body, const Head& old_head, const Head& new_head,
                       std::size_t* proof_len) {
  const auto doc = json::parse(body);
  if (!doc || !doc->is_object()) return false;
  const auto path = path_of(*doc, "consistency");
  if (!path) return false;
  if (proof_len != nullptr) *proof_len = path->size();
  return ct::verify_consistency(old_head.size, new_head.size, old_head.root, new_head.root,
                                *path);
}

bool check_entries(const std::string& body, std::uint64_t start, std::uint64_t expected_count,
                   const std::function<bool(std::uint64_t, const Digest&)>& expect) {
  const auto doc = json::parse(body);
  if (!doc || !doc->is_object()) return false;
  const json::Value* entries = doc->get("entries");
  if (entries == nullptr || !entries->is_array() ||
      entries->as_array().size() != expected_count) {
    return false;
  }
  std::uint64_t index = start;
  for (const json::Value& entry : entries->as_array()) {
    const auto input = entry.get_string("leaf_input");
    if (!input) return false;
    const auto raw = ctwatch::try_base64_decode(*input);
    if (!raw || !expect(index, leaf_hash_of(*raw))) return false;
    ++index;
  }
  return true;
}

std::optional<Digest> check_sct(const std::string& body, const ct::SignedEntry& entry,
                                BytesView log_key, bool verify_signature) {
  const auto doc = json::parse(body);
  if (!doc || !doc->is_object()) return std::nullopt;
  const auto id = digest_of(doc->get("id"));
  const auto timestamp = doc->get_u64("timestamp");
  const auto signature = signature_of(doc->get("signature"));
  const auto extensions = doc->get_string("extensions");
  if (!id || !timestamp || !signature || !extensions) return std::nullopt;
  const auto extension_bytes = ctwatch::try_base64_decode(*extensions);
  if (!extension_bytes) return std::nullopt;
  ct::SignedCertificateTimestamp sct;
  sct.extensions = *extension_bytes;
  std::copy(id->begin(), id->end(), sct.log_id.begin());
  sct.timestamp_ms = *timestamp;
  sct.signature = *signature;
  if (sct.log_id != ctwatch::crypto::Sha256::hash(log_key)) return std::nullopt;
  if (verify_signature && !ct::verify_sct(sct, entry, log_key)) return std::nullopt;
  return leaf_hash_of(leaf_input(sct.timestamp_ms, entry));
}

}  // namespace perfbench

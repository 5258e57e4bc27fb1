// Checks every response the wire workloads receive. Each check returns
// true only when the response proves what it claims: proofs against the
// roots recorded while the store was built, leaf_inputs against their
// expected leaf hashes, STHs and SCTs under the log's public key.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "ctwatch/ct/sct.hpp"
#include "fixture.hpp"
#include "inputs.hpp"

namespace perfbench {

/// A parsed, signature-checked get-sth response.
std::optional<ctwatch::ct::SignedTreeHead> check_sth(const std::string& body, BytesView log_key);

/// get-proof-by-hash: the proof must place `leaf` at `index` under `head`.
bool check_inclusion(const std::string& body, const Digest& leaf, std::uint64_t index,
                     const Head& head, std::size_t* proof_len = nullptr);

/// get-sth-consistency between two recorded heads.
bool check_consistency(const std::string& body, const Head& old_head, const Head& new_head,
                       std::size_t* proof_len = nullptr);

/// get-entries from `start`: exactly `expected_count` entries whose
/// leaf_input hashes satisfy `expect(index, hash)`.
bool check_entries(const std::string& body, std::uint64_t start, std::uint64_t expected_count,
                   const std::function<bool(std::uint64_t, const Digest&)>& expect);

/// add-chain / add-pre-chain: the SCT must verify over `entry` under the
/// log key. On success returns the leaf hash the log must integrate.
std::optional<Digest> check_sct(const std::string& body, const ctwatch::ct::SignedEntry& entry,
                                BytesView log_key, bool verify_signature);

}  // namespace perfbench

// RFC 6962 Merkle hash trees.
//
// Leaf hash:  MTH({d}) = SHA-256(0x00 || d)
// Node hash:  SHA-256(0x01 || left || right)
// Inclusion (audit) and consistency proofs follow RFC 6962 §2.1.
//
// The tree is what makes a CT log's append-only promise *checkable*: the
// auditor in this library verifies consistency between successive signed
// tree heads and the tests actively tamper with histories to confirm
// detection.
//
// This header holds the hashing primitives, the incremental root, the
// resident tree and the proof verifiers. Historic roots and proofs are
// computed in one place, ct/tiled.hpp: `MerkleTree` and a resident log
// service read through a TileSource with no pages, a paged log service
// through its tile cache.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ctwatch/crypto/sha256.hpp"

namespace ctwatch::ct {

using crypto::Digest;

/// Hash of a leaf's serialized content.
Digest leaf_hash(BytesView data);
/// Interior node hash.
Digest node_hash(const Digest& left, const Digest& right);

/// SHA-256 of the empty string: the root of the empty tree per RFC 6962.
Digest empty_tree_root();

namespace detail {
/// Largest power of two strictly less than n (n >= 2).
std::uint64_t merkle_split_point(std::uint64_t n);
}  // namespace detail

/// Incremental RFC 6962 root: the binary counter of perfect-subtree
/// hashes, one stack slot per set bit of the size. O(log n) amortized per
/// leaf, O(log n) per root readout, O(log n) space — the piece a
/// high-throughput sequencer needs without retaining a second copy of
/// every leaf.
class RootAccumulator {
 public:
  /// Folds one more leaf hash into the running root.
  void add(const Digest& leaf);

  [[nodiscard]] std::uint64_t size() const { return size_; }
  [[nodiscard]] Digest root() const;

  /// The frontier: the perfect-subtree hashes, largest subtree first —
  /// exactly one per set bit of size(). This is the whole mutable state
  /// of the accumulator; ctwatch::storage serializes it into checkpoint
  /// records so recovery restores the tree head in O(log n) instead of
  /// rehashing every leaf.
  [[nodiscard]] const std::vector<Digest>& frontier() const { return stack_; }

  /// Rebuilds an accumulator from a serialized frontier. Returns nullopt
  /// unless the hash count matches popcount(size) — the shape every
  /// valid frontier must have (the caller still owes a root check
  /// against a trusted STH before serving anything from it).
  static std::optional<RootAccumulator> from_frontier(std::vector<Digest> frontier,
                                                      std::uint64_t size);

 private:
  std::vector<Digest> stack_;  // perfect-subtree hashes, largest first
  std::uint64_t size_ = 0;
};

/// An append-only Merkle tree over pre-hashed leaves.
///
/// Appends are O(log n) amortized (via RootAccumulator); proofs and
/// historic roots fold the stored leaf hashes through the tiled math over
/// a MemoryLeafSource (no pages), O(n) hashing per call.
class MerkleTree {
 public:
  /// Appends a leaf (already leaf-hashed) and returns its index.
  std::uint64_t append(const Digest& leaf);
  /// Convenience: hashes and appends raw leaf data.
  std::uint64_t append_data(BytesView data) { return append(leaf_hash(data)); }
  /// Bulk append: integrates a sealed batch of leaf hashes in one call and
  /// returns the index of the first. Equivalent to appending in order.
  std::uint64_t append_batch(std::span<const Digest> leaves);

  [[nodiscard]] std::uint64_t size() const { return leaves_.size(); }

  /// Root of the current tree. The empty tree's root is SHA-256 of the
  /// empty string, per RFC 6962.
  [[nodiscard]] Digest root() const { return accumulator_.root(); }
  /// Root of the first `n` leaves (n <= size()).
  [[nodiscard]] Digest root_at(std::uint64_t n) const;

  /// Audit path proving leaf `index` is in the tree of size `tree_size`.
  [[nodiscard]] std::vector<Digest> inclusion_proof(std::uint64_t index,
                                                    std::uint64_t tree_size) const;
  /// Consistency proof between tree sizes `old_size` <= `new_size`.
  [[nodiscard]] std::vector<Digest> consistency_proof(std::uint64_t old_size,
                                                      std::uint64_t new_size) const;

  [[nodiscard]] const Digest& leaf(std::uint64_t index) const { return leaves_.at(index); }

 private:
  std::vector<Digest> leaves_;
  RootAccumulator accumulator_;
};

/// Verifies an RFC 6962 inclusion proof.
bool verify_inclusion(const Digest& leaf, std::uint64_t index, std::uint64_t tree_size,
                      const std::vector<Digest>& proof, const Digest& root);

/// Verifies an RFC 6962 consistency proof.
bool verify_consistency(std::uint64_t old_size, std::uint64_t new_size, const Digest& old_root,
                        const Digest& new_root, const std::vector<Digest>& proof);

}  // namespace ctwatch::ct

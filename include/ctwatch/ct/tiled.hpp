// Tile-addressed RFC 6962 proof math — the one engine every historic
// root, inclusion path and consistency path in ctwatch goes through.
//
// The math is the RFC 6962 §2.1 recursion, but it short-circuits every
// perfect subtree that a tile page already names. At paper scale (10⁸–10⁹
// entries) the leaves live in checksummed 256-wide tile pages on disk,
// with upper-level tiles holding the roots of perfect 256^L-leaf
// subtrees:
//
//   MTH(D[i·2^j : (i+1)·2^j])  =  fold of 2^(j mod 8) adjacent entries
//                                 of the level-(j/8) tile — one page —
//
// so an inclusion path at size n resolves from ~log2(n) tile entries
// spread over O(log n / 8) distinct pages, plus the resident tail. When
// a subtree is not fully covered by pages (it crosses the persistence
// watermark, or the upper level is still partial), the recursion falls
// through to the children and ultimately to TileSource::leaf. Every
// short-circuit replaces a subtree root with the same value the plain
// recursion would have computed, so the output does not depend on which
// pages a source has; tests/merkle_oracle.hpp keeps that plain recursion
// as the differential oracle.
//
// TileSource is the seam between this math and where the hashes live.
// Resident trees (MerkleTree, a LogService that does not read pages) use
// a source with watermark 0: no page is ever consulted, every hash folds
// up from leaf(), O(n) per proof. The storage adapter pins cache pages
// for the source's lifetime, serves the unsealed tail from resident
// memory, and counts page fetches for the proof_page_fetches histogram.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ctwatch/crypto/sha256.hpp"

namespace ctwatch::ct {

using crypto::Digest;

/// A borrowed view of one tile page's hash array. Valid for as long as
/// the TileSource that produced it (sources pin pages they hand out).
struct TilePageView {
  const Digest* entries = nullptr;
  std::uint64_t count = 0;
};

/// Where tiled proofs get their hashes. One source per query (cheap,
/// stack-constructed); implementations pin every page they return until
/// they are destroyed, so views stay valid across the whole proof.
class TileSource {
 public:
  virtual ~TileSource() = default;

  /// Leaves covered by persisted tile pages — the paged prefix. Captured
  /// once per query by the implementation; the math only consults pages
  /// for subtrees entirely below this watermark.
  [[nodiscard]] virtual std::uint64_t paged_leaves() const = 0;

  /// The page at (level, tile) with at least `min_count` entries, if
  /// available. Returning false is always safe — the math recurses into
  /// the level below instead (absent upper level, stale partial page).
  virtual bool page(unsigned level, std::uint64_t tile, std::uint64_t min_count,
                    TilePageView& out) = 0;

  /// Fallback leaf accessor for any index the pages cannot serve (the
  /// resident tail, or — if a level-0 page vanished below the watermark —
  /// an error the implementation may surface by throwing).
  virtual Digest leaf(std::uint64_t index) = 0;
};

/// A source with no pages over a resident leaf-hash array: every subtree
/// folds up from leaf(i). MerkleTree proves through this.
class MemoryLeafSource final : public TileSource {
 public:
  explicit MemoryLeafSource(std::span<const Digest> leaves) : leaves_(leaves) {}

  [[nodiscard]] std::uint64_t paged_leaves() const override { return 0; }
  bool page(unsigned, std::uint64_t, std::uint64_t, TilePageView&) override { return false; }
  Digest leaf(std::uint64_t index) override { return leaves_[index]; }

 private:
  std::span<const Digest> leaves_;
};

/// Root of the balanced tree over `count` adjacent perfect-subtree roots
/// (count a power of two; count == 1 returns the entry itself). The fold
/// the tile cascade and the proof math share: entry i of a level-L tile
/// is fold_perfect over 256 entries of the level below.
Digest fold_perfect(const Digest* entries, std::uint64_t count);

/// MTH(D[begin:end]). Requires end > begin.
Digest tiled_range_root(TileSource& source, std::uint64_t begin, std::uint64_t end);

/// MTH of the first n leaves (empty-tree root when n == 0).
Digest tiled_root(TileSource& source, std::uint64_t n);

/// PATH(m, D[0:tree_size]) per RFC 6962 §2.1.1. The caller must have
/// bounds-checked index < tree_size.
std::vector<Digest> tiled_inclusion_path(TileSource& source, std::uint64_t index,
                                         std::uint64_t tree_size);

/// PROOF(old_size, D[0:new_size]) per RFC 6962 §2.1.2. The caller must
/// have bounds-checked old_size <= new_size.
std::vector<Digest> tiled_consistency_path(TileSource& source, std::uint64_t old_size,
                                           std::uint64_t new_size);

}  // namespace ctwatch::ct

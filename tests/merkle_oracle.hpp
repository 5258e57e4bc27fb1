// Reference RFC 6962 Merkle math for differential tests: the plain
// recursion over a leaf accessor (index -> leaf hash), exactly as RFC 6962
// §2.1 writes it. Every production root and proof goes through ct/tiled.hpp;
// these templates are what the tiled math must match byte for byte. Slow
// (O(n) hashing per call) and easy to check by eye; used only by tests and
// by tile_scale's parity pass.
#pragma once

#include <cstdint>
#include <vector>

#include "ctwatch/ct/merkle.hpp"

namespace ctwatch::ct::oracle {

/// MTH(D[begin:end]) over any leaf accessor `leaf(index) -> Digest`.
/// Requires end > begin.
template <typename LeafFn>
Digest merkle_range_root(const LeafFn& leaf, std::uint64_t begin, std::uint64_t end) {
  const std::uint64_t n = end - begin;
  if (n == 1) return leaf(begin);
  const std::uint64_t k = detail::merkle_split_point(n);
  return node_hash(merkle_range_root(leaf, begin, begin + k),
                   merkle_range_root(leaf, begin + k, end));
}

/// MTH of the first `n` leaves; the empty-tree root when n == 0.
template <typename LeafFn>
Digest merkle_root_of(const LeafFn& leaf, std::uint64_t n) {
  if (n == 0) return empty_tree_root();
  return merkle_range_root(leaf, 0, n);
}

/// PATH(m, D[0:tree_size]) per RFC 6962 §2.1.1. Requires
/// index < tree_size <= leaf count.
template <typename LeafFn>
std::vector<Digest> merkle_inclusion_path(const LeafFn& leaf, std::uint64_t index,
                                          std::uint64_t tree_size) {
  // Iterative over the recursion, collecting siblings root-to-leaf.
  std::uint64_t begin = 0, end = tree_size, m = index;
  std::vector<Digest> reversed;
  while (end - begin > 1) {
    const std::uint64_t k = detail::merkle_split_point(end - begin);
    if (m < begin + k) {
      reversed.push_back(merkle_range_root(leaf, begin + k, end));
      end = begin + k;
    } else {
      reversed.push_back(merkle_range_root(leaf, begin, begin + k));
      begin += k;
    }
  }
  return {reversed.rbegin(), reversed.rend()};
}

/// PROOF(old_size, D[0:new_size]) per RFC 6962 §2.1.2. Requires
/// old_size <= new_size <= leaf count.
template <typename LeafFn>
std::vector<Digest> merkle_consistency_path(const LeafFn& leaf, std::uint64_t old_size,
                                            std::uint64_t new_size) {
  if (old_size == new_size || old_size == 0) return {};
  struct Helper {
    const LeafFn& leaf;
    std::vector<Digest> subproof(std::uint64_t m, std::uint64_t begin, std::uint64_t end,
                                 bool whole) const {
      const std::uint64_t n = end - begin;
      if (m == n) {
        if (whole) return {};
        return {merkle_range_root(leaf, begin, end)};
      }
      const std::uint64_t k = detail::merkle_split_point(n);
      std::vector<Digest> out;
      if (m <= k) {
        out = subproof(m, begin, begin + k, whole);
        out.push_back(merkle_range_root(leaf, begin + k, end));
      } else {
        out = subproof(m - k, begin + k, end, false);
        out.push_back(merkle_range_root(leaf, begin, begin + k));
      }
      return out;
    }
  };
  return Helper{leaf}.subproof(old_size, 0, new_size, true);
}

}  // namespace ctwatch::ct::oracle

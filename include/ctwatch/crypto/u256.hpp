// Fixed-width 256-bit unsigned arithmetic, the foundation of the P-256
// implementation. Little-endian 64-bit limbs.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <string>

#include "ctwatch/util/encoding.hpp"

namespace ctwatch::crypto {

/// 256-bit unsigned integer. Value semantics, constexpr-friendly storage.
struct U256 {
  // limb[0] is least significant.
  std::array<std::uint64_t, 4> limb{};

  constexpr U256() = default;
  constexpr explicit U256(std::uint64_t v) : limb{v, 0, 0, 0} {}
  constexpr U256(std::uint64_t l0, std::uint64_t l1, std::uint64_t l2, std::uint64_t l3)
      : limb{l0, l1, l2, l3} {}

  /// Parses a big-endian hex string (up to 64 hex digits, no 0x prefix).
  static U256 from_hex(const std::string& hex);
  /// Big-endian 32-byte decoding; input must be exactly 32 bytes.
  static U256 from_bytes(BytesView be32);
  /// Interprets an arbitrary-length big-endian buffer, reducing to the low
  /// 256 bits (used for hashing digests into scalars).
  static U256 from_bytes_truncated(BytesView be);

  [[nodiscard]] Bytes to_bytes() const;  ///< big-endian, 32 bytes
  [[nodiscard]] std::string to_hex() const;

  [[nodiscard]] constexpr bool is_zero() const {
    return (limb[0] | limb[1] | limb[2] | limb[3]) == 0;
  }
  [[nodiscard]] constexpr bool is_odd() const { return limb[0] & 1; }
  [[nodiscard]] constexpr bool bit(int i) const {
    return (limb[static_cast<std::size_t>(i >> 6)] >> (i & 63)) & 1;
  }
  /// Number of significant bits (0 for zero).
  [[nodiscard]] int bit_length() const;

  friend constexpr std::strong_ordering operator<=>(const U256& a, const U256& b) {
    for (int i = 3; i >= 0; --i) {
      const auto ai = a.limb[static_cast<std::size_t>(i)];
      const auto bi = b.limb[static_cast<std::size_t>(i)];
      if (ai != bi) return ai <=> bi;
    }
    return std::strong_ordering::equal;
  }
  friend constexpr bool operator==(const U256&, const U256&) = default;

  /// Addition returning the carry-out bit. `out` may alias an operand.
  static constexpr bool add(const U256& a, const U256& b, U256& out) {
    unsigned __int128 carry = 0;
#pragma GCC unroll 4
    for (std::size_t i = 0; i < 4; ++i) {
      const unsigned __int128 sum = static_cast<unsigned __int128>(a.limb[i]) + b.limb[i] + carry;
      out.limb[i] = static_cast<std::uint64_t>(sum);
      carry = sum >> 64;
    }
    return carry != 0;
  }
  /// Subtraction returning the borrow-out bit. `out` may alias an operand.
  static constexpr bool sub(const U256& a, const U256& b, U256& out) {
    unsigned __int128 borrow = 0;
#pragma GCC unroll 4
    for (std::size_t i = 0; i < 4; ++i) {
      const unsigned __int128 diff = static_cast<unsigned __int128>(a.limb[i]) - b.limb[i] - borrow;
      out.limb[i] = static_cast<std::uint64_t>(diff);
      borrow = (diff >> 64) & 1;
    }
    return borrow != 0;
  }
};

}  // namespace ctwatch::crypto

// Reference P-256 arithmetic for differential tests: the straightforward
// algorithms the library's fast paths replaced. Generic modular arithmetic
// by binary long division and binary extended GCD, the NIST (Solinas)
// reduction over 32-bit words, Jacobian double-and-add, and ECDSA signing
// and verification on top of them. Slow and easy to check by eye; linked
// only into tests.
#pragma once

#include <array>
#include <cstdint>

#include "ctwatch/crypto/ec_p256.hpp"

namespace ctwatch::crypto::oracle {

/// 512-bit product type (little-endian 64-bit limbs).
struct U512 {
  std::array<std::uint64_t, 8> limb{};

  [[nodiscard]] bool bit(int i) const {
    return (limb[static_cast<std::size_t>(i >> 6)] >> (i & 63)) & 1;
  }
};

/// Full 256x256 -> 512-bit schoolbook multiplication.
U512 mul_wide(const U256& a, const U256& b);

/// Modular arithmetic for an odd modulus m > 1.
/// (a + b) mod m; requires a, b < m.
U256 add(const U256& a, const U256& b, const U256& m);
/// (a - b) mod m; requires a, b < m.
U256 sub(const U256& a, const U256& b, const U256& m);
/// Reduces a possibly >= m 256-bit value mod m (repeated subtraction).
U256 reduce(const U256& x, const U256& m);
/// Reduces a 512-bit value mod m (binary long division).
U256 reduce(const U512& x, const U256& m);
/// (a * b) mod m.
U256 mul(const U256& a, const U256& b, const U256& m);
/// Modular inverse via binary extended GCD; throws std::domain_error when
/// a == 0 or gcd(a, m) != 1.
U256 inverse(const U256& a, const U256& m);

/// (a * b) mod p by the NIST fast reduction of the 512-bit product.
U256 field_mul(const U256& a, const U256& b);

/// k * P by Jacobian double-and-add (k reduced mod n first).
AffinePoint multiply(const U256& k, const AffinePoint& point);
/// u1 * G + u2 * Q as two double-and-add passes and one addition.
AffinePoint double_multiply(const U256& u1, const U256& u2, const AffinePoint& q);
/// ECDSA signature of a digest under private scalar d, RFC 6979 nonce fed
/// the raw digest (equal to the standard nonce for digests below n).
EcdsaSignature sign_digest(const U256& d, const Digest& digest);
/// ECDSA verification by the textbook rule: x(u1*G + u2*Q) mod n == r,
/// with R made affine by an inversion.
bool verify_digest(const AffinePoint& q, const Digest& digest, const EcdsaSignature& sig);

}  // namespace ctwatch::crypto::oracle

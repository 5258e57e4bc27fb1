// NIST P-256 (secp256r1) elliptic curve and ECDSA, from scratch.
//
// CT logs sign SCTs and STHs with ECDSA P-256/SHA-256 in practice; this
// module provides the real thing so that signature validation failures in
// the §3.4 invalid-SCT study are genuine cryptographic failures, not flag
// checks.
//
// Arithmetic mod p and mod n is Montgomery multiplication on 64-bit limbs
// with 128-bit products; inverses are Fermat exponentiations. Points are
// Jacobian internally. k*P for a point with a fixed-base window table (43
// rows of 32 affine multiples of P, 86 KiB, normalised with one batched
// inversion) costs at most 43 mixed additions and no doublings. G has its
// table from first use; signing and key derivation read it. k*Q for any
// other point uses a width-5 wNAF.
//
// Verification computes u1*G + u2*Q. A log verifies under the same few
// keys again and again (an issuer's chains, a log's SCTs and STHs), so a
// public key earns a table of its own on its kKeyTableAdmitAfter-th verify,
// and from then on u2*Q is a second table sum. A build costs about ten
// verifies without a table, a small fraction of what the key has already
// cost; keys that never repeat never pay for one. The process keeps at most
// kKeyTableCapacity tables (least recently used out first) and counts
// sightings for kKeyTableTracked keys at a time (least seen out first). The
// check x(R) mod n == r stays in Jacobian form (X == r*Z^2, or (r+n)*Z^2
// when r+n < p), so a verify inverts only s.
//
// Scope note: this implementation is for simulation and research use. It is
// deliberately *not* constant-time: table lookups, digit-dependent additions
// and exponent-dependent multiplications all branch on secret scalars. The
// key tables add timing that depends only on public keys.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "ctwatch/crypto/sha256.hpp"
#include "ctwatch/crypto/u256.hpp"

namespace ctwatch::crypto {

/// Curve constants for P-256.
namespace p256 {
/// Field prime p = 2^256 - 2^224 + 2^192 + 2^96 - 1.
const U256& prime();
/// Group order n.
const U256& order();
/// Curve coefficient b (a = -3 mod p).
const U256& coeff_b();

/// (a * b) mod p.
U256 field_mul(const U256& a, const U256& b);
/// a^2 mod p.
U256 field_sqr(const U256& a);
/// a^-1 mod p; zero maps to zero.
U256 field_inv(const U256& a);
/// (a * b) mod n.
U256 scalar_mul(const U256& a, const U256& b);
/// a^-1 mod n; zero maps to zero.
U256 scalar_inv(const U256& a);

/// Verification key tables held at most (86 KiB each).
inline constexpr std::size_t kKeyTableCapacity = 16;
/// The verify under a key that earns the key its table.
inline constexpr std::uint32_t kKeyTableAdmitAfter = 128;
/// Keys whose verifies are counted toward a table at one time.
inline constexpr std::size_t kKeyTableTracked = 64;

/// Counters of the process-wide verification key tables.
struct KeyTableStats {
  std::size_t cached = 0;       ///< tables held now
  std::uint64_t builds = 0;     ///< tables built since start
  std::uint64_t evictions = 0;  ///< tables dropped to make room
  std::uint64_t hits = 0;       ///< double multiplications served by a table
};
KeyTableStats key_table_stats();

/// The verifier's final check on a Jacobian point with plain coordinates
/// X, Z < p (x = X/Z^2): true iff Z != 0 and x mod n == r, decided without
/// inverting Z. Requires r < n.
bool jacobian_x_mod_n_equals(const U256& X, const U256& Z, const U256& r);
}  // namespace p256

/// An affine point on P-256, or the point at infinity.
struct AffinePoint {
  U256 x;
  U256 y;
  bool infinity = true;

  static AffinePoint make(const U256& x, const U256& y) { return {x, y, false}; }

  /// True if the point satisfies the curve equation (or is infinity).
  [[nodiscard]] bool on_curve() const;

  /// SEC1 uncompressed encoding (0x04 || X || Y), 65 bytes. Infinity encodes
  /// as a single zero byte.
  [[nodiscard]] Bytes encode() const;
  /// Decodes a SEC1 uncompressed point. Throws std::invalid_argument if the
  /// encoding is malformed or the point is not on the curve.
  static AffinePoint decode(BytesView data);

  friend bool operator==(const AffinePoint& a, const AffinePoint& b) {
    if (a.infinity || b.infinity) return a.infinity == b.infinity;
    return a.x == b.x && a.y == b.y;
  }
};

/// The generator point G.
const AffinePoint& p256_generator();

/// Scalar multiplication k * P: the fixed-base table when P is the
/// generator, width-5 wNAF otherwise.
AffinePoint p256_multiply(const U256& k, const AffinePoint& point);
/// u1 * G + u2 * Q, the ECDSA verification combination: the G table sum
/// plus Q's table sum or, until Q has earned a table, a wNAF.
AffinePoint p256_double_multiply(const U256& u1, const U256& u2, const AffinePoint& q);
/// Point addition (one mixed Jacobian + affine addition).
AffinePoint p256_add(const AffinePoint& a, const AffinePoint& b);

/// A raw ECDSA signature: the pair (r, s).
struct EcdsaSignature {
  U256 r;
  U256 s;

  /// Fixed-width 64-byte encoding (r || s, big-endian).
  [[nodiscard]] Bytes to_bytes() const;
  static EcdsaSignature from_bytes(BytesView data);

  friend bool operator==(const EcdsaSignature&, const EcdsaSignature&) = default;
};

/// An ECDSA P-256 private key with its public point.
class EcdsaKeyPair {
 public:
  /// Derives a reproducible key pair from a seed label (HKDF over the label).
  /// Every simulated log/CA key is derived this way, making runs replayable.
  static EcdsaKeyPair derive(const std::string& seed_label);

  /// Constructs from a raw private scalar in [1, n-1].
  static EcdsaKeyPair from_private(const U256& d);

  [[nodiscard]] const U256& private_scalar() const { return d_; }
  [[nodiscard]] const AffinePoint& public_point() const { return q_; }

  /// Signs a SHA-256 digest with a deterministic RFC 6979 nonce.
  [[nodiscard]] EcdsaSignature sign_digest(const Digest& digest) const;
  /// Convenience: hash then sign.
  [[nodiscard]] EcdsaSignature sign(BytesView message) const;

 private:
  EcdsaKeyPair(U256 d, AffinePoint q) : d_(d), q_(q) {}
  U256 d_;
  AffinePoint q_;
};

/// Verifies an ECDSA P-256 signature over a SHA-256 digest.
bool ecdsa_verify_digest(const AffinePoint& public_key, const Digest& digest,
                         const EcdsaSignature& sig);
/// Convenience: hash then verify.
bool ecdsa_verify(const AffinePoint& public_key, BytesView message, const EcdsaSignature& sig);

}  // namespace ctwatch::crypto

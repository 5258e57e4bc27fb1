// Differential tests: the library's P-256 arithmetic (Montgomery fields,
// fixed-base window tables for G and for verification keys, wNAF) against
// the reference implementation in p256_oracle.cpp, on seeded random inputs
// and on edge scalars.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ctwatch/crypto/ec_p256.hpp"
#include "ctwatch/util/rng.hpp"
#include "p256_oracle.hpp"

namespace ctwatch::crypto {
namespace {

const U256 kAllOnes{~0ULL, ~0ULL, ~0ULL, ~0ULL};

U256 random_u256(Rng& rng) { return U256(rng(), rng(), rng(), rng()); }

U256 offset(const U256& a, std::uint64_t delta, bool up) {
  U256 out;
  if (up) {
    U256::add(a, U256{delta}, out);
  } else {
    U256::sub(a, U256{delta}, out);
  }
  return out;
}

// v << shift, truncated to 256 bits.
U256 shifted(std::uint64_t v, int shift) {
  U256 out;
  const auto limb = static_cast<std::size_t>(shift / 64);
  const int bit = shift % 64;
  out.limb[limb] = v << bit;
  if (bit != 0 && limb < 3) out.limb[limb + 1] = v >> (64 - bit);
  return out;
}

// Scalars at which the recodings change behaviour: 0, 1, 2, n-1, n, n+1 and
// 2^256-1; every single-bit scalar; an all-ones run over every 5-bit wNAF
// window and every 6-bit table window; and, in every table row, the digits
// at the edges of the signed range (31 and 32 stay positive, 33 and 63 turn
// negative and carry).
std::vector<U256> edge_scalars() {
  const U256& n = p256::order();
  std::vector<U256> out = {U256{0},         U256{1},         U256{2}, offset(n, 1, false), n,
                           offset(n, 1, true), kAllOnes};
  for (int bit = 0; bit < 256; ++bit) out.push_back(shifted(1, bit));
  for (const int width : {5, 6}) {
    for (int pos = 0; pos < 256; pos += width) out.push_back(shifted((1ULL << width) - 1, pos));
  }
  for (int pos = 0; pos < 256; pos += 6) {
    for (const std::uint64_t digit : {31, 32, 33, 63}) out.push_back(shifted(digit, pos));
  }
  return out;
}

AffinePoint random_point(Rng& rng) { return oracle::multiply(random_u256(rng), p256_generator()); }

TEST(P256OracleTest, FieldMulAndInverseMatchOracle) {
  const U256& p = p256::prime();
  Rng rng(101);
  std::vector<U256> values = {U256{0}, U256{1}, U256{2}, offset(p, 1, false), p, kAllOnes};
  for (int i = 0; i < 200; ++i) values.push_back(random_u256(rng));
  for (std::size_t i = 0; i < values.size(); ++i) {
    const U256 a = oracle::reduce(values[i], p);
    const U256 b = oracle::reduce(values[(i * 7 + 3) % values.size()], p);
    ASSERT_EQ(p256::field_mul(values[i], b), oracle::mul(a, b, p)) << a.to_hex();
    ASSERT_EQ(p256::field_sqr(a), oracle::mul(a, a, p)) << a.to_hex();
    if (a.is_zero()) {
      EXPECT_EQ(p256::field_inv(a), U256{0});
    } else {
      ASSERT_EQ(p256::field_inv(a), oracle::inverse(a, p)) << a.to_hex();
    }
  }
}

TEST(P256OracleTest, ScalarMulAndInverseMatchOracle) {
  const U256& n = p256::order();
  Rng rng(102);
  std::vector<U256> values = {U256{0}, U256{1}, U256{2}, offset(n, 1, false), n, kAllOnes};
  for (int i = 0; i < 200; ++i) values.push_back(random_u256(rng));
  for (std::size_t i = 0; i < values.size(); ++i) {
    const U256 a = oracle::reduce(values[i], n);
    const U256 b = oracle::reduce(values[(i * 5 + 1) % values.size()], n);
    ASSERT_EQ(p256::scalar_mul(values[i], b), oracle::mul(a, b, n)) << a.to_hex();
    if (a.is_zero()) {
      EXPECT_EQ(p256::scalar_inv(a), U256{0});
    } else {
      ASSERT_EQ(p256::scalar_inv(a), oracle::inverse(a, n)) << a.to_hex();
    }
  }
}

TEST(P256OracleTest, BaseMultiplyMatchesOracle) {
  Rng rng(103);
  std::vector<U256> scalars = edge_scalars();
  for (int i = 0; i < 32; ++i) scalars.push_back(random_u256(rng));
  for (const U256& k : scalars) {
    ASSERT_EQ(p256_multiply(k, p256_generator()), oracle::multiply(k, p256_generator()))
        << k.to_hex();
  }
}

TEST(P256OracleTest, VariableMultiplyMatchesOracle) {
  Rng rng(104);
  const AffinePoint q = random_point(rng);
  std::vector<U256> scalars = edge_scalars();
  for (int i = 0; i < 32; ++i) scalars.push_back(random_u256(rng));
  for (const U256& k : scalars) {
    ASSERT_EQ(p256_multiply(k, q), oracle::multiply(k, q)) << k.to_hex();
  }
  // Other points, including 2G, which the generator shortcut must not catch.
  const AffinePoint two_g = oracle::multiply(U256{2}, p256_generator());
  for (const AffinePoint& point : {two_g, random_point(rng), random_point(rng)}) {
    const U256 k = random_u256(rng);
    EXPECT_EQ(p256_multiply(k, point), oracle::multiply(k, point)) << k.to_hex();
  }
}

TEST(P256OracleTest, DoubleMultiplyMatchesOracle) {
  Rng rng(105);
  const AffinePoint q = random_point(rng);
  const std::vector<U256> edges = edge_scalars();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const U256& u1 = edges[i];
    const U256 u2 = (i % 2 == 0) ? edges[edges.size() - 1 - i] : random_u256(rng);
    ASSERT_EQ(p256_double_multiply(u1, u2, q), oracle::double_multiply(u1, u2, q))
        << u1.to_hex() << " " << u2.to_hex();
  }
  for (int i = 0; i < 16; ++i) {
    const U256 u1 = random_u256(rng);
    const U256 u2 = random_u256(rng);
    const AffinePoint point = random_point(rng);
    ASSERT_EQ(p256_double_multiply(u1, u2, point), oracle::double_multiply(u1, u2, point));
  }
}

TEST(P256OracleTest, SignDigestIsByteIdenticalBelowOrder) {
  const U256& n = p256::order();
  Rng rng(106);
  std::vector<U256> keys = {U256{1}, offset(n, 1, false)};
  for (int i = 0; i < 6; ++i) keys.push_back(oracle::reduce(random_u256(rng), n));
  for (const U256& d : keys) {
    if (d.is_zero()) continue;
    const auto key = EcdsaKeyPair::from_private(d);
    std::vector<U256> digests = {U256{0}, U256{1}, offset(n, 1, false)};
    for (int i = 0; i < 4; ++i) digests.push_back(oracle::reduce(random_u256(rng), n));
    for (const U256& e : digests) {
      const Bytes raw = e.to_bytes();
      Digest digest{};
      std::copy(raw.begin(), raw.end(), digest.begin());
      ASSERT_EQ(hex_encode(key.sign_digest(digest).to_bytes()),
                hex_encode(oracle::sign_digest(d, digest).to_bytes()))
          << d.to_hex() << " " << e.to_hex();
    }
  }
}

Digest digest_of(const U256& value) {
  const Bytes raw = value.to_bytes();
  Digest digest{};
  std::copy(raw.begin(), raw.end(), digest.begin());
  return digest;
}

// Verification under one key, on both sides of the verify that earns the key
// its table: sums of edge scalars, colliding halves, and the verdicts on
// signatures and on their tampered digests all agree with the oracle.
TEST(P256OracleTest, KeyTableMatchesOracleBeforeAndAfterAdmission) {
  const U256& n = p256::order();
  Rng rng(107);
  const std::vector<U256> edges = edge_scalars();
  for (int k = 0; k < 2; ++k) {
    const U256 d = oracle::reduce(random_u256(rng), n);
    const auto key = EcdsaKeyPair::from_private(d);
    const AffinePoint& q = key.public_point();
    std::size_t uses = 0;  // double multiplications under q so far
    const auto check = [&](std::size_t stride) {
      for (std::size_t i = 0; i < edges.size(); i += stride, ++uses) {
        const U256& u1 = edges[i];
        const U256& u2 = edges[edges.size() - 1 - i];
        ASSERT_EQ(p256_double_multiply(u1, u2, q), oracle::double_multiply(u1, u2, q))
            << u1.to_hex() << " " << u2.to_hex();
      }
      // u1*G == u2*Q doubles and u1*G == -u2*Q cancels.
      const U256 u1 = oracle::reduce(random_u256(rng), n);
      const U256 u2 = oracle::mul(u1, oracle::inverse(d, n), n);
      ASSERT_EQ(p256_double_multiply(u1, u2, q), oracle::double_multiply(u1, u2, q));
      ASSERT_TRUE(p256_double_multiply(u1, oracle::sub(U256{}, u2, n), q).infinity);
      uses += 2;
      for (const U256& e : {U256{0}, U256{1}, edges[40], random_u256(rng), random_u256(rng)}) {
        const Digest digest = digest_of(e);
        const EcdsaSignature sig = key.sign_digest(digest);
        Digest tampered = digest;
        tampered[31] ^= 0x01;
        ASSERT_TRUE(oracle::verify_digest(q, digest, sig));
        ASSERT_TRUE(ecdsa_verify_digest(q, digest, sig)) << e.to_hex();
        ASSERT_FALSE(oracle::verify_digest(q, tampered, sig));
        ASSERT_FALSE(ecdsa_verify_digest(q, tampered, sig)) << e.to_hex();
        uses += 2;
      }
    };

    const auto before = p256::key_table_stats();
    check(8);
    ASSERT_LT(uses, p256::kKeyTableAdmitAfter);
    EXPECT_EQ(p256::key_table_stats().builds, before.builds) << "no table before admission";
    const EcdsaSignature sig = key.sign_digest(digest_of(U256{7}));
    for (; uses < p256::kKeyTableAdmitAfter; ++uses) {
      ASSERT_TRUE(ecdsa_verify_digest(q, digest_of(U256{7}), sig));
    }
    const auto admitted = p256::key_table_stats();
    EXPECT_EQ(admitted.builds, before.builds + 1);
    check(1);
    EXPECT_GT(p256::key_table_stats().hits - admitted.hits, edges.size());
  }
}

}  // namespace
}  // namespace ctwatch::crypto

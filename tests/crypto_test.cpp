#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "ctwatch/crypto/ec_p256.hpp"
#include "ctwatch/crypto/sha256.hpp"
#include "ctwatch/crypto/signature.hpp"
#include "ctwatch/util/rng.hpp"
#include "p256_oracle.hpp"

namespace ctwatch::crypto {
namespace {

std::string digest_hex(const Digest& d) { return hex_encode(BytesView{d.data(), d.size()}); }

// ---------- SHA-256 (FIPS 180-4 vectors) ----------

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(digest_hex(Sha256::hash(BytesView{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(digest_hex(Sha256::hash(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(digest_hex(Sha256::hash(
                to_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(to_bytes(chunk));
  EXPECT_EQ(digest_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalEqualsOneShot) {
  // Split points around the 64-byte block boundary are the classic bug nest.
  const std::string message(200, 'x');
  for (std::size_t split : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 199u}) {
    Sha256 h;
    h.update(to_bytes(message.substr(0, split)));
    h.update(to_bytes(message.substr(split)));
    EXPECT_EQ(digest_hex(h.finish()), digest_hex(Sha256::hash(to_bytes(message))))
        << "split=" << split;
  }
}

TEST(Sha256Test, UseAfterFinishThrows) {
  Sha256 h;
  h.update(to_bytes("x"));
  (void)h.finish();
  EXPECT_THROW(h.update(to_bytes("y")), std::logic_error);
  EXPECT_THROW((void)h.finish(), std::logic_error);
  h.reset();
  EXPECT_EQ(digest_hex(h.finish()), digest_hex(Sha256::hash(BytesView{})));
}

TEST(HmacTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Digest mac = hmac_sha256(key, to_bytes("Hi There"));
  EXPECT_EQ(digest_hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  const Digest mac = hmac_sha256(to_bytes("Jefe"), to_bytes("what do ya want for nothing?"));
  EXPECT_EQ(digest_hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  // RFC 4231 test case 6: 131-byte key.
  const Bytes key(131, 0xaa);
  const Digest mac =
      hmac_sha256(key, to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(digest_hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HkdfTest, ExpandsDeterministically) {
  const Digest prk = hmac_sha256(to_bytes("salt"), to_bytes("ikm"));
  const Bytes a = hkdf_expand(BytesView{prk.data(), prk.size()}, to_bytes("info"), 42);
  const Bytes b = hkdf_expand(BytesView{prk.data(), prk.size()}, to_bytes("info"), 42);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 42u);
  const Bytes c = hkdf_expand(BytesView{prk.data(), prk.size()}, to_bytes("other"), 42);
  EXPECT_NE(a, c);
}

// ---------- U256 / modular arithmetic ----------

TEST(U256Test, HexRoundTrip) {
  const U256 v = U256::from_hex("deadbeef00112233445566778899aabbccddeeff0102030405060708090a0b0c");
  EXPECT_EQ(v.to_hex(), "deadbeef00112233445566778899aabbccddeeff0102030405060708090a0b0c");
}

TEST(U256Test, BytesRoundTrip) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const U256 v(rng(), rng(), rng(), rng());
    EXPECT_EQ(U256::from_bytes(v.to_bytes()), v);
  }
}

TEST(U256Test, AddSubInverse) {
  Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    const U256 a(rng(), rng(), rng(), rng());
    const U256 b(rng(), rng(), rng(), rng());
    U256 sum, back;
    const bool carry = U256::add(a, b, sum);
    const bool borrow = U256::sub(sum, b, back);
    EXPECT_EQ(back, a);
    EXPECT_EQ(carry, borrow);  // wrap-around symmetry
  }
}

TEST(U256Test, CompareAndBitLength) {
  EXPECT_LT(U256{1}, U256{2});
  EXPECT_EQ(U256{}.bit_length(), 0);
  EXPECT_EQ(U256{1}.bit_length(), 1);
  EXPECT_EQ(U256(0, 0, 0, 1).bit_length(), 193);
}

TEST(ModMathTest, MulMatchesSchoolbookSmall) {
  // Verify against 64-bit arithmetic for small operands.
  const U256 m{1000003};
  Rng rng(8);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t a = rng.below(1000003);
    const std::uint64_t b = rng.below(1000003);
    const U256 r = oracle::mul(U256{a}, U256{b}, m);
    EXPECT_EQ(r.limb[0], static_cast<std::uint64_t>((static_cast<unsigned __int128>(a) * b) %
                                                    1000003));
  }
}

TEST(ModMathTest, InverseTimesSelfIsOne) {
  const U256& n = p256::order();
  Rng rng(9);
  for (int i = 0; i < 25; ++i) {
    const U256 a(rng(), rng(), rng(), 0);
    if (a.is_zero()) continue;
    const U256 inv = p256::scalar_inv(a);
    EXPECT_EQ(p256::scalar_mul(a, inv), U256{1});
    EXPECT_EQ(inv, oracle::inverse(a, n));
  }
}

TEST(ModMathTest, FermatMatchesEuclid) {
  // a^(p-2) == a^-1 mod p for prime p.
  const U256 a = U256::from_hex("123456789abcdef0fedcba9876543210aabbccddeeff00112233445566778899");
  EXPECT_EQ(p256::field_inv(a), oracle::inverse(a, p256::prime()));
}

TEST(ModMathTest, FastP256ReductionMatchesGeneric) {
  // The Montgomery multiply and the Solinas reduction must agree with
  // binary long division.
  Rng rng(10);
  const U256& p = p256::prime();
  for (int i = 0; i < 300; ++i) {
    const U256 a = oracle::reduce(U256(rng(), rng(), rng(), rng()), p);
    const U256 b = oracle::reduce(U256(rng(), rng(), rng(), rng()), p);
    EXPECT_EQ(p256::field_mul(a, b), oracle::mul(a, b, p)) << "iteration " << i;
    EXPECT_EQ(oracle::field_mul(a, b), oracle::mul(a, b, p)) << "iteration " << i;
  }
}

// ---------- P-256 / ECDSA ----------

TEST(P256Test, GeneratorOnCurve) { EXPECT_TRUE(p256_generator().on_curve()); }

TEST(P256Test, GeneratorTimesOrderIsInfinity) {
  const AffinePoint r = p256_multiply(p256::order(), p256_generator());
  EXPECT_TRUE(r.infinity);
}

TEST(P256Test, KnownScalarMultiple) {
  // 2G, from published P-256 test data.
  const AffinePoint two_g = p256_multiply(U256{2}, p256_generator());
  EXPECT_EQ(two_g.x.to_hex(), "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978");
  EXPECT_EQ(two_g.y.to_hex(), "07775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1");
}

TEST(P256Test, AdditionCommutesWithScalars) {
  const AffinePoint g = p256_generator();
  const AffinePoint g3a = p256_add(g, p256_multiply(U256{2}, g));
  const AffinePoint g3b = p256_multiply(U256{3}, g);
  EXPECT_EQ(g3a, g3b);
}

TEST(P256Test, PointEncodeDecodeRoundTrip) {
  const AffinePoint p = p256_multiply(U256{12345}, p256_generator());
  const AffinePoint q = AffinePoint::decode(p.encode());
  EXPECT_EQ(p, q);
}

TEST(P256Test, DecodeRejectsOffCurvePoint) {
  Bytes bad = p256_generator().encode();
  bad[40] ^= 0x01;  // poke a coordinate byte
  EXPECT_THROW(AffinePoint::decode(bad), std::invalid_argument);
}

// -P for a finite point P.
AffinePoint negated(const AffinePoint& point) {
  U256 y;
  U256::sub(p256::prime(), point.y, y);
  return AffinePoint::make(point.x, y);
}

U256 order_minus(std::uint64_t v) {
  U256 out;
  U256::sub(p256::order(), U256{v}, out);
  return out;
}

Digest digest_of(const U256& value) {
  const Bytes raw = value.to_bytes();
  Digest digest{};
  std::copy(raw.begin(), raw.end(), digest.begin());
  return digest;
}

TEST(P256Test, AddingAPointToItselfDoubles) {
  const AffinePoint g = p256_generator();
  EXPECT_EQ(p256_add(g, g), p256_multiply(U256{2}, g));
  const AffinePoint p = p256_multiply(U256{5}, g);
  EXPECT_EQ(p256_add(p, p), p256_multiply(U256{10}, g));
}

TEST(P256Test, AddingANegatedPointGivesInfinity) {
  const AffinePoint p = p256_multiply(U256{7}, p256_generator());
  EXPECT_TRUE(p256_add(p, negated(p)).infinity);
  EXPECT_TRUE(p256_add(p256_generator(), negated(p256_generator())).infinity);
  EXPECT_EQ(p256_multiply(order_minus(1), p256_generator()), negated(p256_generator()));
}

TEST(P256Test, DoubleMultiplyCollidingHalves) {
  // u*G + u*G must double; u*G + u*(-G) and u*G + (n-u)*G cancel.
  const AffinePoint g = p256_generator();
  const U256 u = U256::from_hex("5ec1a1b2c3d4e5f60718293a4b5c6d7e8f90a1b2c3d4e5f60718293a4b5c6d7e");
  EXPECT_EQ(p256_double_multiply(u, u, g), p256_multiply(p256::scalar_mul(u, U256{2}), g));
  EXPECT_TRUE(p256_double_multiply(u, u, negated(g)).infinity);
  U256 n_minus_u;
  U256::sub(p256::order(), u, n_minus_u);
  EXPECT_TRUE(p256_double_multiply(u, n_minus_u, g).infinity);
  EXPECT_EQ(p256_double_multiply(U256{0}, U256{1}, g), g);
  EXPECT_EQ(p256_double_multiply(U256{1}, U256{0}, g), g);
}

TEST(EcdsaTest, Rfc6979SampleVector) {
  // RFC 6979 A.2.5, P-256 + SHA-256, message "sample".
  const auto key = EcdsaKeyPair::from_private(
      U256::from_hex("c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721"));
  EXPECT_EQ(key.public_point().x.to_hex(),
            "60fed4ba255a9d31c961eb74c6356d68c049b8923b61fa6ce669622e60f29fb6");
  const EcdsaSignature sig = key.sign(to_bytes("sample"));
  EXPECT_EQ(sig.r.to_hex(), "efd48b2aacb6a8fd1140dd9cd45e81d69d2c877b56aaf991c34d0ea84eaf3716");
  EXPECT_EQ(sig.s.to_hex(), "f7cb1c942d657c41d436c7a1b6e29f65f3e900dbb9aff4064dc4ab2f843acda8");
}

TEST(EcdsaTest, Rfc6979TestVector) {
  // RFC 6979 A.2.5, message "test".
  const auto key = EcdsaKeyPair::from_private(
      U256::from_hex("c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721"));
  const EcdsaSignature sig = key.sign(to_bytes("test"));
  EXPECT_EQ(sig.r.to_hex(), "f1abb023518351cd71d881567b1ea663ed3efcf6c5132b354f28d3b0b7d38367");
  EXPECT_EQ(sig.s.to_hex(), "019f4113742a2b14bd25926b49c649155f267e60d3814b4c0cc84250e46f0083");
}

TEST(EcdsaTest, SignVerifyRoundTrip) {
  const auto key = EcdsaKeyPair::derive("round-trip");
  const EcdsaSignature sig = key.sign(to_bytes("hello"));
  EXPECT_TRUE(ecdsa_verify(key.public_point(), to_bytes("hello"), sig));
  EXPECT_FALSE(ecdsa_verify(key.public_point(), to_bytes("hellp"), sig));
}

TEST(EcdsaTest, TamperedSignatureRejected) {
  const auto key = EcdsaKeyPair::derive("tamper");
  EcdsaSignature sig = key.sign(to_bytes("msg"));
  sig.r = oracle::add(sig.r, U256{1}, p256::order());
  EXPECT_FALSE(ecdsa_verify(key.public_point(), to_bytes("msg"), sig));
}

TEST(EcdsaTest, WrongKeyRejected) {
  const auto key1 = EcdsaKeyPair::derive("key-one");
  const auto key2 = EcdsaKeyPair::derive("key-two");
  const EcdsaSignature sig = key1.sign(to_bytes("msg"));
  EXPECT_FALSE(ecdsa_verify(key2.public_point(), to_bytes("msg"), sig));
}

TEST(EcdsaTest, RejectsOutOfRangeSignatureParts) {
  const auto key = EcdsaKeyPair::derive("range");
  EcdsaSignature sig = key.sign(to_bytes("msg"));
  EcdsaSignature zero_r = sig;
  zero_r.r = U256{0};
  EXPECT_FALSE(ecdsa_verify(key.public_point(), to_bytes("msg"), zero_r));
  EcdsaSignature big_s = sig;
  big_s.s = p256::order();
  EXPECT_FALSE(ecdsa_verify(key.public_point(), to_bytes("msg"), big_s));
}

TEST(EcdsaTest, NonceUsesDigestReducedModOrder) {
  // RFC 6979 §3.2 step d seeds the DRBG with bits2octets(h) =
  // int2octets(bits2int(h) mod n), so digests congruent mod n sign alike.
  const auto key = EcdsaKeyPair::from_private(
      U256::from_hex("c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721"));
  U256 n_plus_5;
  U256::add(p256::order(), U256{5}, n_plus_5);
  EXPECT_EQ(key.sign_digest(digest_of(n_plus_5)), key.sign_digest(digest_of(U256{5})));
  // Digest 2^256 - 1 (above n); signature from an independent RFC 6979
  // implementation (OpenSSL via Python cryptography, Prehashed SHA-256).
  const EcdsaSignature sig = key.sign_digest(digest_of(U256{~0ULL, ~0ULL, ~0ULL, ~0ULL}));
  EXPECT_EQ(sig.r.to_hex(), "1f2adbc54b88764c279f689fc9505959fc9e73e80dc20889a4e0be91865de75b");
  EXPECT_EQ(sig.s.to_hex(), "9d109b65e2fbfc0ae42ba0b2e5f03670cd458cff4882df6783f3d93d607d1755");
}

TEST(EcdsaTest, VerifyRejectsSignatureWhoseSumIsInfinity) {
  // With s = 1: u1 = e and u2 = r, so e = -r*d mod n makes u1*G + u2*Q = 0.
  const auto key = EcdsaKeyPair::derive("infinity-sum");
  const U256 r = U256::from_hex("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef");
  U256 e;
  U256::sub(p256::order(), p256::scalar_mul(r, key.private_scalar()), e);
  EXPECT_TRUE(p256_double_multiply(e, r, key.public_point()).infinity);
  EXPECT_FALSE(ecdsa_verify_digest(key.public_point(), digest_of(e), EcdsaSignature{r, U256{1}}));
}

TEST(EcdsaTest, JacobianCheckAcceptsXAtOrAboveOrder) {
  // x(R) mod n == r is decided as X == r*Z^2 or X == (r+n)*Z^2 (mod p).
  // The second form covers x in [n, p), which random signatures reach with
  // probability about 2^-128, so it is checked here on constructed points.
  const U256& p = p256::prime();
  const U256& n = p256::order();
  Rng rng(404);
  const auto check = [&](const U256& x, const U256& r) {
    const U256 z = oracle::reduce(U256(rng(), rng(), rng(), rng() | 1), p);
    const U256 X = oracle::mul(x, oracle::mul(z, z, p), p);
    return p256::jacobian_x_mod_n_equals(X, z, r);
  };
  U256 p_minus_1;
  U256::sub(p, U256{1}, p_minus_1);
  std::vector<U256> high = {n, p_minus_1};
  for (int i = 0; i < 32; ++i) {
    // n plus a 126-bit offset: p - n exceeds 2^126.
    U256 x;
    U256::add(n, U256(rng(), rng() >> 2, 0, 0), x);
    ASSERT_TRUE(x < p);
    high.push_back(x);
  }
  for (const U256& x : high) {
    U256 r;
    U256::sub(x, n, r);  // x mod n
    EXPECT_TRUE(check(x, r)) << x.to_hex();
    EXPECT_FALSE(check(x, oracle::add(r, U256{1}, n))) << x.to_hex();
    if (!r.is_zero()) {
      EXPECT_FALSE(check(x, oracle::sub(r, U256{1}, n))) << x.to_hex();
    }
  }
  // x below n: r = x itself, including x small enough that x + n < p.
  for (const U256& x : {U256{1}, U256{12345}, order_minus(1)}) {
    EXPECT_TRUE(check(x, x)) << x.to_hex();
    EXPECT_FALSE(check(x, oracle::add(x, U256{1}, n))) << x.to_hex();
  }
  // The point at infinity (Z == 0) matches nothing.
  EXPECT_FALSE(p256::jacobian_x_mod_n_equals(U256{1}, U256{0}, U256{0}));
  EXPECT_FALSE(p256::jacobian_x_mod_n_equals(U256{1}, U256{0}, U256{1}));
}

TEST(EcdsaTest, PublicKeysPlusAndMinusGenerator) {
  const auto plus = EcdsaKeyPair::from_private(U256{1});
  const auto minus = EcdsaKeyPair::from_private(order_minus(1));
  EXPECT_EQ(plus.public_point(), p256_generator());
  EXPECT_EQ(minus.public_point(), negated(p256_generator()));
  for (const auto* key : {&plus, &minus}) {
    const EcdsaSignature sig = key->sign(to_bytes("msg"));
    EXPECT_TRUE(ecdsa_verify(key->public_point(), to_bytes("msg"), sig));
    EXPECT_FALSE(ecdsa_verify(key->public_point(), to_bytes("msh"), sig));
  }
  EXPECT_FALSE(ecdsa_verify(minus.public_point(), to_bytes("msg"), plus.sign(to_bytes("msg"))));
}

TEST(EcdsaTest, DerivedKeysAreReproducibleAndDistinct) {
  const auto a1 = EcdsaKeyPair::derive("log-a");
  const auto a2 = EcdsaKeyPair::derive("log-a");
  const auto b = EcdsaKeyPair::derive("log-b");
  EXPECT_EQ(a1.public_point(), a2.public_point());
  EXPECT_FALSE(a1.public_point() == b.public_point());
}

// A key with one signed digest, and that digest with a bit flipped.
struct SignedKey {
  EcdsaKeyPair key;
  Digest digest;
  Digest tampered;
  EcdsaSignature sig;
};

std::vector<SignedKey> signed_keys(const std::string& label, std::size_t count) {
  std::vector<SignedKey> out;
  for (std::size_t i = 0; i < count; ++i) {
    const auto key = EcdsaKeyPair::derive(label + std::to_string(i));
    const Digest digest = Sha256::hash(to_bytes(label + "message" + std::to_string(i)));
    Digest tampered = digest;
    tampered[0] ^= 0x80;
    out.push_back({key, digest, tampered, key.sign_digest(digest)});
  }
  return out;
}

TEST(EcdsaKeyTableTest, RotationThroughMoreKeysThanTheCacheHolds) {
  // Each round verifies under every key three times (its own signature, a
  // tampered digest, the previous key's signature), so all keys earn tables
  // part-way through and the least recently used are evicted while the
  // rotation goes on. Verdicts must not depend on which path served them.
  const std::size_t count = p256::kKeyTableCapacity + 4;
  const auto keys = signed_keys("rotation-", count);
  const auto before = p256::key_table_stats();
  const std::size_t rounds = p256::kKeyTableAdmitAfter / 3 + 8;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < count; ++i) {
      const SignedKey& k = keys[i];
      const SignedKey& prev = keys[(i + count - 1) % count];
      ASSERT_TRUE(ecdsa_verify_digest(k.key.public_point(), k.digest, k.sig)) << round << "/" << i;
      ASSERT_FALSE(ecdsa_verify_digest(k.key.public_point(), k.tampered, k.sig)) << round;
      ASSERT_FALSE(ecdsa_verify_digest(k.key.public_point(), prev.digest, prev.sig)) << round;
    }
  }
  const auto after = p256::key_table_stats();
  EXPECT_GE(after.builds - before.builds, count);
  EXPECT_GE(after.evictions - before.evictions, count - p256::kKeyTableCapacity);
  EXPECT_GT(after.hits, before.hits);
  EXPECT_LE(after.cached, p256::kKeyTableCapacity);
}

TEST(EcdsaKeyTableTest, ConcurrentVerifiesWhileTablesAreBuiltAndEvicted) {
  // Four threads over overlapping windows of the keys (each key is in two
  // windows), so tables are built, shared and evicted while other threads
  // hold them. Under ThreadSanitizer this is the cache's race check.
  constexpr std::size_t kThreads = 4;
  const std::size_t count = p256::kKeyTableCapacity + 8;
  const std::size_t window = count / 2;
  const auto keys = signed_keys("concurrent-", count);
  const auto before = p256::key_table_stats();
  const std::size_t rounds = p256::kKeyTableAdmitAfter / 4 + 16;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < rounds; ++round) {
        for (std::size_t j = 0; j < window; ++j) {
          const SignedKey& k = keys[(t * count / kThreads + j) % count];
          if (!ecdsa_verify_digest(k.key.public_point(), k.digest, k.sig)) ++wrong;
          if (ecdsa_verify_digest(k.key.public_point(), k.tampered, k.sig)) ++wrong;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);
  const auto after = p256::key_table_stats();
  EXPECT_GE(after.builds - before.builds, count);
  EXPECT_GE(after.evictions - before.evictions, count - p256::kKeyTableCapacity);
  EXPECT_LE(after.cached, p256::kKeyTableCapacity);
}

TEST(EcdsaTest, SignatureBytesRoundTrip) {
  const auto key = EcdsaKeyPair::derive("bytes");
  const EcdsaSignature sig = key.sign(to_bytes("m"));
  EXPECT_EQ(EcdsaSignature::from_bytes(sig.to_bytes()), sig);
  EXPECT_THROW(EcdsaSignature::from_bytes(Bytes(63, 0)), std::invalid_argument);
}

// ---------- Signer abstraction ----------

class SignerSchemeTest : public ::testing::TestWithParam<SignatureScheme> {};

TEST_P(SignerSchemeTest, SignVerifyAndRejectTamper) {
  const auto signer = make_signer("scheme-test", GetParam());
  EXPECT_EQ(signer->scheme(), GetParam());
  const SignatureBlob sig = signer->sign(to_bytes("payload"));
  EXPECT_TRUE(verify_signature(signer->public_key(), to_bytes("payload"), sig));
  EXPECT_FALSE(verify_signature(signer->public_key(), to_bytes("payloae"), sig));

  SignatureBlob mangled = sig;
  mangled.data[0] ^= 0x80;
  EXPECT_FALSE(verify_signature(signer->public_key(), to_bytes("payload"), mangled));
}

TEST_P(SignerSchemeTest, KeyIdIsStablePerLabel) {
  const auto a = make_signer("same-label", GetParam());
  const auto b = make_signer("same-label", GetParam());
  EXPECT_EQ(a->key_id(), b->key_id());
  const auto c = make_signer("other-label", GetParam());
  EXPECT_NE(hex_encode(BytesView{a->key_id().data(), 32}),
            hex_encode(BytesView{c->key_id().data(), 32}));
}

TEST(SignatureBlobTest, MalformedEcdsaInputsVerifyFalse) {
  const auto signer = EcdsaSigner::derive("malformed");
  const Bytes key = signer->public_key();
  const Bytes message = to_bytes("payload");
  const SignatureBlob good = signer->sign(message);
  ASSERT_TRUE(verify_signature(key, message, good));

  auto with_part = [&](std::size_t offset, const U256& value) {
    SignatureBlob blob = good;
    const Bytes raw = value.to_bytes();
    std::copy(raw.begin(), raw.end(), blob.data.begin() + static_cast<std::ptrdiff_t>(offset));
    return blob;
  };
  const U256 all_ones{~0ULL, ~0ULL, ~0ULL, ~0ULL};
  std::vector<SignatureBlob> bad_sigs;
  for (const std::size_t size : {std::size_t{63}, std::size_t{65}}) {
    SignatureBlob blob = good;
    blob.data.resize(size);
    bad_sigs.push_back(blob);
  }
  for (const std::size_t offset : {std::size_t{0}, std::size_t{32}}) {  // r, then s
    for (const U256& value : {U256{0}, p256::order(), all_ones}) {
      bad_sigs.push_back(with_part(offset, value));
    }
  }
  for (const SignatureBlob& blob : bad_sigs) {
    EXPECT_NO_THROW(EXPECT_FALSE(verify_signature(key, message, blob)));
  }

  // Keys: the point at infinity, and coordinates at or above p.
  std::vector<Bytes> bad_keys = {Bytes{0x00}};
  for (const std::size_t offset : {std::size_t{1}, std::size_t{33}}) {  // x, then y
    for (const U256& value : {p256::prime(), all_ones}) {
      Bytes point = key;
      const Bytes raw = value.to_bytes();
      std::copy(raw.begin(), raw.end(), point.begin() + static_cast<std::ptrdiff_t>(offset));
      bad_keys.push_back(point);
    }
  }
  for (const Bytes& bad_key : bad_keys) {
    EXPECT_NO_THROW(EXPECT_FALSE(verify_signature(bad_key, message, good)));
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SignerSchemeTest,
                         ::testing::Values(SignatureScheme::ecdsa_p256_sha256,
                                           SignatureScheme::hmac_sha256_simulated));

TEST(SignerTest, SchemesDoNotCrossVerify) {
  const auto ecdsa = make_signer("cross", SignatureScheme::ecdsa_p256_sha256);
  const auto sim = make_signer("cross", SignatureScheme::hmac_sha256_simulated);
  const SignatureBlob sig = sim->sign(to_bytes("m"));
  EXPECT_FALSE(verify_signature(ecdsa->public_key(), to_bytes("m"), sig));
}

TEST(SignerTest, MalformedPublicKeyVerifiesFalseNotThrow) {
  const auto signer = make_signer("malformed", SignatureScheme::ecdsa_p256_sha256);
  const SignatureBlob sig = signer->sign(to_bytes("m"));
  EXPECT_FALSE(verify_signature(Bytes{0x01, 0x02}, to_bytes("m"), sig));
}

}  // namespace
}  // namespace ctwatch::crypto

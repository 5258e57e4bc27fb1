#include "p256_oracle.hpp"

#include <stdexcept>

namespace ctwatch::crypto::oracle {

namespace {

U256 shr1(const U256& x) {
  U256 out;
  for (std::size_t i = 0; i < 4; ++i) {
    out.limb[i] = x.limb[i] >> 1;
    if (i < 3) out.limb[i] |= x.limb[i + 1] << 63;
  }
  return out;
}

}  // namespace

U512 mul_wide(const U256& a, const U256& b) {
  U512 out;
  for (std::size_t i = 0; i < 4; ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      const unsigned __int128 cur = static_cast<unsigned __int128>(a.limb[i]) * b.limb[j] +
                                    out.limb[i + j] + carry;
      out.limb[i + j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    out.limb[i + 4] = carry;
  }
  return out;
}

U256 add(const U256& a, const U256& b, const U256& m) {
  U256 sum;
  const bool carry = U256::add(a, b, sum);
  if (carry || sum >= m) {
    U256 reduced;
    U256::sub(sum, m, reduced);
    return reduced;
  }
  return sum;
}

U256 sub(const U256& a, const U256& b, const U256& m) {
  U256 diff;
  if (U256::sub(a, b, diff)) {
    U256 wrapped;
    U256::add(diff, m, wrapped);
    return wrapped;
  }
  return diff;
}

U256 reduce(const U256& x, const U256& m) {
  U256 r = x;
  while (r >= m) {
    U256 tmp;
    U256::sub(r, m, tmp);
    r = tmp;
  }
  return r;
}

U256 reduce(const U512& x, const U256& m) {
  if (m.is_zero()) throw std::domain_error("oracle::reduce: zero modulus");
  // Binary long division over the 512-bit value. r accumulates the remainder
  // and never exceeds 2m before the conditional subtraction.
  U256 r;
  for (int i = 511; i >= 0; --i) {
    const bool overflow = r.bit(255);
    U256 shifted;
    for (std::size_t k = 3; k > 0; --k) {
      shifted.limb[k] = (r.limb[k] << 1) | (r.limb[k - 1] >> 63);
    }
    shifted.limb[0] = (r.limb[0] << 1) | (x.bit(i) ? 1u : 0u);
    r = shifted;
    if (overflow || r >= m) {
      U256 tmp;
      U256::sub(r, m, tmp);
      r = tmp;
    }
  }
  return r;
}

U256 mul(const U256& a, const U256& b, const U256& m) { return reduce(mul_wide(a, b), m); }

U256 inverse(const U256& a, const U256& m) {
  if (a.is_zero()) throw std::domain_error("oracle::inverse of zero");
  if (!m.is_odd()) throw std::domain_error("oracle::inverse requires odd modulus");
  // Binary extended GCD (HAC Algorithm 14.61 style, specialized for odd m).
  U256 u = reduce(a, m);
  U256 v = m;
  U256 x1{1};
  U256 x2{0};
  auto halve = [&m](U256& x) {
    if (x.is_odd()) {
      U256 t;
      const bool carry = U256::add(x, m, t);
      x = shr1(t);
      if (carry) x.limb[3] |= 1ULL << 63;
    } else {
      x = shr1(x);
    }
  };
  while (!u.is_zero() && !(u == U256{1}) && !(v == U256{1})) {
    while (!u.is_odd()) {
      u = shr1(u);
      halve(x1);
    }
    while (!v.is_odd()) {
      v = shr1(v);
      halve(x2);
    }
    if (u >= v) {
      U256::sub(u, v, u);
      x1 = sub(x1, x2, m);
    } else {
      U256::sub(v, u, v);
      x2 = sub(x2, x1, m);
    }
  }
  if (u.is_zero() && !(v == U256{1})) throw std::domain_error("oracle::inverse: not invertible");
  return (u == U256{1}) ? reduce(x1, m) : reduce(x2, m);
}

namespace {

// Signed accumulator over 256-bit values: tracks value + overflow*2^256.
struct Acc {
  U256 v;
  int overflow = 0;  // multiples of 2^256, may be negative

  void add(const U256& x) {
    if (U256::add(v, x, v)) ++overflow;
  }
  void sub(const U256& x) {
    if (U256::sub(v, x, v)) --overflow;
  }
};

// Builds a U256 from eight 32-bit words given most-significant first.
U256 words_be(std::uint32_t w7, std::uint32_t w6, std::uint32_t w5, std::uint32_t w4,
              std::uint32_t w3, std::uint32_t w2, std::uint32_t w1, std::uint32_t w0) {
  return U256{static_cast<std::uint64_t>(w1) << 32 | w0, static_cast<std::uint64_t>(w3) << 32 | w2,
              static_cast<std::uint64_t>(w5) << 32 | w4, static_cast<std::uint64_t>(w7) << 32 | w6};
}

}  // namespace

U256 field_mul(const U256& a, const U256& b) {
  // NIST fast reduction modulo p (FIPS 186-4, D.2.3).
  const U512 t = mul_wide(a, b);
  std::uint32_t c[16];
  for (int i = 0; i < 16; ++i) {
    c[i] = static_cast<std::uint32_t>(t.limb[static_cast<std::size_t>(i / 2)] >> (32 * (i % 2)));
  }
  const U256 s1 = words_be(c[7], c[6], c[5], c[4], c[3], c[2], c[1], c[0]);
  const U256 s2 = words_be(c[15], c[14], c[13], c[12], c[11], 0, 0, 0);
  const U256 s3 = words_be(0, c[15], c[14], c[13], c[12], 0, 0, 0);
  const U256 s4 = words_be(c[15], c[14], 0, 0, 0, c[10], c[9], c[8]);
  const U256 s5 = words_be(c[8], c[13], c[15], c[14], c[13], c[11], c[10], c[9]);
  const U256 s6 = words_be(c[10], c[8], 0, 0, 0, c[13], c[12], c[11]);
  const U256 s7 = words_be(c[11], c[9], 0, 0, c[15], c[14], c[13], c[12]);
  const U256 s8 = words_be(c[12], 0, c[10], c[9], c[8], c[15], c[14], c[13]);
  const U256 s9 = words_be(c[13], 0, c[11], c[10], c[9], 0, c[15], c[14]);

  Acc acc{s1, 0};
  acc.add(s2);
  acc.add(s2);
  acc.add(s3);
  acc.add(s3);
  acc.add(s4);
  acc.add(s5);
  acc.sub(s6);
  acc.sub(s7);
  acc.sub(s8);
  acc.sub(s9);

  const U256& p = p256::prime();
  while (acc.overflow > 0) acc.sub(p);
  while (acc.overflow < 0) acc.add(p);
  return reduce(acc.v, p);
}

namespace {

U256 field_add(const U256& a, const U256& b) { return add(a, b, p256::prime()); }
U256 field_sub(const U256& a, const U256& b) { return sub(a, b, p256::prime()); }
U256 field_sqr(const U256& a) { return field_mul(a, a); }

// Jacobian projective point: (X, Y, Z) with x = X/Z^2, y = Y/Z^3.
struct Jacobian {
  U256 X, Y, Z;  // Z == 0 encodes the point at infinity

  static Jacobian infinity() { return {U256{1}, U256{1}, U256{0}}; }
  static Jacobian from_affine(const AffinePoint& p) {
    if (p.infinity) return infinity();
    return {p.x, p.y, U256{1}};
  }
  [[nodiscard]] bool is_infinity() const { return Z.is_zero(); }

  [[nodiscard]] AffinePoint to_affine() const {
    if (is_infinity()) return AffinePoint{};
    const U256 zinv = inverse(Z, p256::prime());
    const U256 zinv2 = field_sqr(zinv);
    const U256 zinv3 = field_mul(zinv2, zinv);
    return AffinePoint::make(field_mul(X, zinv2), field_mul(Y, zinv3));
  }
};

// dbl-2001-b: exploits a = -3.
Jacobian jacobian_double(const Jacobian& p) {
  if (p.is_infinity() || p.Y.is_zero()) return Jacobian::infinity();
  const U256 delta = field_sqr(p.Z);
  const U256 gamma = field_sqr(p.Y);
  const U256 beta = field_mul(p.X, gamma);
  const U256 t2 = field_mul(field_sub(p.X, delta), field_add(p.X, delta));
  const U256 alpha3 = field_add(field_add(t2, t2), t2);
  const U256 beta4 = field_add(field_add(beta, beta), field_add(beta, beta));
  const U256 beta8 = field_add(beta4, beta4);
  const U256 X3 = field_sub(field_sqr(alpha3), beta8);
  const U256 Z3 = field_sub(field_sub(field_sqr(field_add(p.Y, p.Z)), gamma), delta);
  const U256 gamma2 = field_sqr(gamma);
  const U256 gamma2_4 = field_add(field_add(gamma2, gamma2), field_add(gamma2, gamma2));
  const U256 Y3 = field_sub(field_mul(alpha3, field_sub(beta4, X3)), field_add(gamma2_4, gamma2_4));
  return {X3, Y3, Z3};
}

// add-2007-bl general Jacobian addition.
Jacobian jacobian_add(const Jacobian& p, const Jacobian& q) {
  if (p.is_infinity()) return q;
  if (q.is_infinity()) return p;
  const U256 Z1Z1 = field_sqr(p.Z);
  const U256 Z2Z2 = field_sqr(q.Z);
  const U256 U1 = field_mul(p.X, Z2Z2);
  const U256 U2 = field_mul(q.X, Z1Z1);
  const U256 S1 = field_mul(field_mul(p.Y, q.Z), Z2Z2);
  const U256 S2 = field_mul(field_mul(q.Y, p.Z), Z1Z1);
  const U256 H = field_sub(U2, U1);
  const U256 rr = field_add(field_sub(S2, S1), field_sub(S2, S1));
  if (H.is_zero()) {
    if (rr.is_zero()) return jacobian_double(p);
    return Jacobian::infinity();
  }
  const U256 I = field_sqr(field_add(H, H));
  const U256 J = field_mul(H, I);
  const U256 V = field_mul(U1, I);
  const U256 X3 = field_sub(field_sub(field_sqr(rr), J), field_add(V, V));
  const U256 S1J = field_mul(S1, J);
  const U256 Y3 = field_sub(field_mul(rr, field_sub(V, X3)), field_add(S1J, S1J));
  const U256 Z3 = field_mul(field_sub(field_sub(field_sqr(field_add(p.Z, q.Z)), Z1Z1), Z2Z2), H);
  return {X3, Y3, Z3};
}

Jacobian jacobian_multiply(const U256& k, const Jacobian& point) {
  Jacobian result = Jacobian::infinity();
  for (int i = k.bit_length() - 1; i >= 0; --i) {
    result = jacobian_double(result);
    if (k.bit(i)) result = jacobian_add(result, point);
  }
  return result;
}

// RFC 6979 HMAC-DRBG nonce, keyed on the private scalar and the raw digest.
U256 deterministic_nonce(const U256& d, const Digest& digest) {
  std::array<std::uint8_t, 32> V{}, K{};
  V.fill(0x01);
  K.fill(0x00);
  const Bytes x = d.to_bytes();
  const Bytes h(digest.begin(), digest.end());

  auto hmac = [](const std::array<std::uint8_t, 32>& key, const Bytes& msg) {
    return hmac_sha256(BytesView{key.data(), key.size()}, msg);
  };
  auto step = [&](std::uint8_t tag, bool include_data) {
    Bytes msg(V.begin(), V.end());
    msg.push_back(tag);
    if (include_data) {
      msg.insert(msg.end(), x.begin(), x.end());
      msg.insert(msg.end(), h.begin(), h.end());
    }
    K = hmac(K, msg);
    V = hmac(K, Bytes(V.begin(), V.end()));
  };
  step(0x00, true);
  step(0x01, true);
  const U256& n = p256::order();
  while (true) {
    V = hmac(K, Bytes(V.begin(), V.end()));
    const U256 k = U256::from_bytes(BytesView{V.data(), V.size()});
    if (!k.is_zero() && k < n) return k;
    step(0x00, false);
  }
}

}  // namespace

AffinePoint multiply(const U256& k, const AffinePoint& point) {
  return jacobian_multiply(reduce(k, p256::order()), Jacobian::from_affine(point)).to_affine();
}

AffinePoint double_multiply(const U256& u1, const U256& u2, const AffinePoint& q) {
  const Jacobian a = jacobian_multiply(u1, Jacobian::from_affine(p256_generator()));
  const Jacobian b = jacobian_multiply(u2, Jacobian::from_affine(q));
  return jacobian_add(a, b).to_affine();
}

EcdsaSignature sign_digest(const U256& d, const Digest& digest) {
  const U256& n = p256::order();
  const U256 e = reduce(U256::from_bytes(BytesView{digest.data(), digest.size()}), n);
  U256 k = deterministic_nonce(d, digest);
  while (true) {
    const AffinePoint R = multiply(k, p256_generator());
    const U256 r = reduce(R.x, n);
    if (!r.is_zero()) {
      const U256 s = mul(inverse(k, n), add(e, mul(r, d, n), n), n);
      if (!s.is_zero()) return EcdsaSignature{r, s};
    }
    k = add(k, U256{1}, n);
    if (k.is_zero()) k = U256{1};
  }
}

bool verify_digest(const AffinePoint& q, const Digest& digest, const EcdsaSignature& sig) {
  const U256& n = p256::order();
  if (sig.r.is_zero() || !(sig.r < n) || sig.s.is_zero() || !(sig.s < n)) return false;
  const U256 e = reduce(U256::from_bytes(BytesView{digest.data(), digest.size()}), n);
  const U256 w = inverse(sig.s, n);
  const AffinePoint R = double_multiply(mul(e, w, n), mul(sig.r, w, n), q);
  return !R.infinity && reduce(R.x, n) == sig.r;
}

}  // namespace ctwatch::crypto::oracle

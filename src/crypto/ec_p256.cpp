#include "ctwatch/crypto/ec_p256.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace ctwatch::crypto {

namespace {

// Arithmetic modulo an odd m > 2^255 on values in Montgomery form: a is held
// as a*R mod m with R = 2^256. Both P-256 moduli exceed 2^255, so every
// 256-bit integer is below 2m and reduces with one conditional subtraction.
// The modulus is a template argument so that its limbs are constants in mul.
template <U256 m>
class Montgomery {
 public:
  constexpr Montgomery() {
    // Newton's iteration doubles the correct low bits of m^-1 mod 2^64 per
    // step, from 3 bits (m * m == 1 mod 8 for odd m) to 96.
    std::uint64_t inv = m.limb[0];
    for (int i = 0; i < 5; ++i) inv *= 2 - m.limb[0] * inv;
    m0inv_ = 0 - inv;
    U256::sub(U256{}, m, one_);  // 2^256 - m == R mod m
    r2_ = one_;
    for (int i = 0; i < 256; ++i) r2_ = add(r2_, r2_);
    U256::sub(m, U256{2}, fermat_);
  }

  [[nodiscard]] constexpr const U256& modulus() const { return m; }
  [[nodiscard]] constexpr const U256& one() const { return one_; }

  /// Brings any 256-bit value below m.
  [[nodiscard]] constexpr U256 reduce(const U256& a) const {
    U256 t;
    return U256::sub(a, m, t) ? a : t;
  }
  [[nodiscard]] constexpr U256 add(const U256& a, const U256& b) const {
    U256 sum, reduced;
    const bool carry = U256::add(a, b, sum);
    const bool borrow = U256::sub(sum, m, reduced);
    return (carry || !borrow) ? reduced : sum;
  }
  [[nodiscard]] constexpr U256 sub(const U256& a, const U256& b) const {
    U256 diff;
    if (U256::sub(a, b, diff)) U256::add(diff, m, diff);
    return diff;
  }
  /// a * b * R^-1 mod m by coarsely integrated operand scanning (CIOS):
  /// 64-bit limbs, 128-bit products. Requires a, b < m.
  [[nodiscard]] constexpr U256 mul(const U256& a, const U256& b) const {
    using u128 = unsigned __int128;
    std::uint64_t t[6] = {};
#pragma GCC unroll 4
    for (std::size_t i = 0; i < 4; ++i) {
      u128 c = 0;
#pragma GCC unroll 4
      for (std::size_t j = 0; j < 4; ++j) {
        c = static_cast<u128>(a.limb[i]) * b.limb[j] + t[j] + static_cast<std::uint64_t>(c >> 64);
        t[j] = static_cast<std::uint64_t>(c);
      }
      c = static_cast<u128>(t[4]) + static_cast<std::uint64_t>(c >> 64);
      t[4] = static_cast<std::uint64_t>(c);
      t[5] = static_cast<std::uint64_t>(c >> 64);
      // Add q*m with q chosen to clear the low limb, then drop that limb.
      const std::uint64_t q = t[0] * m0inv_;
      c = static_cast<u128>(q) * m.limb[0] + t[0];
#pragma GCC unroll 3
      for (std::size_t j = 1; j < 4; ++j) {
        c = static_cast<u128>(q) * m.limb[j] + t[j] + static_cast<std::uint64_t>(c >> 64);
        t[j - 1] = static_cast<std::uint64_t>(c);
      }
      c = static_cast<u128>(t[4]) + static_cast<std::uint64_t>(c >> 64);
      t[3] = static_cast<std::uint64_t>(c);
      t[4] = t[5] + static_cast<std::uint64_t>(c >> 64);
    }
    // t < 2m here; one conditional subtraction finishes.
    const U256 r{t[0], t[1], t[2], t[3]};
    U256 reduced;
    const bool borrow = U256::sub(r, m, reduced);
    return (t[4] != 0 || !borrow) ? reduced : r;
  }
  [[nodiscard]] constexpr U256 sqr(const U256& a) const { return mul(a, a); }
  [[nodiscard]] constexpr U256 to_mont(const U256& a) const { return mul(reduce(a), r2_); }
  [[nodiscard]] constexpr U256 from_mont(const U256& a) const { return mul(a, U256{1}); }

  /// a^-1 as a^(m-2) (Fermat; m is prime), by a fixed 4-bit-window
  /// addition chain. Zero maps to zero.
  [[nodiscard]] U256 inv(const U256& a) const {
    std::array<U256, 16> powers;
    powers[0] = one_;
    for (std::size_t i = 1; i < powers.size(); ++i) powers[i] = mul(powers[i - 1], a);
    U256 r = one_;
    for (int i = 63; i >= 0; --i) {
      for (int s = 0; s < 4; ++s) r = sqr(r);
      const auto nibble = (fermat_.limb[static_cast<std::size_t>(i / 16)] >> (4 * (i % 16))) & 0xf;
      if (nibble != 0) r = mul(r, powers[nibble]);
    }
    return r;
  }

 private:
  std::uint64_t m0inv_ = 0;  // -m^-1 mod 2^64
  U256 one_;                 // R mod m
  U256 r2_;                  // R^2 mod m
  U256 fermat_;              // m - 2
};

constexpr Montgomery<U256{0xffffffffffffffff, 0x00000000ffffffff, 0, 0xffffffff00000001}> kFp;
constexpr Montgomery<U256{0xf3b9cac2fc632551, 0xbce6faada7179e84, 0xffffffffffffffff,
                          0xffffffff00000000}>
    kFn;
constexpr U256 kCoeffB{0x3bce3c3e27d2604b, 0x651d06b0cc53b0f6, 0xb3ebbd55769886bc,
                       0x5ac635d8aa3a93e7};
constexpr U256 kGx{0xf4a13945d898c296, 0x77037d812deb33a0, 0xf8bce6e563a440f2, 0x6b17d1f2e12c4247};
constexpr U256 kGy{0xcbb6406837bf51f5, 0x2bce33576b315ece, 0x8ee7eb4a7c0f9e16, 0x4fe342e2fe1a7f9b};

}  // namespace

namespace p256 {

const U256& prime() { return kFp.modulus(); }
const U256& order() { return kFn.modulus(); }
const U256& coeff_b() { return kCoeffB; }

U256 field_mul(const U256& a, const U256& b) { return kFp.mul(kFp.to_mont(a), kFp.reduce(b)); }
U256 field_sqr(const U256& a) { return field_mul(a, a); }
U256 field_inv(const U256& a) { return kFp.from_mont(kFp.inv(kFp.to_mont(a))); }
U256 scalar_mul(const U256& a, const U256& b) { return kFn.mul(kFn.to_mont(a), kFn.reduce(b)); }
U256 scalar_inv(const U256& a) { return kFn.from_mont(kFn.inv(kFn.to_mont(a))); }

}  // namespace p256

namespace {

// Points below hold their coordinates in Montgomery form mod p.

// A finite affine point.
struct Affine {
  U256 x, y;
};

// Jacobian point: x = X/Z^2, y = Y/Z^3; Z == 0 encodes the point at infinity.
struct Jacobian {
  U256 X, Y, Z;

  [[nodiscard]] bool is_infinity() const { return Z.is_zero(); }
};

constexpr Jacobian kInfinity{kFp.one(), kFp.one(), U256{}};
constexpr Affine kG{kFp.to_mont(kGx), kFp.to_mont(kGy)};
constexpr U256 kB = kFp.to_mont(kCoeffB);

U256 twice(const U256& a) { return kFp.add(a, a); }

Affine to_internal(const AffinePoint& p) { return {kFp.to_mont(p.x), kFp.to_mont(p.y)}; }
Jacobian from_affine(const Affine& a) { return {a.x, a.y, kFp.one()}; }
Affine negate(const Affine& a) { return {a.x, kFp.sub(U256{}, a.y)}; }
Jacobian negate(const Jacobian& p) { return {p.X, kFp.sub(U256{}, p.Y), p.Z}; }

AffinePoint to_affine(const Jacobian& p) {
  if (p.is_infinity()) return AffinePoint{};
  const U256 zinv = kFp.inv(p.Z);
  const U256 zinv2 = kFp.sqr(zinv);
  return AffinePoint::make(kFp.from_mont(kFp.mul(p.X, zinv2)),
                           kFp.from_mont(kFp.mul(p.Y, kFp.mul(zinv2, zinv))));
}

// dbl-2001-b: exploits a = -3.
Jacobian dbl(const Jacobian& p) {
  if (p.is_infinity() || p.Y.is_zero()) return kInfinity;
  const U256 delta = kFp.sqr(p.Z);
  const U256 gamma = kFp.sqr(p.Y);
  const U256 beta4 = twice(twice(kFp.mul(p.X, gamma)));
  const U256 t = kFp.mul(kFp.sub(p.X, delta), kFp.add(p.X, delta));
  const U256 alpha = kFp.add(twice(t), t);  // 3*(X-delta)*(X+delta)
  const U256 X3 = kFp.sub(kFp.sqr(alpha), twice(beta4));
  const U256 Z3 = kFp.sub(kFp.sub(kFp.sqr(kFp.add(p.Y, p.Z)), gamma), delta);
  const U256 Y3 = kFp.sub(kFp.mul(alpha, kFp.sub(beta4, X3)), twice(twice(twice(kFp.sqr(gamma)))));
  return {X3, Y3, Z3};
}

// add-2007-bl: general Jacobian addition.
Jacobian add(const Jacobian& p, const Jacobian& q) {
  if (p.is_infinity()) return q;
  if (q.is_infinity()) return p;
  const U256 Z1Z1 = kFp.sqr(p.Z);
  const U256 Z2Z2 = kFp.sqr(q.Z);
  const U256 U1 = kFp.mul(p.X, Z2Z2);
  const U256 S1 = kFp.mul(kFp.mul(p.Y, q.Z), Z2Z2);
  const U256 H = kFp.sub(kFp.mul(q.X, Z1Z1), U1);
  const U256 r = twice(kFp.sub(kFp.mul(kFp.mul(q.Y, p.Z), Z1Z1), S1));
  if (H.is_zero()) return r.is_zero() ? dbl(p) : kInfinity;
  const U256 I = kFp.sqr(twice(H));
  const U256 J = kFp.mul(H, I);
  const U256 V = kFp.mul(U1, I);
  const U256 X3 = kFp.sub(kFp.sub(kFp.sqr(r), J), twice(V));
  const U256 Y3 = kFp.sub(kFp.mul(r, kFp.sub(V, X3)), twice(kFp.mul(S1, J)));
  const U256 Z3 = kFp.mul(kFp.sub(kFp.sub(kFp.sqr(kFp.add(p.Z, q.Z)), Z1Z1), Z2Z2), H);
  return {X3, Y3, Z3};
}

// madd-2007-bl: Jacobian plus affine (Z2 == 1).
Jacobian add_mixed(const Jacobian& p, const Affine& q) {
  if (p.is_infinity()) return from_affine(q);
  const U256 Z1Z1 = kFp.sqr(p.Z);
  const U256 H = kFp.sub(kFp.mul(q.x, Z1Z1), p.X);
  const U256 r = twice(kFp.sub(kFp.mul(q.y, kFp.mul(p.Z, Z1Z1)), p.Y));
  if (H.is_zero()) return r.is_zero() ? dbl(p) : kInfinity;
  const U256 HH = kFp.sqr(H);
  const U256 I = twice(twice(HH));
  const U256 J = kFp.mul(H, I);
  const U256 V = kFp.mul(p.X, I);
  const U256 X3 = kFp.sub(kFp.sub(kFp.sqr(r), J), twice(V));
  const U256 Y3 = kFp.sub(kFp.mul(r, kFp.sub(V, X3)), twice(kFp.mul(p.Y, J)));
  const U256 Z3 = kFp.sub(kFp.sub(kFp.sqr(kFp.add(p.Z, H)), Z1Z1), HH);
  return {X3, Y3, Z3};
}

// Montgomery's trick: one field inversion normalises every point. All
// points must be finite.
std::vector<Affine> batch_to_affine(const std::vector<Jacobian>& points) {
  std::vector<U256> prefix(points.size());  // Z_0 * ... * Z_{i-1}
  U256 acc = kFp.one();
  for (std::size_t i = 0; i < points.size(); ++i) {
    prefix[i] = acc;
    acc = kFp.mul(acc, points[i].Z);
  }
  U256 inv = kFp.inv(acc);  // (Z_0 * ... * Z_i)^-1 at step i below
  std::vector<Affine> out(points.size());
  for (std::size_t i = points.size(); i-- > 0;) {
    const U256 zinv = kFp.mul(inv, prefix[i]);
    inv = kFp.mul(inv, points[i].Z);
    const U256 zinv2 = kFp.sqr(zinv);
    out[i] = {kFp.mul(points[i].X, zinv2), kFp.mul(points[i].Y, kFp.mul(zinv2, zinv))};
  }
  return out;
}

// Bits [pos, pos + width) of k, width <= 8; bits above 255 read as zero.
unsigned bits(const U256& k, int pos, int width) {
  if (pos >= 256) return 0;
  const auto limb = static_cast<std::size_t>(pos >> 6);
  const int shift = pos & 63;
  std::uint64_t v = k.limb[limb] >> shift;
  if (shift + width > 64 && limb < 3) v |= k.limb[limb + 1] << (64 - shift);
  return static_cast<unsigned>(v & ((1u << width) - 1));
}

// Fixed-base windows. k is recoded into 43 signed 6-bit digits d_i in
// [-31, 32] with k = sum d_i * 2^(6i); row i of a point P's table holds
// j * 2^(6i) * P for j = 1..32 in affine form. k*P is then at most 43 mixed
// additions and no doublings. The top row's digit reads only bits 252..255
// plus a carry, so it never carries out, for any 256-bit k. G has a table
// from first use; a verification key earns one by repeating (KeyTables).
constexpr int kWindow = 6;
constexpr int kRows = (256 + kWindow - 1) / kWindow;
constexpr int kCols = 1 << (kWindow - 1);

// 43 * 32 points * 64 bytes = 86 KiB.
using Table = std::vector<Affine>;

Table build_table(const Affine& p) {
  std::vector<Jacobian> points;
  points.reserve(kRows * kCols);
  Jacobian row_base = from_affine(p);
  for (int i = 0; i < kRows; ++i) {
    Jacobian multiple = row_base;
    for (int j = 0; j < kCols; ++j) {
      points.push_back(multiple);
      multiple = add(multiple, row_base);
    }
    for (int b = 0; b < kWindow; ++b) row_base = dbl(row_base);
  }
  return batch_to_affine(points);
}

const Table& base_table() {
  static const Table table = build_table(kG);
  return table;
}

// acc + k*P, where table is P's.
Jacobian add_table_sum(Jacobian acc, const U256& k, const Table& table) {
  unsigned carry = 0;
  for (int i = 0; i < kRows; ++i) {
    int digit = static_cast<int>(bits(k, i * kWindow, kWindow) + carry);
    carry = digit > kCols ? 1 : 0;
    digit -= static_cast<int>(carry) << kWindow;
    const Affine* row = &table[static_cast<std::size_t>(i * kCols)];
    if (digit > 0) acc = add_mixed(acc, row[digit - 1]);
    if (digit < 0) acc = add_mixed(acc, negate(row[-digit - 1]));
  }
  return acc;
}

Jacobian mul_base(const U256& k) { return add_table_sum(kInfinity, k, base_table()); }

// The process-wide verification key tables (admission rule in the header).
// A newcomer to a full tracker takes the least-seen key's slot with a count
// of one, not that key's count, so keys that do not repeat (a submitter
// rotating issuer keys) never reach a build. Tables are immutable and
// shared, so a verify that holds one is not disturbed when it is evicted.
class KeyTables {
 public:
  // Q's table if it has one, after counting this sighting of Q.
  std::shared_ptr<const Table> find(const AffinePoint& q) {
    {
      const std::lock_guard lock(mu_);
      for (Cached& cached : cached_) {
        if (cached.key == q) {
          cached.last_use = ++clock_;
          ++stats_.hits;
          return cached.table;
        }
      }
      if (!admit(q)) return nullptr;
    }
    auto table = std::make_shared<const Table>(build_table(to_internal(q)));
    const std::lock_guard lock(mu_);
    ++stats_.builds;
    if (cached_.size() == p256::kKeyTableCapacity) {
      const auto lru = std::min_element(
          cached_.begin(), cached_.end(),
          [](const Cached& a, const Cached& b) { return a.last_use < b.last_use; });
      cached_.erase(lru);
      ++stats_.evictions;
    }
    cached_.push_back({q, table, ++clock_});
    return table;
  }

  p256::KeyTableStats stats() {
    const std::lock_guard lock(mu_);
    p256::KeyTableStats out = stats_;
    out.cached = cached_.size();
    return out;
  }

 private:
  struct Cached {
    AffinePoint key;
    std::shared_ptr<const Table> table;
    std::uint64_t last_use;
  };
  struct Sighting {
    AffinePoint key;
    std::uint32_t count;
  };

  // Counts a sighting of Q; true (and Q leaves the tracker) when it is the
  // one that earns Q its table.
  bool admit(const AffinePoint& q) {
    Sighting* least = nullptr;
    for (Sighting& sighting : sightings_) {
      if (sighting.key == q) {
        if (++sighting.count < p256::kKeyTableAdmitAfter) return false;
        sighting = sightings_.back();
        sightings_.pop_back();
        return true;
      }
      if (least == nullptr || sighting.count < least->count) least = &sighting;
    }
    if (sightings_.size() < p256::kKeyTableTracked) {
      sightings_.push_back({q, 1});
    } else {
      *least = {q, 1};
    }
    return false;
  }

  std::mutex mu_;
  std::vector<Cached> cached_;
  std::vector<Sighting> sightings_;
  std::uint64_t clock_ = 0;
  p256::KeyTableStats stats_;
};

KeyTables& key_tables() {
  static KeyTables tables;
  return tables;
}

// Width-5 NAF of k: every digit is 0 or odd in [-15, 15], at most one of
// any 5 consecutive digits is nonzero, and k = sum digit_i * 2^i.
std::array<std::int8_t, 257> wnaf5(const U256& k) {
  std::array<std::int8_t, 257> digits{};
  unsigned carry = 0;
  for (int i = 0; i < 257;) {
    if (bits(k, i, 1) == carry) {  // even: digit 0, carry unchanged
      ++i;
      continue;
    }
    int word = static_cast<int>(bits(k, i, 5) + carry);  // odd, in [1, 31]
    carry = word > 16 ? 1 : 0;
    word -= static_cast<int>(carry) << 5;
    digits[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(word);
    i += 5;
  }
  return digits;
}

// k*Q for an arbitrary point by width-5 wNAF over the odd multiples
// Q, 3Q, ..., 15Q.
Jacobian mul_wnaf(const U256& k, const Affine& q) {
  std::array<Jacobian, 8> odd;
  odd[0] = from_affine(q);
  const Jacobian q2 = dbl(odd[0]);
  for (std::size_t i = 1; i < odd.size(); ++i) odd[i] = add(odd[i - 1], q2);
  const auto digits = wnaf5(k);
  Jacobian acc = kInfinity;
  for (int i = 256; i >= 0; --i) {
    acc = dbl(acc);
    const int d = digits[static_cast<std::size_t>(i)];
    if (d > 0) acc = add(acc, odd[static_cast<std::size_t>(d / 2)]);
    if (d < 0) acc = add(acc, negate(odd[static_cast<std::size_t>(-d / 2)]));
  }
  return acc;
}

// u1*G + u2*Q: two table sums once Q has earned a table, else the G table
// sum plus a wNAF.
Jacobian double_mul(const U256& u1, const U256& u2, const AffinePoint& q) {
  const Jacobian a = mul_base(u1);
  if (q.infinity) return a;
  if (const auto table = key_tables().find(q)) return add_table_sum(a, u2, *table);
  return add(a, mul_wnaf(u2, to_internal(q)));
}

// x(R) mod n == r without inverting Z: x(R) = X/Z^2 is below p < 2n, so it
// is r or r + n, and the latter only when r + n < p.
bool x_mod_n_equals(const Jacobian& R, const U256& r) {
  if (R.is_infinity()) return false;
  const U256 zz = kFp.sqr(R.Z);
  if (kFp.mul(kFp.to_mont(r), zz) == R.X) return true;
  U256 r_plus_n;
  if (U256::add(r, kFn.modulus(), r_plus_n) || !(r_plus_n < kFp.modulus())) return false;
  return kFp.mul(kFp.to_mont(r_plus_n), zz) == R.X;
}

}  // namespace

namespace p256 {

KeyTableStats key_table_stats() { return key_tables().stats(); }

bool jacobian_x_mod_n_equals(const U256& X, const U256& Z, const U256& r) {
  return x_mod_n_equals(Jacobian{kFp.to_mont(X), kFp.one(), kFp.to_mont(Z)}, r);
}

}  // namespace p256

bool AffinePoint::on_curve() const {
  if (infinity) return true;
  if (!(x < kFp.modulus()) || !(y < kFp.modulus())) return false;
  // y^2 == x^3 - 3x + b (mod p)
  const Affine m = to_internal(*this);
  const U256 x3 = kFp.mul(kFp.sqr(m.x), m.x);
  const U256 rhs = kFp.add(kFp.sub(x3, kFp.add(twice(m.x), m.x)), kB);
  return kFp.sqr(m.y) == rhs;
}

Bytes AffinePoint::encode() const {
  if (infinity) return Bytes{0x00};
  Bytes out;
  out.reserve(65);
  out.push_back(0x04);
  const Bytes xb = x.to_bytes();
  const Bytes yb = y.to_bytes();
  out.insert(out.end(), xb.begin(), xb.end());
  out.insert(out.end(), yb.begin(), yb.end());
  return out;
}

AffinePoint AffinePoint::decode(BytesView data) {
  if (data.size() == 1 && data[0] == 0x00) return AffinePoint{};
  if (data.size() != 65 || data[0] != 0x04) {
    throw std::invalid_argument("AffinePoint::decode: not an uncompressed SEC1 point");
  }
  const AffinePoint p =
      AffinePoint::make(U256::from_bytes(data.subspan(1, 32)), U256::from_bytes(data.subspan(33, 32)));
  if (!p.on_curve()) throw std::invalid_argument("AffinePoint::decode: point not on curve");
  return p;
}

const AffinePoint& p256_generator() {
  static const AffinePoint g = AffinePoint::make(kGx, kGy);
  return g;
}

AffinePoint p256_multiply(const U256& k, const AffinePoint& point) {
  if (point.infinity) return AffinePoint{};
  if (point == p256_generator()) return to_affine(mul_base(k));
  return to_affine(mul_wnaf(k, to_internal(point)));
}

AffinePoint p256_double_multiply(const U256& u1, const U256& u2, const AffinePoint& q) {
  return to_affine(double_mul(u1, u2, q));
}

AffinePoint p256_add(const AffinePoint& a, const AffinePoint& b) {
  if (a.infinity) return b;
  if (b.infinity) return a;
  return to_affine(add_mixed(from_affine(to_internal(a)), to_internal(b)));
}

Bytes EcdsaSignature::to_bytes() const {
  Bytes out = r.to_bytes();
  const Bytes sb = s.to_bytes();
  out.insert(out.end(), sb.begin(), sb.end());
  return out;
}

EcdsaSignature EcdsaSignature::from_bytes(BytesView data) {
  if (data.size() != 64) throw std::invalid_argument("EcdsaSignature::from_bytes: need 64 bytes");
  return EcdsaSignature{U256::from_bytes(data.subspan(0, 32)), U256::from_bytes(data.subspan(32, 32))};
}

EcdsaKeyPair EcdsaKeyPair::derive(const std::string& seed_label) {
  // HKDF from the label; loop until the candidate lands in [1, n-1].
  const Bytes label = to_bytes(seed_label);
  const Digest prk = hmac_sha256(to_bytes("ctwatch-ecdsa-keygen-v1"), label);
  for (std::uint8_t attempt = 0;; ++attempt) {
    Bytes info = to_bytes("key");
    info.push_back(attempt);
    const Bytes candidate = hkdf_expand(BytesView{prk.data(), prk.size()}, info, 32);
    const U256 d = U256::from_bytes(candidate);
    if (!d.is_zero() && d < p256::order()) return from_private(d);
  }
}

EcdsaKeyPair EcdsaKeyPair::from_private(const U256& d) {
  if (d.is_zero() || !(d < p256::order())) {
    throw std::invalid_argument("EcdsaKeyPair: private scalar out of range");
  }
  return EcdsaKeyPair{d, to_affine(mul_base(d))};
}

namespace {

// Digest -> scalar: bits2int (the identity for SHA-256 on a 256-bit
// curve), then mod n.
U256 digest_to_scalar(const Digest& digest) {
  return kFn.reduce(U256::from_bytes(BytesView{digest.data(), digest.size()}));
}

// RFC 6979 §3.2 deterministic nonce (HMAC-DRBG). The DRBG is seeded with
// int2octets(d) || bits2octets(h), where bits2octets(h) is the digest
// scalar e = bits2int(h) mod n as 32 bytes.
U256 deterministic_nonce(const U256& d, const U256& e) {
  std::array<std::uint8_t, 32> V{}, K{};
  V.fill(0x01);
  K.fill(0x00);
  const Bytes x = d.to_bytes();
  const Bytes h = e.to_bytes();

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

EcdsaSignature EcdsaKeyPair::sign_digest(const Digest& digest) const {
  const U256 e = digest_to_scalar(digest);
  U256 k = deterministic_nonce(d_, e);
  while (true) {
    const U256 r = kFn.reduce(to_affine(mul_base(k)).x);
    if (!r.is_zero()) {
      const U256 s = p256::scalar_mul(p256::scalar_inv(k), kFn.add(e, p256::scalar_mul(r, d_)));
      if (!s.is_zero()) return EcdsaSignature{r, s};
    }
    // Exceedingly unlikely; perturb the nonce deterministically and retry.
    k = kFn.add(k, U256{1});
    if (k.is_zero()) k = U256{1};
  }
}

EcdsaSignature EcdsaKeyPair::sign(BytesView message) const {
  return sign_digest(Sha256::hash(message));
}

bool ecdsa_verify_digest(const AffinePoint& public_key, const Digest& digest,
                         const EcdsaSignature& sig) {
  const U256& n = p256::order();
  if (public_key.infinity || !public_key.on_curve()) return false;
  if (sig.r.is_zero() || !(sig.r < n) || sig.s.is_zero() || !(sig.s < n)) return false;
  const U256 e = digest_to_scalar(digest);
  const U256 w = p256::scalar_inv(sig.s);
  return x_mod_n_equals(
      double_mul(p256::scalar_mul(e, w), p256::scalar_mul(sig.r, w), public_key), sig.r);
}

bool ecdsa_verify(const AffinePoint& public_key, BytesView message, const EcdsaSignature& sig) {
  return ecdsa_verify_digest(public_key, Sha256::hash(message), sig);
}

}  // namespace ctwatch::crypto

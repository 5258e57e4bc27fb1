#include "ctwatch/crypto/u256.hpp"

#include <stdexcept>

namespace ctwatch::crypto {

namespace {
int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw std::invalid_argument("U256: invalid hex digit");
}
}  // namespace

U256 U256::from_hex(const std::string& hex) {
  if (hex.empty() || hex.size() > 64) throw std::invalid_argument("U256::from_hex: bad length");
  U256 out;
  int shift = 0;
  std::size_t limb_idx = 0;
  for (auto it = hex.rbegin(); it != hex.rend(); ++it) {
    const auto v = static_cast<std::uint64_t>(hex_digit(*it));
    out.limb[limb_idx] |= v << shift;
    shift += 4;
    if (shift == 64) {
      shift = 0;
      ++limb_idx;
    }
  }
  return out;
}

U256 U256::from_bytes(BytesView be32) {
  if (be32.size() != 32) throw std::invalid_argument("U256::from_bytes: need 32 bytes");
  U256 out;
  for (int i = 0; i < 32; ++i) {
    const int limb_idx = (31 - i) / 8;
    const int byte_idx = (31 - i) % 8;
    out.limb[static_cast<std::size_t>(limb_idx)] |=
        static_cast<std::uint64_t>(be32[static_cast<std::size_t>(i)]) << (8 * byte_idx);
  }
  return out;
}

U256 U256::from_bytes_truncated(BytesView be) {
  Bytes padded(32, 0);
  const std::size_t take = std::min<std::size_t>(32, be.size());
  // Keep the *most significant* 32 bytes if longer; right-align if shorter.
  for (std::size_t i = 0; i < take; ++i) {
    padded[32 - take + i] = be[be.size() > 32 ? i : be.size() - take + i];
  }
  return from_bytes(padded);
}

Bytes U256::to_bytes() const {
  Bytes out(32);
  for (int i = 0; i < 32; ++i) {
    const int limb_idx = (31 - i) / 8;
    const int byte_idx = (31 - i) % 8;
    out[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(
        limb[static_cast<std::size_t>(limb_idx)] >> (8 * byte_idx));
  }
  return out;
}

std::string U256::to_hex() const { return hex_encode(to_bytes()); }

int U256::bit_length() const {
  for (int i = 3; i >= 0; --i) {
    if (limb[static_cast<std::size_t>(i)] != 0) {
      return 64 * i + 64 - __builtin_clzll(limb[static_cast<std::size_t>(i)]);
    }
  }
  return 0;
}

}  // namespace ctwatch::crypto

#include "ctwatch/asn1/der.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "ctwatch/obs/log.hpp"
#include "ctwatch/util/strings.hpp"

namespace ctwatch::asn1 {

namespace {

// DER parse failures surface as exceptions to the caller; the default-
// silent structured log adds the byte offset for pipeline debugging.
[[noreturn]] void parse_error(const char* reason, std::size_t offset) {
  obs::log_debug("asn1.der", "parse error", {{"reason", reason}, {"offset", offset}});
  throw std::invalid_argument(std::string("DER parser: ") + reason);
}

}  // namespace

Oid Oid::parse(const std::string& dotted) {
  Oid oid;
  for (const std::string& part : split(dotted, '.')) {
    if (part.empty()) throw std::invalid_argument("Oid::parse: empty arc in " + dotted);
    std::uint64_t value = 0;
    for (char c : part) {
      if (c < '0' || c > '9') throw std::invalid_argument("Oid::parse: non-digit in " + dotted);
      value = value * 10 + static_cast<std::uint64_t>(c - '0');
      if (value > 0xffffffffULL) throw std::invalid_argument("Oid::parse: arc too large");
    }
    oid.arcs.push_back(static_cast<std::uint32_t>(value));
  }
  if (oid.arcs.size() < 2) throw std::invalid_argument("Oid::parse: need at least two arcs");
  if (oid.arcs[0] > 2 || (oid.arcs[0] < 2 && oid.arcs[1] > 39)) {
    throw std::invalid_argument("Oid::parse: invalid leading arcs");
  }
  return oid;
}

std::string Oid::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    if (i > 0) out.push_back('.');
    out += std::to_string(arcs[i]);
  }
  return out;
}

Bytes encode_length(std::size_t length) {
  Bytes out;
  if (length < 0x80) {
    out.push_back(static_cast<std::uint8_t>(length));
    return out;
  }
  Bytes digits;
  while (length > 0) {
    digits.push_back(static_cast<std::uint8_t>(length & 0xff));
    length >>= 8;
  }
  out.push_back(static_cast<std::uint8_t>(0x80 | digits.size()));
  out.insert(out.end(), digits.rbegin(), digits.rend());
  return out;
}

Bytes tlv(std::uint8_t tag, BytesView value) {
  Bytes out;
  out.reserve(value.size() + 6);
  out.push_back(tag);
  const Bytes len = encode_length(value.size());
  out.insert(out.end(), len.begin(), len.end());
  out.insert(out.end(), value.begin(), value.end());
  return out;
}

Bytes encode_boolean(bool value) {
  const std::uint8_t body = value ? 0xff : 0x00;
  return tlv(kTagBoolean, BytesView{&body, 1});
}

Bytes encode_integer(std::int64_t value) {
  // Minimal two's-complement big-endian encoding.
  Bytes body;
  bool more = true;
  while (more) {
    const auto byte = static_cast<std::uint8_t>(value & 0xff);
    value >>= 8;
    body.push_back(byte);
    // Stop when remaining bits are a pure sign extension of this byte.
    more = !((value == 0 && !(byte & 0x80)) || (value == -1 && (byte & 0x80)));
  }
  std::reverse(body.begin(), body.end());
  return tlv(kTagInteger, body);
}

Bytes encode_integer_unsigned(BytesView magnitude) {
  std::size_t start = 0;
  while (start < magnitude.size() && magnitude[start] == 0) ++start;
  Bytes body;
  if (start == magnitude.size()) {
    body.push_back(0);
  } else {
    if (magnitude[start] & 0x80) body.push_back(0);
    body.insert(body.end(), magnitude.begin() + static_cast<std::ptrdiff_t>(start),
                magnitude.end());
  }
  return tlv(kTagInteger, body);
}

Bytes encode_octet_string(BytesView value) { return tlv(kTagOctetString, value); }

Bytes encode_bit_string(BytesView value) {
  Bytes body;
  body.reserve(value.size() + 1);
  body.push_back(0);  // no unused bits
  body.insert(body.end(), value.begin(), value.end());
  return tlv(kTagBitString, body);
}

Bytes encode_null() { return tlv(kTagNull, BytesView{}); }

Bytes encode_oid(const Oid& oid) {
  if (oid.arcs.size() < 2) throw std::invalid_argument("encode_oid: need at least two arcs");
  Bytes body;
  auto push_base128 = [&body](std::uint64_t v) {
    std::uint8_t chunks[10];
    int n = 0;
    do {
      chunks[n++] = static_cast<std::uint8_t>(v & 0x7f);
      v >>= 7;
    } while (v > 0);
    for (int i = n - 1; i >= 0; --i) {
      body.push_back(static_cast<std::uint8_t>(chunks[i] | (i > 0 ? 0x80 : 0x00)));
    }
  };
  push_base128(static_cast<std::uint64_t>(oid.arcs[0]) * 40 + oid.arcs[1]);
  for (std::size_t i = 2; i < oid.arcs.size(); ++i) push_base128(oid.arcs[i]);
  return tlv(kTagOid, body);
}

Bytes encode_utf8_string(const std::string& value) {
  return tlv(kTagUtf8String, to_bytes(value));
}

Bytes encode_printable_string(const std::string& value) {
  return tlv(kTagPrintableString, to_bytes(value));
}

Bytes encode_ia5_string(const std::string& value) { return tlv(kTagIa5String, to_bytes(value)); }

Bytes encode_utc_time(SimTime t) {
  const CivilTime c = t.civil();
  if (c.year < 1950 || c.year > 2049) {
    throw std::invalid_argument("encode_utc_time: year outside UTCTime range");
  }
  char buf[16];
  std::snprintf(buf, sizeof buf, "%02d%02d%02d%02d%02d%02dZ", c.year % 100, c.month, c.day,
                c.hour, c.minute, c.second);
  return tlv(kTagUtcTime, to_bytes(buf));
}

Bytes encode_generalized_time(SimTime t) {
  const CivilTime c = t.civil();
  char buf[20];
  std::snprintf(buf, sizeof buf, "%04d%02d%02d%02d%02d%02dZ", c.year, c.month, c.day, c.hour,
                c.minute, c.second);
  return tlv(kTagGeneralizedTime, to_bytes(buf));
}

Bytes encode_sequence(const std::vector<Bytes>& elements) {
  Bytes body;
  for (const Bytes& e : elements) body.insert(body.end(), e.begin(), e.end());
  return tlv(kTagSequence, body);
}

Bytes encode_set_of(std::vector<Bytes> elements) {
  std::sort(elements.begin(), elements.end());
  Bytes body;
  for (const Bytes& e : elements) body.insert(body.end(), e.begin(), e.end());
  return tlv(kTagSet, body);
}

Bytes encode_explicit(unsigned n, BytesView inner) {
  return tlv(context_tag(n, /*constructed=*/true), inner);
}

Tlv Parser::next() {
  if (done()) parse_error("input exhausted", pos_);
  const std::size_t start = pos_;
  const std::uint8_t tag = data_[pos_++];
  if ((tag & 0x1f) == 0x1f) parse_error("multi-byte tags unsupported", start);
  if (pos_ >= data_.size()) parse_error("truncated length", start);
  std::size_t length = 0;
  const std::uint8_t first = data_[pos_++];
  if (first < 0x80) {
    length = first;
  } else {
    const std::size_t count = first & 0x7f;
    if (count == 0 || count > sizeof(std::size_t)) {
      parse_error("unsupported length form", start);
    }
    if (count > data_.size() - pos_) parse_error("truncated length", start);
    // DER forbids leading zero octets as well as long forms below 0x80.
    if (data_[pos_] == 0) parse_error("non-minimal length", start);
    for (std::size_t i = 0; i < count; ++i) length = length << 8 | data_[pos_++];
    if (length < 0x80) parse_error("non-minimal length", start);
  }
  // Compared against the remaining bytes: pos_ + length could wrap.
  if (length > data_.size() - pos_) parse_error("truncated value", start);
  Tlv out;
  out.tag = tag;
  out.value = data_.subspan(pos_, length);
  out.raw = data_.subspan(start, pos_ + length - start);
  pos_ += length;
  return out;
}

Tlv Parser::expect(std::uint8_t tag) {
  const Tlv t = next();
  if (t.tag != tag) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "DER parser: expected tag 0x%02x, got 0x%02x", tag, t.tag);
    obs::log_debug("asn1.der", "tag mismatch", {{"expected", tag}, {"got", t.tag}});
    throw std::invalid_argument(buf);
  }
  return t;
}

std::uint8_t Parser::peek_tag() const { return done() ? 0 : data_[pos_]; }

bool decode_boolean(const Tlv& t) {
  if (t.tag != kTagBoolean || t.value.size() != 1) {
    throw std::invalid_argument("decode_boolean: not a BOOLEAN");
  }
  return t.value[0] != 0;
}

std::int64_t decode_integer(const Tlv& t) {
  if (t.tag != kTagInteger || t.value.empty() || t.value.size() > 8) {
    throw std::invalid_argument("decode_integer: not a small INTEGER");
  }
  std::int64_t v = (t.value[0] & 0x80) ? -1 : 0;
  for (std::uint8_t b : t.value) v = v << 8 | b;
  return v;
}

Bytes decode_integer_unsigned(const Tlv& t) {
  if (t.tag != kTagInteger || t.value.empty()) {
    throw std::invalid_argument("decode_integer_unsigned: not an INTEGER");
  }
  if (t.value[0] & 0x80) throw std::invalid_argument("decode_integer_unsigned: negative");
  std::size_t start = 0;
  while (start + 1 < t.value.size() && t.value[start] == 0) ++start;
  return Bytes(t.value.begin() + static_cast<std::ptrdiff_t>(start), t.value.end());
}

Oid decode_oid(const Tlv& t) {
  if (t.tag != kTagOid || t.value.empty()) throw std::invalid_argument("decode_oid: not an OID");
  Oid oid;
  std::uint64_t acc = 0;
  bool first_arc = true;
  for (std::size_t i = 0; i < t.value.size(); ++i) {
    acc = acc << 7 | (t.value[i] & 0x7f);
    if (acc > 0xffffffffULL) throw std::invalid_argument("decode_oid: arc too large");
    if (!(t.value[i] & 0x80)) {
      if (first_arc) {
        const std::uint32_t combined = static_cast<std::uint32_t>(acc);
        const std::uint32_t a0 = combined < 80 ? combined / 40 : 2;
        oid.arcs.push_back(a0);
        oid.arcs.push_back(combined - a0 * 40);
        first_arc = false;
      } else {
        oid.arcs.push_back(static_cast<std::uint32_t>(acc));
      }
      acc = 0;
    }
  }
  if (t.value.back() & 0x80) throw std::invalid_argument("decode_oid: truncated arc");
  return oid;
}

std::string decode_string(const Tlv& t) {
  if (t.tag != kTagUtf8String && t.tag != kTagPrintableString && t.tag != kTagIa5String) {
    throw std::invalid_argument("decode_string: not a string type");
  }
  return to_string(t.value);
}

SimTime decode_time(const Tlv& t) {
  const std::string s = to_string(t.value);
  CivilTime c;
  if (t.tag == kTagUtcTime) {
    if (s.size() != 13 || s.back() != 'Z') throw std::invalid_argument("decode_time: bad UTCTime");
    const int yy = std::stoi(s.substr(0, 2));
    c.year = yy >= 50 ? 1900 + yy : 2000 + yy;
    c.month = std::stoi(s.substr(2, 2));
    c.day = std::stoi(s.substr(4, 2));
    c.hour = std::stoi(s.substr(6, 2));
    c.minute = std::stoi(s.substr(8, 2));
    c.second = std::stoi(s.substr(10, 2));
  } else if (t.tag == kTagGeneralizedTime) {
    if (s.size() != 15 || s.back() != 'Z') {
      throw std::invalid_argument("decode_time: bad GeneralizedTime");
    }
    c.year = std::stoi(s.substr(0, 4));
    c.month = std::stoi(s.substr(4, 2));
    c.day = std::stoi(s.substr(6, 2));
    c.hour = std::stoi(s.substr(8, 2));
    c.minute = std::stoi(s.substr(10, 2));
    c.second = std::stoi(s.substr(12, 2));
  } else {
    throw std::invalid_argument("decode_time: not a time type");
  }
  return SimTime::from_civil(c);
}

BytesView decode_bit_string(const Tlv& t) {
  if (t.tag != kTagBitString || t.value.empty() || t.value[0] != 0) {
    throw std::invalid_argument("decode_bit_string: unsupported BIT STRING");
  }
  return t.value.subspan(1);
}

}  // namespace ctwatch::asn1

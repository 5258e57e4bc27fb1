#include <gtest/gtest.h>

#include "ctwatch/asn1/der.hpp"

namespace ctwatch::asn1 {
namespace {

// ---------- primitives ----------

TEST(DerTest, ShortLengthForm) {
  EXPECT_EQ(encode_length(0), Bytes{0x00});
  EXPECT_EQ(encode_length(127), Bytes{0x7f});
}

TEST(DerTest, LongLengthForm) {
  EXPECT_EQ(encode_length(128), (Bytes{0x81, 0x80}));
  EXPECT_EQ(encode_length(256), (Bytes{0x82, 0x01, 0x00}));
  EXPECT_EQ(encode_length(65536), (Bytes{0x83, 0x01, 0x00, 0x00}));
}

TEST(DerTest, BooleanEncoding) {
  EXPECT_EQ(encode_boolean(true), (Bytes{0x01, 0x01, 0xff}));
  EXPECT_EQ(encode_boolean(false), (Bytes{0x01, 0x01, 0x00}));
}

TEST(DerTest, IntegerMinimalEncoding) {
  EXPECT_EQ(encode_integer(0), (Bytes{0x02, 0x01, 0x00}));
  EXPECT_EQ(encode_integer(127), (Bytes{0x02, 0x01, 0x7f}));
  // 128 needs a leading zero byte in two's complement.
  EXPECT_EQ(encode_integer(128), (Bytes{0x02, 0x02, 0x00, 0x80}));
  EXPECT_EQ(encode_integer(256), (Bytes{0x02, 0x02, 0x01, 0x00}));
  EXPECT_EQ(encode_integer(-1), (Bytes{0x02, 0x01, 0xff}));
  EXPECT_EQ(encode_integer(-128), (Bytes{0x02, 0x01, 0x80}));
  EXPECT_EQ(encode_integer(-129), (Bytes{0x02, 0x02, 0xff, 0x7f}));
}

TEST(DerTest, IntegerRoundTripSweep) {
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1}, std::int64_t{127},
        std::int64_t{128}, std::int64_t{-127}, std::int64_t{-128}, std::int64_t{-129},
        std::int64_t{65535}, std::int64_t{1} << 40, -(std::int64_t{1} << 40),
        std::int64_t{0x7fffffffffffffff}}) {
    const Bytes der = encode_integer(v);
    Parser parser{BytesView{der}};
    EXPECT_EQ(decode_integer(parser.next()), v) << v;
  }
}

TEST(DerTest, UnsignedIntegerAddsLeadingZero) {
  const Bytes magnitude{0x80, 0x01};
  const Bytes der = encode_integer_unsigned(magnitude);
  EXPECT_EQ(der, (Bytes{0x02, 0x03, 0x00, 0x80, 0x01}));
  Parser parser(der);
  EXPECT_EQ(decode_integer_unsigned(parser.next()), magnitude);
}

TEST(DerTest, UnsignedIntegerStripsLeadingZeros) {
  const Bytes magnitude{0x00, 0x00, 0x01, 0x02};
  const Bytes der = encode_integer_unsigned(magnitude);
  Parser parser(der);
  EXPECT_EQ(decode_integer_unsigned(parser.next()), (Bytes{0x01, 0x02}));
}

TEST(DerTest, UnsignedIntegerZero) {
  const Bytes der = encode_integer_unsigned(Bytes{});
  EXPECT_EQ(der, (Bytes{0x02, 0x01, 0x00}));
}

TEST(DerTest, DecodeIntegerRejectsNegativeAsUnsigned) {
  const Bytes der = encode_integer(-5);
  Parser parser(der);
  EXPECT_THROW(decode_integer_unsigned(parser.next()), std::invalid_argument);
}

TEST(DerTest, OctetStringRoundTrip) {
  const Bytes payload{0xde, 0xad, 0xbe, 0xef};
  const Bytes der = encode_octet_string(payload);
  Parser parser(der);
  const Tlv tlv = parser.expect(kTagOctetString);
  EXPECT_EQ(Bytes(tlv.value.begin(), tlv.value.end()), payload);
}

TEST(DerTest, BitStringRoundTrip) {
  const Bytes payload{0x01, 0x02, 0x03};
  const Bytes der = encode_bit_string(payload);
  Parser parser(der);
  const BytesView decoded = decode_bit_string(parser.next());
  EXPECT_EQ(Bytes(decoded.begin(), decoded.end()), payload);
}

TEST(DerTest, NullEncoding) { EXPECT_EQ(encode_null(), (Bytes{0x05, 0x00})); }

// ---------- OIDs ----------

TEST(OidTest, ParseAndToString) {
  const Oid oid = Oid::parse("1.2.840.10045.4.3.2");
  EXPECT_EQ(oid.to_string(), "1.2.840.10045.4.3.2");
}

TEST(OidTest, ParseRejectsMalformed) {
  EXPECT_THROW(Oid::parse(""), std::invalid_argument);
  EXPECT_THROW(Oid::parse("1"), std::invalid_argument);
  EXPECT_THROW(Oid::parse("1..2"), std::invalid_argument);
  EXPECT_THROW(Oid::parse("1.a.2"), std::invalid_argument);
  EXPECT_THROW(Oid::parse("3.1"), std::invalid_argument);   // first arc <= 2
  EXPECT_THROW(Oid::parse("1.40"), std::invalid_argument);  // second arc <= 39 for roots 0/1
}

TEST(OidTest, KnownEncoding) {
  // 1.2.840.113549 is the classic RSA arc with a known DER encoding.
  const Bytes der = encode_oid(Oid::parse("1.2.840.113549"));
  EXPECT_EQ(der, (Bytes{0x06, 0x06, 0x2a, 0x86, 0x48, 0x86, 0xf7, 0x0d}));
}

TEST(OidTest, EncodeDecodeRoundTripSweep) {
  for (const char* text : {"1.2.3", "2.5.29.17", "1.3.6.1.4.1.11129.2.4.2",
                           "2.5.4.3", "0.9.2342.19200300.100.1.25"}) {
    const Bytes der = encode_oid(Oid::parse(text));
    Parser parser(der);
    EXPECT_EQ(decode_oid(parser.next()).to_string(), text);
  }
}

// ---------- strings & time ----------

TEST(DerTest, StringTypesRoundTrip) {
  const Bytes utf8 = encode_utf8_string("Let's Encrypt");
  Parser p1(utf8);
  EXPECT_EQ(decode_string(p1.next()), "Let's Encrypt");
  const Bytes printable = encode_printable_string("US");
  Parser p2(printable);
  EXPECT_EQ(decode_string(p2.next()), "US");
  const Bytes ia5 = encode_ia5_string("www.example.org");
  Parser p3(ia5);
  EXPECT_EQ(decode_string(p3.next()), "www.example.org");
}

TEST(DerTest, UtcTimeRoundTrip) {
  const SimTime t = SimTime::parse("2018-04-18 10:30:00");
  const Bytes der = encode_utc_time(t);
  Parser parser(der);
  EXPECT_EQ(decode_time(parser.next()), t);
}

TEST(DerTest, UtcTimeCenturyWindow) {
  // 1999 encodes as "99...", 2001 as "01..."; both must decode correctly.
  for (const char* date : {"1999-12-31 23:59:59", "2001-01-01 00:00:00"}) {
    const SimTime t = SimTime::parse(date);
    const Bytes der = encode_utc_time(t);
    Parser parser(der);
    EXPECT_EQ(decode_time(parser.next()).datetime_string(), date);
  }
}

TEST(DerTest, UtcTimeRejectsOutOfRangeYear) {
  EXPECT_THROW(encode_utc_time(SimTime::parse("2051-01-01")), std::invalid_argument);
}

TEST(DerTest, GeneralizedTimeRoundTrip) {
  const SimTime t = SimTime::parse("2051-06-15 08:00:01");
  const Bytes der = encode_generalized_time(t);
  Parser parser(der);
  EXPECT_EQ(decode_time(parser.next()), t);
}

// ---------- composite ----------

TEST(DerTest, SequencePreservesOrder) {
  const Bytes der = encode_sequence({encode_integer(2), encode_integer(1)});
  Parser outer(der);
  Parser inner(outer.expect(kTagSequence).value);
  EXPECT_EQ(decode_integer(inner.next()), 2);
  EXPECT_EQ(decode_integer(inner.next()), 1);
  EXPECT_TRUE(inner.done());
}

TEST(DerTest, SetOfSortsElements) {
  // DER SET OF requires canonical (bytewise) element ordering.
  const Bytes der = encode_set_of({encode_integer(300), encode_integer(2)});
  Parser outer(der);
  Parser inner(outer.expect(kTagSet).value);
  EXPECT_EQ(decode_integer(inner.next()), 2);
  EXPECT_EQ(decode_integer(inner.next()), 300);
}

TEST(DerTest, ExplicitTagging) {
  const Bytes der = encode_explicit(3, encode_integer(7));
  Parser outer(der);
  const Tlv tlv = outer.expect(context_tag(3, true));
  Parser inner(tlv.value);
  EXPECT_EQ(decode_integer(inner.next()), 7);
}

// ---------- parser robustness ----------

TEST(DerParserTest, RejectsTruncatedValue) {
  Bytes der = encode_octet_string(Bytes(10, 0xaa));
  der.resize(der.size() - 1);
  Parser parser(der);
  EXPECT_THROW(parser.next(), std::invalid_argument);
}

TEST(DerParserTest, RejectsTruncatedLength) {
  const Bytes der{0x04, 0x82, 0x01};  // long form claiming 2 length bytes, 1 present
  Parser parser(der);
  EXPECT_THROW(parser.next(), std::invalid_argument);
}

TEST(DerParserTest, RejectsNonMinimalLength) {
  // Length 5 encoded in long form: invalid DER.
  const Bytes der{0x04, 0x81, 0x05, 1, 2, 3, 4, 5};
  Parser parser(der);
  EXPECT_THROW(parser.next(), std::invalid_argument);
}

TEST(DerParserTest, RejectsLengthThatWrapsThePosition) {
  // An 8-octet length of 2^64 - 1: pos + length wraps below the buffer size,
  // so a sum-based bounds check would hand subspan a count past the end.
  const Bytes der{0x04, 0x88, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff};
  Parser parser(der);
  EXPECT_THROW(parser.next(), std::invalid_argument);
  // The same wrap one element in, after a valid TLV has advanced pos.
  Bytes nested = encode_integer(1);
  nested.insert(nested.end(), der.begin(), der.end());
  Parser second(nested);
  EXPECT_EQ(decode_integer(second.next()), 1);
  EXPECT_THROW(second.next(), std::invalid_argument);
}

TEST(DerParserTest, RejectsLongFormLengthWithLeadingZero) {
  // 0x90 must be encoded 81 90; 82 00 90 pads it with a zero octet.
  Bytes der{0x04, 0x82, 0x00, 0x90};
  der.resize(der.size() + 0x90, 0x11);
  Parser parser(der);
  EXPECT_THROW(parser.next(), std::invalid_argument);
  // The minimal form of the same element parses.
  Bytes minimal{0x04, 0x81, 0x90};
  minimal.resize(minimal.size() + 0x90, 0x11);
  Parser ok(minimal);
  EXPECT_EQ(ok.next().value.size(), 0x90u);
}

TEST(DerParserTest, ExpectChecksTag) {
  const Bytes der = encode_integer(5);
  Parser parser(der);
  EXPECT_THROW(parser.expect(kTagOctetString), std::invalid_argument);
}

TEST(DerParserTest, ExhaustionThrows) {
  Parser parser(BytesView{});
  EXPECT_TRUE(parser.done());
  EXPECT_THROW(parser.next(), std::invalid_argument);
}

TEST(DerParserTest, PeekDoesNotConsume) {
  const Bytes der = encode_integer(5);
  Parser parser(der);
  EXPECT_EQ(parser.peek_tag(), kTagInteger);
  EXPECT_EQ(decode_integer(parser.next()), 5);
  EXPECT_EQ(parser.peek_tag(), 0);
}

TEST(DerParserTest, RawSpansWholeElement) {
  const Bytes der = encode_integer(300);
  Parser parser(der);
  const Tlv tlv = parser.next();
  EXPECT_EQ(Bytes(tlv.raw.begin(), tlv.raw.end()), der);
}

TEST(DerParserTest, LargePayloadRoundTrip) {
  const Bytes payload(100000, 0x5c);
  const Bytes der = encode_octet_string(payload);
  Parser parser(der);
  const Tlv tlv = parser.next();
  EXPECT_EQ(tlv.value.size(), payload.size());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), tlv.value.begin()));
}

}  // namespace
}  // namespace ctwatch::asn1

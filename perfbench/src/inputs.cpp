#include "inputs.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "ctwatch/asn1/der.hpp"
#include "ctwatch/crypto/sha256.hpp"
#include "ctwatch/x509/oids.hpp"
#include "ctwatch/util/encoding.hpp"

namespace perfbench {

namespace x509 = ctwatch::x509;
namespace ct = ctwatch::ct;
namespace crypto = ctwatch::crypto;

namespace {

constexpr char kMarker[] = "qqqqqqqqqqqqqqqq";  // 16 bytes, re-stamped per entry
constexpr std::size_t kMarkerLen = sizeof(kMarker) - 1;
constexpr char kHex[] = "0123456789abcdef";

void put_be(Bytes& out, std::uint64_t value, int bytes) {
  for (int i = bytes - 1; i >= 0; --i) out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
}

void stamp_hex(std::uint8_t* at, std::uint64_t value) {
  for (std::size_t i = 0; i < kMarkerLen; ++i) {
    at[i] = static_cast<std::uint8_t>(kHex[(value >> (4 * (i % 16))) & 15]);
  }
}

ctwatch::SimTime era_start() { return ctwatch::SimTime::parse("2018-01-01"); }

}  // namespace

Bytes leaf_input(std::uint64_t timestamp_ms, const ct::SignedEntry& entry) {
  Bytes out;
  out.reserve(entry.data.size() + 64);
  out.push_back(0);  // version v1
  out.push_back(0);  // timestamped_entry
  put_be(out, timestamp_ms, 8);
  put_be(out, static_cast<std::uint64_t>(entry.type), 2);
  if (entry.type == ct::EntryType::precert_entry) {
    out.insert(out.end(), entry.issuer_key_hash.begin(), entry.issuer_key_hash.end());
  }
  put_be(out, entry.data.size(), 3);
  out.insert(out.end(), entry.data.begin(), entry.data.end());
  put_be(out, 0, 2);  // no extensions
  return out;
}

Digest leaf_hash_of(BytesView leaf) {
  crypto::Sha256 hasher;
  hasher.update(std::uint8_t{0});
  hasher.update(leaf);
  return hasher.finish();
}

EntryFactory::EntryFactory(std::uint64_t seed) : seed_(seed) {
  // One realistic precertificate TBS: ECDSA subject key, three SANs,
  // basicConstraints, poison stripped the way a log stores it.
  const auto subject = crypto::make_signer("perfbench-entry-subject",
                                           crypto::SignatureScheme::ecdsa_p256_sha256);
  const std::string host = std::string(kMarker) + ".example-shop.com";
  x509::CertificateBuilder builder;
  builder.serial(0x0123456789abcdefULL)
      .issuer(x509::DistinguishedName{"Perfbench Issuing CA R3", "Perfbench Trust", "US"})
      .subject_cn(host)
      .validity(era_start(), ctwatch::SimTime(era_start().unix_seconds() + 90 * 86400))
      .subject_key(*subject)
      .add_dns_san(host)
      .add_dns_san("www." + host)
      .add_dns_san("mail." + host)
      .add_dns_san("api." + host)
      .extension(x509::Extension{x509::oids::basic_constraints(), true,
                                 ctwatch::asn1::encode_sequence({})});
  template_ = x509::precert_tbs_bytes(builder.build_tbs());
  for (std::size_t at = 0; at + kMarkerLen <= template_.size(); ++at) {
    if (std::memcmp(template_.data() + at, kMarker, kMarkerLen) == 0) {
      marker_offsets_.push_back(at);
      at += kMarkerLen - 1;
    }
  }
  if (marker_offsets_.empty()) throw std::logic_error("EntryFactory: marker not found");
  issuer_key_hash_ = crypto::Sha256::hash(BytesView(
      reinterpret_cast<const std::uint8_t*>("perfbench-issuer"), 16));
}

ct::SignedEntry EntryFactory::entry(std::uint64_t index) const {
  Rng rng(seed_ ^ (index * 0x9e3779b97f4a7c15ULL));
  const std::uint64_t stamp = rng.next();
  ct::SignedEntry out;
  out.data = template_;
  for (const std::size_t at : marker_offsets_) stamp_hex(out.data.data() + at, stamp);
  if (rng.below(kFinalCertOneIn) == 0) {
    out.type = ct::EntryType::x509_entry;
    // A final certificate carries a signature the TBS does not: append a
    // DER-shaped ECDSA signature of seeded bytes.
    for (int i = 0; i < 72; ++i) out.data.push_back(static_cast<std::uint8_t>(rng.next()));
  } else {
    out.type = ct::EntryType::precert_entry;
    out.issuer_key_hash = issuer_key_hash_;
  }
  return out;
}

CertFactory::CertFactory(std::uint64_t seed)
    : seed_(seed),
      ca_(crypto::make_signer("perfbench-ca/" + std::to_string(seed),
                              crypto::SignatureScheme::ecdsa_p256_sha256)),
      subject_(crypto::make_signer("perfbench-subject/" + std::to_string(seed),
                                   crypto::SignatureScheme::ecdsa_p256_sha256)) {
  issuer_dn_ = x509::DistinguishedName{"Perfbench Issuing CA R3", "Perfbench Trust", "US"};
  x509::CertificateBuilder builder;
  builder.serial(1)
      .issuer(issuer_dn_)
      .subject_cn(issuer_dn_.common_name)
      .validity(ctwatch::SimTime::parse("2016-01-01"), ctwatch::SimTime::parse("2026-01-01"))
      .subject_key(*ca_)
      .extension(x509::Extension{x509::oids::basic_constraints(), true,
                                 ctwatch::asn1::encode_sequence({})});
  const x509::Certificate issuer = builder.sign(*ca_);
  issuer_der_ = issuer.encode();
  issuer_key_ = ca_->public_key();
}

Submission CertFactory::make(std::uint64_t index, bool precert) const {
  Rng rng(seed_ ^ 0x5ca1ab1eULL ^ (index * 0xd1b54a32d192ed03ULL));
  std::string label;
  for (int i = 0; i < 12; ++i) label.push_back(kHex[rng.below(16)]);
  const std::string host = label + "-" + std::to_string(index) + ".example-shop.com";
  x509::CertificateBuilder builder;
  builder.serial(rng.next() | 1)
      .issuer(issuer_dn_)
      .subject_cn(host)
      .validity(ctwatch::SimTime::parse("2018-03-30"), ctwatch::SimTime::parse("2018-06-28"))
      .subject_key(*subject_)
      .add_dns_san(host)
      .add_dns_san("www." + host)
      .extension(x509::Extension{x509::oids::basic_constraints(), true,
                                 ctwatch::asn1::encode_sequence({})});
  if (precert) builder.poison();
  const x509::Certificate cert = builder.sign(*ca_);
  Submission out;
  out.precert = precert;
  out.leaf_der = cert.encode();
  out.body = "{\"chain\":[\"" + ctwatch::base64_encode(out.leaf_der) + "\",\"" +
             ctwatch::base64_encode(issuer_der_) + "\"]}";
  out.expected_entry =
      precert ? ct::make_precert_entry(cert, issuer_key_) : ct::make_x509_entry(cert);
  return out;
}

std::vector<Submission> make_submissions(const CertFactory& factory, std::uint64_t first,
                                         std::size_t count, std::uint64_t seed,
                                         unsigned threads) {
  std::vector<Submission> out(count);
  Rng kinds(seed ^ 0xadd0c4a1ULL);
  std::vector<char> precert(count);
  for (std::size_t i = 0; i < count; ++i) precert[i] = kinds.below(kFinalCertOneIn) != 0;
  threads = std::max(1u, threads);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = t; i < count; i += threads) {
        out[i] = factory.make(first + i, precert[i] != 0);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  return out;
}

}  // namespace perfbench

// Seeded inputs: certificate-size log entries for the prebuilt log, and
// ECDSA-signed certificate chains for the CA submission workload. The
// leaf encoding here is the benchmark's own RFC 6962 §3.4 encoder, so the
// get-entries check does not lean on the program's encoder.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "ctwatch/crypto/signature.hpp"
#include "ctwatch/ct/sct.hpp"
#include "ctwatch/x509/certificate.hpp"

namespace perfbench {

using ctwatch::Bytes;
using ctwatch::BytesView;
using ctwatch::crypto::Digest;

/// MerkleTreeLeaf bytes (RFC 6962 §3.4): v1, timestamped_entry, no
/// extensions.
Bytes leaf_input(std::uint64_t timestamp_ms, const ctwatch::ct::SignedEntry& entry);
/// SHA-256(0x00 || leaf_input) (RFC 6962 §2.1).
Digest leaf_hash_of(BytesView leaf_input);

/// One entry or submission in kFinalCertOneIn is a final certificate
/// (add-chain), the rest precertificates (add-pre-chain), in the prebuilt
/// log and in the CA workload alike. The share is the paper's Fig 2 split
/// of SCT delivery (§3): 21.40% of connections carry SCTs embedded in
/// the certificate, which a CA logged as a precertificate, and 11.21% in
/// the TLS extension, which the operator got by logging the final
/// certificate; 11.21 / (21.40 + 11.21) is about 1/3. The paper gives no
/// per-certificate split, so this connection-weighted one stands in.
inline constexpr std::uint64_t kFinalCertOneIn = 3;

/// Certificate-size entry bodies for the prebuilt log: one real
/// precertificate TBS, re-stamped per entry with seeded names, so every
/// body is distinct and as long as a real one.
class EntryFactory {
 public:
  explicit EntryFactory(std::uint64_t seed);
  /// Entry `index`: a final certificate one time in kFinalCertOneIn,
  /// else a precertificate.
  [[nodiscard]] ctwatch::ct::SignedEntry entry(std::uint64_t index) const;

 private:
  std::uint64_t seed_;
  Bytes template_;
  std::vector<std::size_t> marker_offsets_;
  Digest issuer_key_hash_{};
};

/// One submission of the CA workload: the chain the client posts and the
/// entry the log must sign for it.
struct Submission {
  bool precert = true;
  std::string body;  ///< {"chain":[leaf, issuer]} in base64 DER
  Bytes leaf_der;
  ctwatch::ct::SignedEntry expected_entry;
};

/// An issuing CA with an ECDSA key, a self-signed issuer certificate and
/// a shared subject key, minting distinct ECDSA-signed chains.
class CertFactory {
 public:
  explicit CertFactory(std::uint64_t seed);
  /// Submission `index`; `precert` picks add-pre-chain over add-chain.
  [[nodiscard]] Submission make(std::uint64_t index, bool precert) const;
  [[nodiscard]] const Bytes& issuer_public_key() const { return issuer_key_; }

 private:
  std::uint64_t seed_;
  std::unique_ptr<ctwatch::crypto::Signer> ca_;
  std::unique_ptr<ctwatch::crypto::Signer> subject_;
  ctwatch::x509::DistinguishedName issuer_dn_;
  Bytes issuer_der_;
  Bytes issuer_key_;
};

/// Builds `count` submissions on `threads` threads (signing dominates).
std::vector<Submission> make_submissions(const CertFactory& factory, std::uint64_t first,
                                         std::size_t count, std::uint64_t seed, unsigned threads);

}  // namespace perfbench

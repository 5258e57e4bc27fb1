// Phishing-domain detection over CT-logged DNS names (§5).
//
// The paper's method: match domains that embed a target service's name or
// a subset of its FQDN labels (e.g. "login.live" for Microsoft), then
// exclude the service's legitimate registrable domains. Every rule here is
// a list of literals: a name matches when one of them is a substring of
// its canonical (lowercase, no trailing dot) text, dots included, so a
// literal like "login.live" may span labels. Findings carry the public
// suffix so the brand↔suffix link (eBay→bid/review, Microsoft→live) can
// be quantified.
//
// scan() parses each name on its own (no interning), splits it with the
// PSL and tries the rules in order. It runs chunked over the ctwatch::par
// global pool when one exists; the chunks share only the read-only rules
// and PSL, and their outputs are concatenated in chunk order, so the
// findings vector (and every counter) is byte-identical to the serial
// scan at any thread count.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "ctwatch/dns/name.hpp"
#include "ctwatch/dns/psl.hpp"

namespace ctwatch::phishing {

/// Matching rule for one impersonation target.
struct BrandRule {
  std::string brand;                         ///< e.g. "Apple"
  std::vector<std::string> literals;         ///< any one as a substring of the FQDN matches
  std::set<std::string> legitimate_domains;  ///< registrable domains to exclude
};

/// The five services of Table 3 plus the government taxation offices.
const std::vector<BrandRule>& standard_rules();

struct Finding {
  std::string brand;
  std::string fqdn;
  std::string public_suffix;
  std::string registrable_domain;
};

struct BrandSummary {
  std::uint64_t count = 0;
  std::string example;
  /// Findings per public suffix, for the suffix-choice analysis.
  std::map<std::string, std::uint64_t> by_suffix;
};

class PhishingDetector {
 public:
  /// Literals are matched case-insensitively (they are lowercased here).
  PhishingDetector(const dns::PublicSuffixList& psl, std::vector<BrandRule> rules);

  /// Scans FQDNs. Invalid names, and names that are themselves a public
  /// suffix, are skipped (count reported separately).
  std::vector<Finding> scan(std::span<const std::string> fqdns);

  /// Aggregates findings per brand.
  static std::map<std::string, BrandSummary> summarize(const std::vector<Finding>& findings);

  [[nodiscard]] std::uint64_t names_scanned() const { return scanned_; }
  [[nodiscard]] std::uint64_t names_skipped() const { return skipped_; }

 private:
  /// Per-chunk counter partial; merged serially in chunk order.
  struct ScanTally {
    std::uint64_t scanned = 0;
    std::uint64_t skipped = 0;
  };

  void scan_one(const dns::DnsName& name, std::vector<Finding>& findings,
                ScanTally& tally) const;

  const dns::PublicSuffixList* psl_;
  std::vector<BrandRule> rules_;
  std::uint64_t scanned_ = 0;
  std::uint64_t skipped_ = 0;
};

}  // namespace ctwatch::phishing

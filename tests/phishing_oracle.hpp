// The earlier phishing matcher, kept as the differential oracle for
// phishing::PhishingDetector: the six Table 3 rules as case-insensitive
// ECMAScript std::regex patterns over the canonical FQDN, run on every
// name that has a registrable domain under the oracle PSL. The library's
// literal rules must find exactly what these patterns find.
#pragma once

#include <cstdint>
#include <regex>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "ctwatch/dns/name.hpp"
#include "ctwatch/phishing/detector.hpp"
#include "psl_oracle.hpp"

namespace ctwatch::phishing::oracle {

struct RegexRule {
  std::string brand;
  std::string pattern;
  std::set<std::string> legitimate_domains;
};

inline const std::vector<RegexRule>& regex_rules() {
  static const std::vector<RegexRule> rules = {
      {"Apple", R"(appleid|apple\.com)", {"apple.com", "icloud.com"}},
      {"PayPal", R"(paypal)", {"paypal.com", "paypal.me"}},
      {"Microsoft",
       R"(hotmail|login\.live|outlook|microsoft)",
       {"microsoft.com", "live.com", "outlook.com", "hotmail.com", "office.com"}},
      {"Google", R"(google)", {"google.com", "googleapis.com", "google.de", "google.co.uk"}},
      {"eBay", R"(ebay)", {"ebay.com", "ebay.co.uk", "ebay.de", "ebay.com.au"}},
      {"Taxation",
       R"(ato\.gov\.au|hmrc\.gov\.uk|irs\.gov)",
       {"ato.gov.au", "hmrc.gov.uk", "irs.gov"}},
  };
  return rules;
}

struct RegexScan {
  std::vector<Finding> findings;
  std::uint64_t scanned = 0;
  std::uint64_t skipped = 0;
};

/// Serial scan: parse, split with the oracle PSL, first matching regex
/// outside the brand's legitimate domains wins.
inline RegexScan regex_scan(const dns::oracle::PslOracle& psl,
                            std::span<const std::string> fqdns) {
  std::vector<std::regex> compiled;
  for (const RegexRule& rule : regex_rules()) {
    compiled.emplace_back(rule.pattern, std::regex::ECMAScript | std::regex::icase);
  }
  RegexScan out;
  for (const std::string& fqdn : fqdns) {
    ++out.scanned;
    const auto name = dns::DnsName::parse(fqdn);
    const auto split = name ? psl.split(*name) : std::nullopt;
    if (!split) {
      ++out.skipped;
      continue;
    }
    const std::string text = name->to_string();
    for (std::size_t i = 0; i < compiled.size(); ++i) {
      if (!std::regex_search(text, compiled[i])) continue;
      if (regex_rules()[i].legitimate_domains.contains(split->registrable_domain)) continue;
      out.findings.push_back(Finding{regex_rules()[i].brand, text, split->public_suffix,
                                     split->registrable_domain});
      break;
    }
  }
  return out;
}

}  // namespace ctwatch::phishing::oracle

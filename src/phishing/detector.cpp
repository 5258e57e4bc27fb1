#include "ctwatch/phishing/detector.hpp"

#include <algorithm>
#include <iterator>

#include "ctwatch/par/par.hpp"
#include "ctwatch/util/strings.hpp"

namespace ctwatch::phishing {

const std::vector<BrandRule>& standard_rules() {
  static const std::vector<BrandRule> rules = {
      {"Apple", {"appleid", "apple.com"}, {"apple.com", "icloud.com"}},
      {"PayPal", {"paypal"}, {"paypal.com", "paypal.me"}},
      {"Microsoft",
       {"hotmail", "login.live", "outlook", "microsoft"},
       {"microsoft.com", "live.com", "outlook.com", "hotmail.com", "office.com"}},
      {"Google", {"google"}, {"google.com", "googleapis.com", "google.de", "google.co.uk"}},
      {"eBay", {"ebay"}, {"ebay.com", "ebay.co.uk", "ebay.de", "ebay.com.au"}},
      {"Taxation",
       {"ato.gov.au", "hmrc.gov.uk", "irs.gov"},
       {"ato.gov.au", "hmrc.gov.uk", "irs.gov"}},
  };
  return rules;
}

PhishingDetector::PhishingDetector(const dns::PublicSuffixList& psl, std::vector<BrandRule> rules)
    : psl_(&psl), rules_(std::move(rules)) {
  for (BrandRule& rule : rules_) {
    for (std::string& literal : rule.literals) literal = to_lower(literal);
  }
}

void PhishingDetector::scan_one(const dns::DnsName& name, std::vector<Finding>& findings,
                                ScanTally& tally) const {
  const auto split = psl_->split(name);
  if (!split) {
    ++tally.skipped;
    return;
  }
  const std::string text = name.to_string();
  for (const BrandRule& rule : rules_) {
    const bool matches = std::any_of(rule.literals.begin(), rule.literals.end(),
                                     [&](const std::string& literal) {
                                       return text.find(literal) != std::string::npos;
                                     });
    if (!matches) continue;
    // Exclude the brand's own domains: a match inside the legitimate
    // registrable domain is not phishing.
    if (rule.legitimate_domains.contains(split->registrable_domain)) continue;
    findings.push_back(
        Finding{rule.brand, text, split->public_suffix, split->registrable_domain});
    break;  // first matching brand wins
  }
}

std::vector<Finding> PhishingDetector::scan(std::span<const std::string> fqdns) {
  const par::ChunkPlan plan = par::ChunkPlan::over(fqdns.size(), 256);
  std::vector<std::vector<Finding>> chunk_findings(plan.chunks);
  std::vector<ScanTally> tallies(plan.chunks);
  par::parallel_for_chunks(fqdns.size(), 256, [&](std::size_t c, par::IndexRange range) {
    for (std::size_t i = range.begin; i < range.end; ++i) {
      ++tallies[c].scanned;
      const auto name = dns::DnsName::parse(fqdns[i]);
      if (!name) {
        ++tallies[c].skipped;
        continue;
      }
      scan_one(*name, chunk_findings[c], tallies[c]);
    }
  });
  // Chunks cover contiguous input slices, so chunk-order concatenation is
  // the serial findings order; the tallies are order-independent sums.
  std::vector<Finding> findings;
  for (std::size_t c = 0; c < plan.chunks; ++c) {
    scanned_ += tallies[c].scanned;
    skipped_ += tallies[c].skipped;
    findings.insert(findings.end(), std::make_move_iterator(chunk_findings[c].begin()),
                    std::make_move_iterator(chunk_findings[c].end()));
  }
  return findings;
}

std::map<std::string, BrandSummary> PhishingDetector::summarize(
    const std::vector<Finding>& findings) {
  std::map<std::string, BrandSummary> out;
  for (const Finding& finding : findings) {
    BrandSummary& summary = out[finding.brand];
    ++summary.count;
    if (summary.example.empty()) summary.example = finding.fqdn;
    ++summary.by_suffix[finding.public_suffix];
  }
  return out;
}

}  // namespace ctwatch::phishing

#include <gtest/gtest.h>

#include "ctwatch/phishing/detector.hpp"
#include "ctwatch/sim/domains.hpp"
#include "ctwatch/sim/phishing_gen.hpp"
#include "phishing_oracle.hpp"

namespace ctwatch::phishing {
namespace {

class DetectorTest : public ::testing::Test {
 protected:
  DetectorTest()
      : psl_(dns::PublicSuffixList::bundled()), detector_(psl_, standard_rules()) {}

  std::vector<Finding> scan_one(const std::string& name) {
    const std::vector<std::string> names{name};
    return detector_.scan(names);
  }

  dns::PublicSuffixList psl_;
  PhishingDetector detector_;
};

TEST_F(DetectorTest, FlagsPaperExampleShapes) {
  // The exact example shapes from Table 3.
  for (const auto& [name, brand] :
       std::vector<std::pair<std::string, std::string>>{
           {"appleid.apple.com-7etr6eti.gq", "Apple"},
           {"paypal.com-account-security.money", "PayPal"},
           {"www-hotmail-login.live", "Microsoft"},
           {"accounts.google.co.am", "Google"},
           {"www.ebay.co.uk.dll7.bid", "eBay"},
       }) {
    const auto findings = scan_one(name);
    ASSERT_EQ(findings.size(), 1u) << name;
    EXPECT_EQ(findings[0].brand, brand) << name;
  }
}

TEST_F(DetectorTest, FlagsTaxationOffices) {
  for (const char* name : {"ato.gov.au.eng-atorefund.com", "hmrc.gov.uk-refund.cf",
                           "refund.irs.gov.my-irs.com"}) {
    const auto findings = scan_one(name);
    ASSERT_EQ(findings.size(), 1u) << name;
    EXPECT_EQ(findings[0].brand, "Taxation") << name;
  }
}

TEST_F(DetectorTest, ExcludesLegitimateDomains) {
  for (const char* name : {"appleid.apple.com", "www.paypal.com", "login.live.com",
                           "accounts.google.com", "signin.ebay.com", "www.irs.gov",
                           "online.hmrc.gov.uk", "www.ato.gov.au"}) {
    EXPECT_TRUE(scan_one(name).empty()) << name;
  }
}

TEST_F(DetectorTest, IgnoresUnrelatedDomains) {
  for (const char* name : {"www.example.org", "shop.acme123.de", "mail.vertex9.tech"}) {
    EXPECT_TRUE(scan_one(name).empty()) << name;
  }
}

TEST_F(DetectorTest, SkipsInvalidNames) {
  const std::vector<std::string> names{"not..a..name", "apple phishing!.com",
                                       "appleid.apple.com-x.gq"};
  const auto findings = detector_.scan(names);
  EXPECT_EQ(findings.size(), 1u);
  EXPECT_EQ(detector_.names_skipped(), 2u);
  EXPECT_EQ(detector_.names_scanned(), 3u);
}

TEST_F(DetectorTest, FindingCarriesSuffixAndRegistrable) {
  const auto findings = scan_one("www.ebay.co.uk.dll7.bid");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].public_suffix, "bid");
  EXPECT_EQ(findings[0].registrable_domain, "dll7.bid");
}

TEST_F(DetectorTest, FirstMatchingBrandWins) {
  // Contains both "paypal" and "google": PayPal is listed first in the rules.
  const auto findings = scan_one("paypal-google-login.tk");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].brand, "PayPal");
}

TEST_F(DetectorTest, CaseInsensitiveMatching) {
  // DnsName normalizes case before matching.
  const auto findings = scan_one("AppleID.Apple.Com-X.GQ");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].brand, "Apple");
}

TEST(SummaryTest, AggregatesByBrandAndSuffix) {
  std::vector<Finding> findings = {
      {"Apple", "a1.gq", "gq", "a1.gq"},
      {"Apple", "a2.tk", "tk", "a2.tk"},
      {"eBay", "e1.bid", "bid", "e1.bid"},
  };
  const auto summary = PhishingDetector::summarize(findings);
  EXPECT_EQ(summary.at("Apple").count, 2u);
  EXPECT_EQ(summary.at("Apple").example, "a1.gq");
  EXPECT_EQ(summary.at("Apple").by_suffix.at("gq"), 1u);
  EXPECT_EQ(summary.at("eBay").count, 1u);
}

TEST(GeneratedCorpusTest, DetectorFindsEveryPlantedPhish) {
  const sim::PhishingCorpus corpus = sim::generate_phishing_corpus();
  dns::PublicSuffixList psl = dns::PublicSuffixList::bundled();
  PhishingDetector detector(psl, standard_rules());
  const auto findings = detector.scan(corpus.names);
  // Every planted phishing name is flagged; no legitimate name is.
  EXPECT_EQ(findings.size(), corpus.planted_phishing);
  for (const Finding& finding : findings) {
    for (const BrandRule& rule : standard_rules()) {
      EXPECT_FALSE(rule.legitimate_domains.contains(finding.registrable_domain))
          << finding.fqdn;
    }
  }
}

TEST(GeneratedCorpusTest, SuffixLinksMatchPaperDirection) {
  const sim::PhishingCorpus corpus = sim::generate_phishing_corpus();
  dns::PublicSuffixList psl = dns::PublicSuffixList::bundled();
  PhishingDetector detector(psl, standard_rules());
  const auto summary = PhishingDetector::summarize(detector.scan(corpus.names));
  // eBay leans on bid/review; Apple/PayPal dominate the totals.
  const auto& ebay = summary.at("eBay");
  const std::uint64_t bid_review = (ebay.by_suffix.count("bid") ? ebay.by_suffix.at("bid") : 0) +
                                   (ebay.by_suffix.count("review") ? ebay.by_suffix.at("review") : 0);
  EXPECT_GT(bid_review, 0u);
  EXPECT_GT(summary.at("Apple").count, summary.at("Microsoft").count);
  EXPECT_GT(summary.at("PayPal").count, summary.at("Google").count);
}

TEST_F(DetectorTest, SkipsNamesThatAreThemselvesSuffixes) {
  const std::vector<std::string> names{"co.uk", "paypal.com", "foo.ck", "www.paypal-x.ck"};
  const auto findings = detector_.scan(names);
  // co.uk and foo.ck (under *.ck) have no registrable domain.
  EXPECT_EQ(detector_.names_skipped(), 2u);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].fqdn, "www.paypal-x.ck");
  EXPECT_EQ(findings[0].registrable_domain, "www.paypal-x.ck");
}

TEST(DetectorRuleTest, LiteralsMatchCaseInsensitively) {
  const dns::PublicSuffixList psl = dns::PublicSuffixList::bundled();
  PhishingDetector detector(psl, {{"Brand", {"ExAmPle-Bank"}, {}}});
  const std::vector<std::string> names{"login.EXAMPLE-bank.tk", "example-ban.tk"};
  const auto findings = detector.scan(names);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].fqdn, "login.example-bank.tk");
}

// ---------- the literal rules against the std::regex oracle ----------

void expect_matches_regex_oracle(const std::vector<std::string>& names) {
  const dns::PublicSuffixList psl = dns::PublicSuffixList::bundled();
  PhishingDetector detector(psl, standard_rules());
  const std::vector<Finding> findings = detector.scan(names);
  const oracle::RegexScan expected = oracle::regex_scan(dns::oracle::bundled(), names);
  EXPECT_EQ(detector.names_scanned(), expected.scanned);
  EXPECT_EQ(detector.names_skipped(), expected.skipped);
  ASSERT_EQ(findings.size(), expected.findings.size());
  for (std::size_t i = 0; i < findings.size(); ++i) {
    EXPECT_EQ(findings[i].brand, expected.findings[i].brand) << i;
    EXPECT_EQ(findings[i].fqdn, expected.findings[i].fqdn) << i;
    EXPECT_EQ(findings[i].public_suffix, expected.findings[i].public_suffix) << i;
    EXPECT_EQ(findings[i].registrable_domain, expected.findings[i].registrable_domain) << i;
  }
}

TEST(DetectorOracleTest, StandardRulesAreTheRegexOracleBrands) {
  ASSERT_EQ(standard_rules().size(), oracle::regex_rules().size());
  for (std::size_t i = 0; i < standard_rules().size(); ++i) {
    EXPECT_EQ(standard_rules()[i].brand, oracle::regex_rules()[i].brand);
    EXPECT_EQ(standard_rules()[i].legitimate_domains, oracle::regex_rules()[i].legitimate_domains);
  }
}

TEST(DetectorOracleTest, PlantedCorpusAndCorpusSampleMatchRegexOracle) {
  std::vector<std::string> names = sim::generate_phishing_corpus().names;
  sim::DomainCorpusOptions options;
  options.registrable_count = 2000;
  const sim::DomainCorpus corpus(options);
  names.insert(names.end(), corpus.ct_names().begin(), corpus.ct_names().end());
  expect_matches_regex_oracle(names);
}

TEST(DetectorOracleTest, AdversarialNamesMatchRegexOracle) {
  expect_matches_regex_oracle({
      // Mixed case and trailing dots.
      "AppleID.Apple.Com-X.GQ", "PAYPAL.com-secure.money.", "WWW.Hotmail-Login.LIVE.",
      // Literals across label dots, and near misses that split them.
      "login.live", "www.login.live.tk", "login-live.tk", "loginlive.tk", "x.login.live.com",
      "refund.irs.gov.my-irs.com", "irs.gov.example.tk", "irsgov.tk", "irs.go.tk",
      "ato.gov.au.eng-atorefund.com", "hmrc.gov.uk-refund.cf", "hmrc-gov.uk.cf",
      "apple.com.verify.ml", "apple-com.ml", "my-apple.com",
      // Brand-owned domains and their subdomains.
      "apple.com", "www.apple.com", "appleid.apple.com", "icloud.com", "appleid.icloud.com",
      "paypal.com", "www.paypal.me", "login.live.com", "outlook.com", "mail.outlook.com",
      "accounts.google.com", "www.google.co.uk", "google.de", "signin.ebay.com.au",
      "www.irs.gov", "online.hmrc.gov.uk", "www.ato.gov.au", "irs.gov",
      // A brand's own domain does not shield another brand's literal.
      "paypal.google.com", "google.paypal.com", "ebay.apple.com",
      // Names that are themselves suffixes, wildcards and exceptions.
      "co.uk", "gov.uk", "live", "paypal.ck", "www.paypal.ck", "paypal.www.ck", "www.ck",
      // First matching brand wins.
      "paypal-google-login.tk", "microsoft-ebay.bid", "google-appleid.gq",
      // Unrelated and invalid.
      "www.example.org", "not..a..name", "apple phishing!.com", "", "paypal",
      "-paypal.com", "paypal_.com", "127.0.0.1",
  });
}

}  // namespace
}  // namespace ctwatch::phishing

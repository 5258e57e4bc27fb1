#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ctwatch/dns/name.hpp"
#include "ctwatch/dns/psl.hpp"
#include "ctwatch/dns/resolver.hpp"
#include "ctwatch/dns/zone.hpp"
#include "ctwatch/sim/domains.hpp"
#include "psl_oracle.hpp"

namespace ctwatch::dns {
namespace {

// ---------- names ----------

TEST(DnsNameTest, ParsesAndNormalizes) {
  const auto name = DnsName::parse("WWW.Example.COM");
  ASSERT_TRUE(name);
  EXPECT_EQ(name->to_string(), "www.example.com");
  EXPECT_EQ(name->label_count(), 3u);
  EXPECT_EQ(name->first_label(), "www");
}

TEST(DnsNameTest, AcceptsTrailingDot) {
  const auto name = DnsName::parse("example.org.");
  ASSERT_TRUE(name);
  EXPECT_EQ(name->to_string(), "example.org");
}

TEST(DnsNameTest, RejectsInvalidInputs) {
  EXPECT_FALSE(DnsName::parse(""));                      // empty
  EXPECT_FALSE(DnsName::parse("singlelabel"));           // one label
  EXPECT_FALSE(DnsName::parse("a..b.com"));              // empty label
  EXPECT_FALSE(DnsName::parse("-lead.example.com"));     // leading hyphen
  EXPECT_FALSE(DnsName::parse("trail-.example.com"));    // trailing hyphen
  EXPECT_FALSE(DnsName::parse("under_score.example.com"));  // underscore (default)
  EXPECT_FALSE(DnsName::parse("1.2.3.4"));               // numeric TLD (IP)
  EXPECT_FALSE(DnsName::parse("bad char.example.com"));  // space
  EXPECT_FALSE(DnsName::parse(std::string(64, 'a') + ".example.com"));  // label > 63
  EXPECT_FALSE(DnsName::parse(std::string(250, 'a') + ".example.com")); // name > 253
}

TEST(DnsNameTest, OptionsEnableWildcardAndUnderscore) {
  EXPECT_FALSE(DnsName::parse("*.example.com"));
  ParseOptions wildcard;
  wildcard.allow_wildcard = true;
  const auto w = DnsName::parse("*.example.com", wildcard);
  ASSERT_TRUE(w);
  EXPECT_EQ(w->first_label(), "*");
  // Wildcard only allowed leftmost.
  EXPECT_FALSE(DnsName::parse("foo.*.example.com", wildcard));

  ParseOptions underscore;
  underscore.allow_underscore = true;
  EXPECT_TRUE(DnsName::parse("_dmarc.example.com", underscore));
}

TEST(DnsNameTest, ParentAndSubdomainRelations) {
  const DnsName name = DnsName::parse_or_throw("a.b.example.co.uk");
  EXPECT_EQ(name.parent().to_string(), "b.example.co.uk");
  EXPECT_EQ(name.parent(2).to_string(), "example.co.uk");
  EXPECT_TRUE(name.is_subdomain_of(DnsName::parse_or_throw("example.co.uk")));
  EXPECT_TRUE(name.is_subdomain_of(name));
  EXPECT_FALSE(DnsName::parse_or_throw("example.co.uk").is_subdomain_of(name));
  EXPECT_FALSE(name.is_subdomain_of(DnsName::parse_or_throw("other.co.uk")));
  EXPECT_THROW((void)name.parent(6), std::out_of_range);
}

TEST(DnsNameTest, WithPrefixLabel) {
  const DnsName base = DnsName::parse_or_throw("example.org");
  EXPECT_EQ(base.with_prefix_label("www").to_string(), "www.example.org");
  EXPECT_THROW((void)base.with_prefix_label("bad label"), std::invalid_argument);
}

TEST(DnsNameTest, WithPrefixLabelAcceptsStringView) {
  const DnsName base = DnsName::parse_or_throw("example.org");
  const std::string_view prefix = "api";
  EXPECT_EQ(base.with_prefix_label(prefix).to_string(), "api.example.org");
  EXPECT_EQ(base.with_prefix_label("*").first_label(), "*");
}

// Regression: first_label() on the empty (root) name used to read
// labels_.front() of an empty vector — undefined behavior. It must return
// an empty view.
TEST(DnsNameTest, FirstLabelOnEmptyNameIsSafe) {
  const DnsName root;
  EXPECT_TRUE(root.empty());
  EXPECT_EQ(root.first_label(), std::string_view{});
  EXPECT_TRUE(root.first_label().empty());
}

TEST(DnsNameTest, ParseIntoMatchesParse) {
  namepool::NamePool pool;
  const char* cases[] = {"WWW.Example.COM", "a.b.example.co.uk", "example.org.",
                         "xn--idn.example", "a-b.c-d.io"};
  for (const char* text : cases) {
    const auto parsed = DnsName::parse(text);
    const auto ref = DnsName::parse_into(pool, text);
    ASSERT_TRUE(parsed && ref) << text;
    EXPECT_EQ(pool.to_string(*ref), parsed->to_string());
    EXPECT_EQ(DnsName::materialize(pool, *ref), *parsed);
    EXPECT_EQ(parsed->intern_into(pool), *ref);  // canonical: same ref back
  }
  // Rejections agree too.
  const char* bad[] = {"", "nolabel", "a..b.com", "-x.example.com", "1.2.3.4"};
  for (const char* text : bad) {
    EXPECT_FALSE(DnsName::parse(text)) << text;
    EXPECT_FALSE(DnsName::parse_into(pool, text)) << text;
  }
}

TEST(DnsNameTest, ParseOrThrowThrows) {
  EXPECT_THROW(DnsName::parse_or_throw("no"), std::invalid_argument);
  EXPECT_NO_THROW(DnsName::parse_or_throw("ok.example"));
}

// ---------- PSL ----------

class PslTest : public ::testing::Test {
 protected:
  PublicSuffixList psl_ = PublicSuffixList::bundled();
};

TEST_F(PslTest, SimpleSuffixes) {
  EXPECT_EQ(psl_.public_suffix(DnsName::parse_or_throw("www.example.com")), "com");
  EXPECT_EQ(psl_.public_suffix(DnsName::parse_or_throw("www.example.co.uk")), "co.uk");
  EXPECT_EQ(psl_.public_suffix(DnsName::parse_or_throw("a.b.site.gov.uk")), "gov.uk");
}

TEST_F(PslTest, SplitComputesRegistrableAndSubdomain) {
  const auto split = psl_.split(DnsName::parse_or_throw("www.dev.example.co.uk"));
  ASSERT_TRUE(split);
  EXPECT_EQ(split->public_suffix, "co.uk");
  EXPECT_EQ(split->registrable_domain, "example.co.uk");
  ASSERT_EQ(split->subdomain_labels.size(), 2u);
  EXPECT_EQ(split->subdomain_labels[0], "www");
  EXPECT_EQ(split->subdomain_labels[1], "dev");
  EXPECT_EQ(split->subdomain(), "www.dev");
}

TEST_F(PslTest, NameThatIsItselfASuffixHasNoSplit) {
  EXPECT_FALSE(psl_.split(DnsName::parse_or_throw("co.uk")));
  EXPECT_FALSE(psl_.split(DnsName::parse_or_throw("gov.uk")));
}

TEST_F(PslTest, UnknownTldUsesPrevailingRule) {
  // "*" prevailing rule: one label of suffix.
  EXPECT_EQ(psl_.public_suffix(DnsName::parse_or_throw("foo.bar.unknowntld")), "unknowntld");
  const auto split = psl_.split(DnsName::parse_or_throw("foo.bar.unknowntld"));
  ASSERT_TRUE(split);
  EXPECT_EQ(split->registrable_domain, "bar.unknowntld");
}

TEST_F(PslTest, WildcardRule) {
  // "*.ck": every direct child of ck is a public suffix.
  EXPECT_EQ(psl_.public_suffix(DnsName::parse_or_throw("shop.foo.ck")), "foo.ck");
  const auto split = psl_.split(DnsName::parse_or_throw("www.shop.foo.ck"));
  ASSERT_TRUE(split);
  EXPECT_EQ(split->registrable_domain, "shop.foo.ck");
}

TEST_F(PslTest, ExceptionRule) {
  // "!www.ck" overrides the wildcard: www.ck is registrable.
  const auto split = psl_.split(DnsName::parse_or_throw("mail.www.ck"));
  ASSERT_TRUE(split);
  EXPECT_EQ(split->public_suffix, "ck");
  EXPECT_EQ(split->registrable_domain, "www.ck");
}

TEST_F(PslTest, StringOverloadFiltersInvalidNames) {
  EXPECT_FALSE(psl_.split("not_valid..name"));
  EXPECT_TRUE(psl_.split("www.example.de"));
}

// Regression: an earlier pooled split matched rules compiled to label ids
// and cached per pool address. A fresh pool reusing a destroyed pool's
// heap address hit the stale cache, and every multi-label suffix silently
// degraded to its last label ("co.uk" -> "uk"). The split now matches on
// label text and caches nothing; the create/destroy loop keeps checking
// that address reuse cannot matter.
TEST_F(PslTest, PooledSplitSurvivesPoolReincarnation) {
  for (int round = 0; round < 16; ++round) {
    auto pool = std::make_unique<namepool::NamePool>();
    // A different number of padding labels per round shifts every label id,
    // so stale cached rule ids can never line up by coincidence.
    for (int i = 0; i <= round; ++i) pool->labels().intern("pad" + std::to_string(i));
    const auto ref = DnsName::parse_into(*pool, "www.example.co.uk");
    ASSERT_TRUE(ref);
    const auto split = psl_.split(*pool, *ref);
    ASSERT_TRUE(split) << "round " << round;
    EXPECT_EQ(pool->to_string(split->public_suffix), "co.uk") << "round " << round;
    EXPECT_EQ(pool->to_string(split->registrable_domain), "example.co.uk");
    EXPECT_EQ(split->subdomain_label_count, 1u);
  }
}

TEST(PslRuleTest, AddRuleRejectsMalformed) {
  PublicSuffixList psl;
  EXPECT_THROW(psl.add_rule(""), std::invalid_argument);
  EXPECT_THROW(psl.add_rule("!"), std::invalid_argument);
  EXPECT_THROW(psl.add_rule("bad label"), std::invalid_argument);
}

TEST(PslRuleTest, RulesTextSkipsCommentsAndBlanks) {
  PublicSuffixList psl;
  psl.add_rules_text("// comment\n\ncom\n  \nco.uk\r\n");
  EXPECT_EQ(psl.rule_count(), 2u);
}

TEST(PslRuleTest, RuleCountCountsEachKindAtOnePath) {
  PublicSuffixList psl;
  oracle::PslOracle reference;
  for (const char* rule : {"uk", "*.uk", "!www.uk", "uk", "*.uk", "CO.UK"}) {
    psl.add_rule(rule);
    reference.add_rule(rule);
    EXPECT_EQ(psl.rule_count(), reference.rule_count()) << rule;
  }
  EXPECT_EQ(psl.rule_count(), 4u);
  // No rule can be longer than a DNS name.
  std::string too_long = "ee";
  for (char c : {'a', 'b', 'c', 'd'}) too_long = std::string(62, c) + "." + too_long;
  EXPECT_EQ(too_long.size(), 254u);
  EXPECT_THROW(psl.add_rule(too_long), std::invalid_argument);
  EXPECT_NO_THROW(psl.add_rule(too_long.substr(1)));
}

// ---------- PSL against the oracle ----------

// Names every split decision must agree on: mixed case, trailing dots,
// names that are themselves suffixes, wildcard/exception structure,
// unknown TLDs, deep names and invalid input.
std::vector<std::string> psl_edge_names() {
  return {"www.example.com",   "WWW.Example.CO.UK.",   "co.uk",        "uk",
          "gov.uk",            "a.b.site.gov.uk",      "ck",           "foo.ck",
          "shop.foo.ck",       "www.shop.foo.ck",      "www.ck",       "mail.www.ck",
          "a.mail.www.ck",     "foo.bar.unknowntld",   "unknowntld",   "x.y.z.w.co.jp",
          "co.jp",             "a.city.kawasaki.jp",   "kawasaki.jp",  "b.kawasaki.jp",
          "c.b.kawasaki.jp",   "city.kawasaki.jp",     "login.live",   "refund.irs.gov.my-irs.com",
          "not..a..name",      "apple phishing!.com",  "",             "127.0.0.1",
          "-bad.example.com",  "trailing.example.com.", "x.COM.AU",    "a.b.c.d.e.f.g.h.com.au"};
}

// Compares every split entry point of `psl` with the oracle on `names`,
// the pooled overload through one pool shared by all names.
void expect_splits_match(const PublicSuffixList& psl, const oracle::PslOracle& reference,
                         const std::vector<std::string>& names) {
  namepool::NamePool pool;
  for (const std::string& text : names) {
    const auto name = DnsName::parse(text);
    const auto by_string = psl.split(text);
    if (!name) {
      EXPECT_FALSE(by_string) << text;
      continue;
    }
    EXPECT_EQ(psl.public_suffix(*name), reference.public_suffix(*name)) << text;
    const auto expected = reference.split(*name);
    const auto got = psl.split(*name);
    ASSERT_EQ(got.has_value(), expected.has_value()) << text;
    ASSERT_EQ(by_string.has_value(), expected.has_value()) << text;
    const auto ref = DnsName::parse_into(pool, text);
    ASSERT_TRUE(ref) << text;
    const auto pooled = psl.split(pool, *ref);
    ASSERT_EQ(pooled.has_value(), expected.has_value()) << text;
    if (!expected) continue;
    for (const NameSplit* split : {&*got, &*by_string}) {
      EXPECT_EQ(split->public_suffix, expected->public_suffix) << text;
      EXPECT_EQ(split->registrable_domain, expected->registrable_domain) << text;
      EXPECT_EQ(split->subdomain_labels, expected->subdomain_labels) << text;
    }
    EXPECT_EQ(pool.to_string(pooled->public_suffix), expected->public_suffix) << text;
    EXPECT_EQ(pool.to_string(pooled->registrable_domain), expected->registrable_domain) << text;
    EXPECT_EQ(pooled->subdomain_label_count, expected->subdomain_labels.size()) << text;
  }
}

TEST(PslOracleTest, BundledListMatchesOracleOnEdgeNames) {
  const PublicSuffixList psl = PublicSuffixList::bundled();
  const oracle::PslOracle reference = oracle::bundled();
  EXPECT_EQ(psl.rule_count(), reference.rule_count());
  expect_splits_match(psl, reference, psl_edge_names());
}

TEST(PslOracleTest, BundledListMatchesOracleOnCorpusSample) {
  sim::DomainCorpusOptions options;
  options.registrable_count = 2000;
  const sim::DomainCorpus corpus(options);
  expect_splits_match(PublicSuffixList::bundled(), oracle::bundled(), corpus.ct_names());
}

TEST(PslOracleTest, NestedWildcardAndExceptionRulesMatchOracle) {
  // Normal, wildcard and exception rules stacked on the same paths.
  const std::string rules =
      "jp\nco.jp\n*.kawasaki.jp\n!city.kawasaki.jp\n*.ck\n!www.ck\nuk\n*.uk\nco.uk\n"
      "!parliament.uk\ncom\ncom.au\n*.com.au\n!x.com.au\n";
  PublicSuffixList psl;
  oracle::PslOracle reference;
  psl.add_rules_text(rules);
  reference.add_rules_text(rules);
  EXPECT_EQ(psl.rule_count(), reference.rule_count());
  std::vector<std::string> names = psl_edge_names();
  for (const char* extra : {"parliament.uk", "www.parliament.uk", "a.b.uk", "b.uk",
                            "a.b.co.uk", "y.x.com.au", "z.y.com.au", "x.com.au"}) {
    names.emplace_back(extra);
  }
  expect_splits_match(psl, reference, names);
}

// The list holds no lock and no per-pool state: four threads split through
// both overloads of one shared list into one shared pool, and every result
// equals the serial one. Under ThreadSanitizer this is the race surface.
TEST(PslConcurrencyTest, SharedListSplitsFromFourThreadsIntoOnePool) {
  const PublicSuffixList psl = PublicSuffixList::bundled();
  std::vector<std::string> names = psl_edge_names();
  for (int i = 0; i < 200; ++i) {
    names.push_back("host" + std::to_string(i) + ".zone" + std::to_string(i % 13) + ".co.uk");
    names.push_back("a" + std::to_string(i) + ".shop" + std::to_string(i % 7) + ".foo.ck");
  }
  std::vector<std::string> expected;
  for (const std::string& text : names) {
    const auto split = psl.split(text);
    expected.push_back(split ? split->public_suffix + "|" + split->registrable_domain : "-");
  }

  namepool::NamePool pool;
  std::vector<std::vector<std::string>> pooled(4), owned(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t k = 0; k < names.size(); ++k) {
        // Each thread walks the names from a different offset, so first
        // interning of a label races with other threads' reads.
        const std::string& text = names[(k + t * names.size() / 4) % names.size()];
        const auto ref = DnsName::parse_into(pool, text);
        const auto split = ref ? psl.split(pool, *ref) : std::nullopt;
        pooled[t].push_back(split ? pool.to_string(split->public_suffix) + "|" +
                                        pool.to_string(split->registrable_domain)
                                  : "-");
        const auto by_name = psl.split(text);
        owned[t].push_back(by_name ? by_name->public_suffix + "|" + by_name->registrable_domain
                                   : "-");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < 4; ++t) {
    for (std::size_t k = 0; k < names.size(); ++k) {
      const std::size_t i = (k + t * names.size() / 4) % names.size();
      EXPECT_EQ(pooled[t][k], expected[i]) << names[i];
      EXPECT_EQ(owned[t][k], expected[i]) << names[i];
    }
  }
}

// ---------- zones ----------

class ZoneTest : public ::testing::Test {
 protected:
  ZoneTest() : zone_(DnsName::parse_or_throw("example.org")) {}
  Zone zone_;
};

TEST_F(ZoneTest, ExactMatchLookup) {
  zone_.add(ResourceRecord{DnsName::parse_or_throw("www.example.org"), RrType::A, 300,
                           net::IPv4(192, 0, 2, 1)});
  const auto answers = zone_.lookup(DnsName::parse_or_throw("www.example.org"), RrType::A);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].a(), net::IPv4(192, 0, 2, 1));
  EXPECT_TRUE(zone_.lookup(DnsName::parse_or_throw("other.example.org"), RrType::A).empty());
}

TEST_F(ZoneTest, TypeFiltering) {
  const DnsName name = DnsName::parse_or_throw("www.example.org");
  zone_.add(ResourceRecord{name, RrType::A, 300, net::IPv4(192, 0, 2, 1)});
  zone_.add(ResourceRecord{name, RrType::AAAA, 300, *net::IPv6::parse("2001:db8::1")});
  EXPECT_EQ(zone_.lookup(name, RrType::A).size(), 1u);
  EXPECT_EQ(zone_.lookup(name, RrType::AAAA).size(), 1u);
  EXPECT_TRUE(zone_.lookup(name, RrType::MX).empty());
}

TEST_F(ZoneTest, CnamePrecedesOtherTypes) {
  const DnsName name = DnsName::parse_or_throw("alias.example.org");
  zone_.add(ResourceRecord{name, RrType::CNAME, 300, DnsName::parse_or_throw("real.example.org")});
  const auto answers = zone_.lookup(name, RrType::A);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].type, RrType::CNAME);
}

TEST_F(ZoneTest, WildcardSynthesis) {
  zone_.add(ResourceRecord{DnsName::parse_or_throw("*.example.org", {true, false}), RrType::A,
                           300, net::IPv4(192, 0, 2, 9)});
  const auto answers = zone_.lookup(DnsName::parse_or_throw("anything.example.org"), RrType::A);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].name.to_string(), "anything.example.org");  // owner synthesized
}

TEST_F(ZoneTest, ExactBeatsWildcard) {
  zone_.add(ResourceRecord{DnsName::parse_or_throw("*.example.org", {true, false}), RrType::A,
                           300, net::IPv4(192, 0, 2, 9)});
  zone_.add(ResourceRecord{DnsName::parse_or_throw("www.example.org"), RrType::A, 300,
                           net::IPv4(192, 0, 2, 1)});
  const auto answers = zone_.lookup(DnsName::parse_or_throw("www.example.org"), RrType::A);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].a(), net::IPv4(192, 0, 2, 1));
}

TEST_F(ZoneTest, DefaultACatchAll) {
  zone_.set_default_a(net::IPv4(203, 0, 113, 5));
  const auto answers =
      zone_.lookup(DnsName::parse_or_throw("zz9placeholder.example.org"), RrType::A);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].a(), net::IPv4(203, 0, 113, 5));
  // Catch-all only answers A queries.
  EXPECT_TRUE(zone_.lookup(DnsName::parse_or_throw("zz9.example.org"), RrType::AAAA).empty());
}

TEST_F(ZoneTest, RejectsOutOfZoneRecords) {
  EXPECT_THROW(zone_.add(ResourceRecord{DnsName::parse_or_throw("www.other.org"), RrType::A, 300,
                                        net::IPv4(1, 2, 3, 4)}),
               std::invalid_argument);
}

// ---------- resolver ----------

class ResolverTest : public ::testing::Test {
 protected:
  ResolverTest() {
    Zone& zone = server_.add_zone(DnsName::parse_or_throw("example.org"));
    zone.add(ResourceRecord{DnsName::parse_or_throw("www.example.org"), RrType::A, 300,
                            net::IPv4(192, 0, 2, 1)});
    zone.add(ResourceRecord{DnsName::parse_or_throw("mail.example.org"), RrType::MX, 300,
                            DnsName::parse_or_throw("mx.example.org")});
    // CNAME chain of depth 3.
    zone.add(ResourceRecord{DnsName::parse_or_throw("a.example.org"), RrType::CNAME, 300,
                            DnsName::parse_or_throw("b.example.org")});
    zone.add(ResourceRecord{DnsName::parse_or_throw("b.example.org"), RrType::CNAME, 300,
                            DnsName::parse_or_throw("c.example.org")});
    zone.add(ResourceRecord{DnsName::parse_or_throw("c.example.org"), RrType::A, 300,
                            net::IPv4(192, 0, 2, 3)});
    // CNAME loop.
    zone.add(ResourceRecord{DnsName::parse_or_throw("loop1.example.org"), RrType::CNAME, 300,
                            DnsName::parse_or_throw("loop2.example.org")});
    zone.add(ResourceRecord{DnsName::parse_or_throw("loop2.example.org"), RrType::CNAME, 300,
                            DnsName::parse_or_throw("loop1.example.org")});
    universe_.add_server(server_);
    identity_.address = net::IPv4(8, 8, 8, 8);
    identity_.asn = 15169;
    identity_.label = "test-resolver";
  }

  AuthoritativeServer server_;
  DnsUniverse universe_;
  RecursiveResolver::Identity identity_;
  SimTime now_ = SimTime::parse("2018-04-27");
};

TEST_F(ResolverTest, ResolvesARecord) {
  const RecursiveResolver resolver(universe_, identity_);
  const auto result = resolver.resolve(DnsName::parse_or_throw("www.example.org"), RrType::A, now_);
  EXPECT_EQ(result.status, ResolveStatus::ok);
  EXPECT_EQ(result.first_a(), net::IPv4(192, 0, 2, 1));
}

TEST_F(ResolverTest, NxdomainForMissingName) {
  const RecursiveResolver resolver(universe_, identity_);
  const auto result =
      resolver.resolve(DnsName::parse_or_throw("missing.example.org"), RrType::A, now_);
  EXPECT_EQ(result.status, ResolveStatus::nxdomain);
  EXPECT_FALSE(result.first_a());
}

TEST_F(ResolverTest, NxdomainForForeignZone) {
  const RecursiveResolver resolver(universe_, identity_);
  const auto result =
      resolver.resolve(DnsName::parse_or_throw("www.unknown-zone.net"), RrType::A, now_);
  EXPECT_EQ(result.status, ResolveStatus::nxdomain);
}

TEST_F(ResolverTest, NoDataWhenTypeMissing) {
  const RecursiveResolver resolver(universe_, identity_);
  const auto result =
      resolver.resolve(DnsName::parse_or_throw("mail.example.org"), RrType::A, now_);
  EXPECT_EQ(result.status, ResolveStatus::no_data);
}

TEST_F(ResolverTest, FollowsCnameChain) {
  const RecursiveResolver resolver(universe_, identity_);
  const auto result = resolver.resolve(DnsName::parse_or_throw("a.example.org"), RrType::A, now_);
  EXPECT_EQ(result.status, ResolveStatus::ok);
  EXPECT_EQ(result.cname_hops, 2);
  EXPECT_EQ(result.first_a(), net::IPv4(192, 0, 2, 3));
}

TEST_F(ResolverTest, CnameLoopHitsHopLimit) {
  const RecursiveResolver resolver(universe_, identity_);
  const auto result =
      resolver.resolve(DnsName::parse_or_throw("loop1.example.org"), RrType::A, now_);
  EXPECT_EQ(result.status, ResolveStatus::chain_too_long);
}

TEST_F(ResolverTest, HopBudgetIsConfigurable) {
  const RecursiveResolver resolver(universe_, identity_);
  // The a->b->c chain needs 2 hops; a budget of 1 is insufficient.
  const auto tight = resolver.resolve(DnsName::parse_or_throw("a.example.org"), RrType::A, now_,
                                      std::nullopt, 1);
  EXPECT_EQ(tight.status, ResolveStatus::chain_too_long);
}

TEST_F(ResolverTest, QueriesAreLoggedWithContext) {
  const RecursiveResolver resolver(universe_, identity_);
  (void)resolver.resolve(DnsName::parse_or_throw("www.example.org"), RrType::A, now_);
  ASSERT_FALSE(server_.log().empty());
  const QueryLogEntry& entry = server_.log().back();
  EXPECT_EQ(entry.question.qname.to_string(), "www.example.org");
  EXPECT_EQ(entry.context.resolver_asn, 15169u);
  EXPECT_EQ(entry.context.resolver_label, "test-resolver");
  EXPECT_TRUE(entry.answered);
  EXPECT_FALSE(entry.context.client_subnet);  // no ECS without sends_ecs
}

TEST_F(ResolverTest, EcsAttachedWhenEnabled) {
  RecursiveResolver::Identity ecs = identity_;
  ecs.sends_ecs = true;
  const RecursiveResolver resolver(universe_, ecs);
  (void)resolver.resolve(DnsName::parse_or_throw("www.example.org"), RrType::A, now_,
                         net::IPv4(88, 198, 7, 33));
  const QueryLogEntry& entry = server_.log().back();
  ASSERT_TRUE(entry.context.client_subnet);
  EXPECT_EQ(entry.context.client_subnet->to_string(), "88.198.7.0/24");
}

TEST_F(ResolverTest, LoggingCanBeDisabled) {
  server_.set_logging(false);
  const RecursiveResolver resolver(universe_, identity_);
  (void)resolver.resolve(DnsName::parse_or_throw("www.example.org"), RrType::A, now_);
  EXPECT_TRUE(server_.log().empty());
}

TEST(AuthoritativeServerTest, LongestOriginWins) {
  AuthoritativeServer server;
  server.add_zone(DnsName::parse_or_throw("example.org"));
  Zone& sub = server.add_zone(DnsName::parse_or_throw("sub.example.org"));
  sub.add(ResourceRecord{DnsName::parse_or_throw("www.sub.example.org"), RrType::A, 300,
                         net::IPv4(10, 0, 0, 1)});
  const Zone* found = server.find_zone(DnsName::parse_or_throw("www.sub.example.org"));
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->origin().to_string(), "sub.example.org");
}

}  // namespace
}  // namespace ctwatch::dns

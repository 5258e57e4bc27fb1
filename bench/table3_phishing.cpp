// Table 3: potential phishing domains identified in CT.
//
// Expected shape (paper): Apple ~63k, PayPal ~58k, Microsoft ~4k, Google
// ~1k, eBay <1k (we run at ~1/100 scale); legitimate brand domains are
// excluded; 28 % of eBay findings sit on bid/review, ~4 % of Microsoft
// findings on the live suffix; government taxation offices also appear.
#include "bench_common.hpp"

using namespace ctwatch;

namespace {

void BM_PhishingScan(benchmark::State& state) {
  static const sim::PhishingCorpus corpus = sim::generate_phishing_corpus();
  static const dns::PublicSuffixList psl = dns::PublicSuffixList::bundled();
  for (auto _ : state) {
    phishing::PhishingDetector detector(psl, phishing::standard_rules());
    benchmark::DoNotOptimize(detector.scan(corpus.names));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(corpus.names.size()));
}
BENCHMARK(BM_PhishingScan)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bench::banner("Table 3 — potential phishing domains identified in CT",
                "brand-literal matching + legitimate-domain exclusion, ~1/100 scale");
  const sim::PhishingCorpus corpus = sim::generate_phishing_corpus();
  const dns::PublicSuffixList psl = dns::PublicSuffixList::bundled();
  // Mix the phishing corpus into a large benign background so exclusion and
  // false positives are actually exercised.
  sim::DomainCorpusOptions bg_options;
  bg_options.registrable_count = 20000;
  sim::DomainCorpus background(bg_options);
  std::vector<std::string> names = background.ct_names();
  names.insert(names.end(), corpus.names.begin(), corpus.names.end());

  phishing::PhishingDetector detector(psl, phishing::standard_rules());
  const auto findings = detector.scan(names);
  const auto summary = phishing::PhishingDetector::summarize(findings);

  std::printf("scanned %llu names (%llu planted phishing, %llu legitimate brand names)\n\n",
              static_cast<unsigned long long>(detector.names_scanned()),
              static_cast<unsigned long long>(corpus.planted_phishing),
              static_cast<unsigned long long>(corpus.planted_legitimate));
  std::printf("%-12s %8s   %-46s (paper, x100)\n", "service", "count", "example");
  struct PaperRow {
    const char* brand;
    const char* paper;
  };
  for (const PaperRow& row : {PaperRow{"Apple", "63k"}, PaperRow{"PayPal", "58k"},
                              PaperRow{"Microsoft", "4k"}, PaperRow{"Google", "1k"},
                              PaperRow{"eBay", "<1k"}, PaperRow{"Taxation", "-"}}) {
    const auto it = summary.find(row.brand);
    if (it == summary.end()) continue;
    std::printf("%-12s %8llu   %-46s %s\n", row.brand,
                static_cast<unsigned long long>(it->second.count),
                it->second.example.c_str(), row.paper);
  }

  // Suffix-choice links.
  auto suffix_share = [&](const char* brand, std::initializer_list<const char*> suffixes) {
    const auto it = summary.find(brand);
    if (it == summary.end()) return 0.0;
    std::uint64_t hits = 0;
    for (const char* suffix : suffixes) {
      const auto sit = it->second.by_suffix.find(suffix);
      if (sit != it->second.by_suffix.end()) hits += sit->second;
    }
    return 100.0 * static_cast<double>(hits) / static_cast<double>(it->second.count);
  };
  std::printf("\neBay findings on bid/review: %.1f%% (paper: 28%%)\n",
              suffix_share("eBay", {"bid", "review"}));
  std::printf("Microsoft findings on live:  %.1f%% (paper: 4%%)\n",
              suffix_share("Microsoft", {"live"}));

  // Ground truth: nothing legitimate flagged.
  std::uint64_t legit_flagged = 0;
  for (const auto& finding : findings) {
    for (const auto& rule : phishing::standard_rules()) {
      if (rule.legitimate_domains.contains(finding.registrable_domain)) ++legit_flagged;
    }
  }
  std::printf("legitimate brand domains flagged: %llu (must be 0)\n\n",
              static_cast<unsigned long long>(legit_flagged));
  return bench::run_benchmarks(argc, argv);
}

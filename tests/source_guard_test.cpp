// The library must not grow a second proof engine or a second histogram
// type again. Every root and proof goes through ct/tiled.hpp, and every
// distribution is a LogLinearHistogram; the plain RFC 6962 recursion
// lives on only as the test oracle in tests/merkle_oracle.hpp. Likewise
// names are matched once: the phishing rules are literals (the std::regex
// patterns are the oracle in tests/phishing_oracle.hpp), the PSL walks one
// rule table on label text with no per-pool compiled copy, and log entries
// are followed through CtLog itself rather than a stream wrapper. This
// scan fails if src/ or include/ names one of the deleted symbols,
// including in a comment.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

const std::vector<std::string> kDeletedProofAndHistogram = {
    "merkle_range_root", "merkle_root_of", "merkle_inclusion_path", "merkle_consistency_path",
    "obs::Histogram",    "class Histogram", "exponential_bounds",
};

const std::vector<std::string> kDeletedMatcherAndStream = {
    "<regex>",    "std::regex",        "CompiledCache",   "suffix_label_count_ids",
    "label_mask", "regex_evaluations", "scan_refs",       "next_generation",
    "CertStream", "BatchPoller",
};

struct Scan {
  int files = 0;
  std::string hits;  // " file:symbol" per hit
};

Scan scan(const std::filesystem::path& root, const std::vector<std::string>& deleted) {
  Scan out;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(root)) {
    const std::string ext = entry.path().extension().string();
    const std::string name = entry.path().filename().string();
    if (!entry.is_regular_file() ||
        (ext != ".cpp" && ext != ".hpp" && ext != ".h" && name != "CMakeLists.txt")) {
      continue;
    }
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    ++out.files;
    for (const std::string& symbol : deleted) {
      if (text.str().find(symbol) != std::string::npos) {
        out.hits += " " + entry.path().lexically_relative(CTWATCH_SOURCE_DIR).string() + ":" +
                    symbol;
      }
    }
  }
  return out;
}

void expect_library_clean(const std::vector<std::string>& deleted) {
  const std::filesystem::path source_dir = CTWATCH_SOURCE_DIR;
  for (const char* dir : {"src", "include"}) {
    const Scan result = scan(source_dir / dir, deleted);
    EXPECT_GE(result.files, 50) << dir << ": too few files scanned, wrong source dir?";
    EXPECT_EQ(result.hits, "") << dir << " names a deleted symbol";
  }
}

TEST(SourceGuardTest, LibraryNamesNoDeletedProofOrHistogramSymbol) {
  expect_library_clean(kDeletedProofAndHistogram);
}

TEST(SourceGuardTest, LibraryNamesNoDeletedMatcherOrStreamSymbol) {
  expect_library_clean(kDeletedMatcherAndStream);
}

TEST(SourceGuardTest, ScanFindsTheOracleTemplates) {
  // The same scan over tests/ must see the oracle: proof the guard can fail.
  const Scan result =
      scan(std::filesystem::path(CTWATCH_SOURCE_DIR) / "tests", kDeletedProofAndHistogram);
  EXPECT_NE(result.hits.find("merkle_oracle.hpp:merkle_inclusion_path"), std::string::npos)
      << result.hits;
  EXPECT_NE(result.hits.find("merkle_oracle.hpp:merkle_consistency_path"), std::string::npos);
}

TEST(SourceGuardTest, ScanFindsTheRegexOracle) {
  const Scan result =
      scan(std::filesystem::path(CTWATCH_SOURCE_DIR) / "tests", kDeletedMatcherAndStream);
  EXPECT_NE(result.hits.find("phishing_oracle.hpp:<regex>"), std::string::npos) << result.hits;
  EXPECT_NE(result.hits.find("phishing_oracle.hpp:std::regex"), std::string::npos);
}

}  // namespace

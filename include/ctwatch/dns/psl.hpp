// Public Suffix List engine.
//
// The paper defines "base domain" (registrable domain) as the domain
// directly under a public suffix per Mozilla's PSL, and everything in §4/§5
// is keyed on that split: subdomain labels are the labels *below* the
// registrable domain. This implements the PSL matching algorithm — normal
// rules, wildcard rules ("*.ck") and exception rules ("!www.ck") — over a
// bundled snapshot, with the ability to add rules at runtime.
//
// The rules live in one hash map keyed by reversed dotted path, and one
// walk decides every split: it visits the labels from the TLD down and
// probes the map once per depth, until no rule reaches deeper. Both
// split() overloads run that walk on label text — the pooled one reads
// the pool's wait-free label table — so a const list is safe to share
// between threads and holds no lock.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ctwatch/dns/name.hpp"

namespace ctwatch::dns {

/// Result of splitting a name at its public suffix.
struct NameSplit {
  std::string public_suffix;            ///< e.g. "co.uk"
  std::string registrable_domain;       ///< e.g. "example.co.uk"
  std::vector<std::string> subdomain_labels;  ///< e.g. {"www","dev"} for www.dev.example.co.uk

  /// The subdomain part joined with dots ("" when none).
  [[nodiscard]] std::string subdomain() const;
};

/// Pooled split: the same decomposition, but every part stays interned.
/// The leading subdomain label (what Table 2 counts) is
/// pool.ids(name)[0] whenever subdomain_label_count > 0.
struct RefSplit {
  namepool::NameRef public_suffix;
  namepool::NameRef registrable_domain;
  std::uint32_t subdomain_label_count = 0;  ///< labels below the registrable domain
};

class PublicSuffixList {
 public:
  /// Empty list: every name's suffix is its TLD (the PSL "prevailing rule"
  /// is "*", i.e. match one label).
  PublicSuffixList() = default;

  /// The bundled snapshot with the suffixes the experiments exercise plus
  /// common ICANN suffixes. Shaped like (a subset of) the real PSL.
  static PublicSuffixList bundled();
  /// The bundled snapshot's rule text, in PSL syntax.
  static std::string_view bundled_rules();

  /// Adds a rule in PSL syntax: "co.uk", "*.ck", "!www.ck".
  /// Throws std::invalid_argument on malformed rules.
  void add_rule(const std::string& rule);
  /// Parses newline-separated PSL text (comments "//" and blanks skipped).
  void add_rules_text(const std::string& text);

  [[nodiscard]] std::size_t rule_count() const { return rule_count_; }

  /// Longest-matching public suffix for the name, per the PSL algorithm.
  /// A name that *is* a public suffix (or is shorter) has no registrable
  /// domain; those return std::nullopt from split().
  [[nodiscard]] std::string public_suffix(const DnsName& name) const;

  /// Splits into suffix / registrable domain / subdomain labels.
  [[nodiscard]] std::optional<NameSplit> split(const DnsName& name) const;

  /// Convenience over a textual name; invalid names yield std::nullopt.
  [[nodiscard]] std::optional<NameSplit> split(const std::string& name) const;

  /// Splits a pooled name. Suffix and registrable domain are interned into
  /// `pool` (usually pure table hits); no string is allocated. The rules
  /// are matched on the pool's label text, so the decision is the one
  /// split() makes and the list itself takes no lock.
  [[nodiscard]] std::optional<RefSplit> split(namepool::NamePool& pool,
                                              namepool::NameRef name) const;

 private:
  /// Bits of the rule kinds present at one path; `deeper` marks a path
  /// that a longer rule extends.
  enum RuleKind : std::uint8_t { normal = 1, wildcard = 2, exception = 4, deeper = 8 };

  /// Number of labels the matched suffix spans (>= 1 by the prevailing
  /// rule). `label(i)` is the i-th of `count` labels, leftmost first.
  template <typename LabelAt>
  [[nodiscard]] std::size_t suffix_label_count(std::size_t count, LabelAt label) const;

  struct PathHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view path) const {
      return std::hash<std::string_view>{}(path);
    }
  };
  // Keyed by the reversed dotted path ("uk.co" for co.uk, "ck" for *.ck
  // and "ck.www" for !www.ck); the value ORs the RuleKinds at that path.
  // Every proper prefix of a rule path is present, so the walk stops at
  // the first miss.
  std::unordered_map<std::string, std::uint8_t, PathHash, std::equal_to<>> rules_;
  std::size_t rule_count_ = 0;
};

}  // namespace ctwatch::dns

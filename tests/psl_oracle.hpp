// The earlier PSL matcher, kept as the differential oracle for
// dns::PublicSuffixList: an ordered map with one entry per rule, keyed by
// the reversed dotted path plus ".*" for wildcard and ".!" for exception
// rules, and three probes per depth over a heap-built key. Slow and
// obviously faithful to the PSL algorithm; the library must split every
// name exactly as this does.
#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ctwatch/dns/name.hpp"
#include "ctwatch/dns/psl.hpp"
#include "ctwatch/util/strings.hpp"

namespace ctwatch::dns::oracle {

class PslOracle {
 public:
  void add_rule(const std::string& rule) {
    if (rule.empty()) throw std::invalid_argument("PSL: empty rule");
    Rule parsed;
    std::string body = rule;
    if (body.front() == '!') {
      parsed.kind = RuleKind::exception;
      body.erase(0, 1);
    } else if (body.rfind("*.", 0) == 0) {
      parsed.kind = RuleKind::wildcard;
      body.erase(0, 2);
    } else {
      parsed.kind = RuleKind::normal;
    }
    if (body.empty()) throw std::invalid_argument("PSL: empty rule body: " + rule);
    std::vector<std::string> labels = ctwatch::split(to_lower(body), '.');
    for (const std::string& label : labels) {
      if (!valid_label(label)) throw std::invalid_argument("PSL: bad label in rule: " + rule);
    }
    std::reverse(labels.begin(), labels.end());
    parsed.labels = labels;
    std::string key = join(labels, ".");
    if (parsed.kind == RuleKind::wildcard) key += ".*";
    if (parsed.kind == RuleKind::exception) key += ".!";
    rules_[key] = std::move(parsed);
  }

  void add_rules_text(const std::string& text) {
    for (const std::string& line : ctwatch::split(text, '\n')) {
      std::string trimmed = line;
      while (!trimmed.empty() && (trimmed.back() == '\r' || trimmed.back() == ' ')) {
        trimmed.pop_back();
      }
      std::size_t start = 0;
      while (start < trimmed.size() && trimmed[start] == ' ') ++start;
      trimmed.erase(0, start);
      if (trimmed.empty() || trimmed.rfind("//", 0) == 0) continue;
      add_rule(trimmed);
    }
  }

  [[nodiscard]] std::size_t rule_count() const { return rules_.size(); }

  [[nodiscard]] std::size_t suffix_label_count(const std::vector<std::string>& labels) const {
    std::size_t best = 1;
    bool exception_hit = false;
    std::size_t exception_len = 0;
    std::string path;
    for (std::size_t depth = 1; depth <= labels.size(); ++depth) {
      if (depth > 1) path.push_back('.');
      path += labels[labels.size() - depth];
      if (auto it = rules_.find(path); it != rules_.end() && it->second.kind == RuleKind::normal) {
        best = std::max(best, depth);
      }
      if (rules_.contains(path + ".*") && depth + 1 <= labels.size()) {
        best = std::max(best, depth + 1);
      }
      if (rules_.contains(path + ".!")) {
        exception_hit = true;
        exception_len = depth - 1;
      }
    }
    if (exception_hit) return std::max<std::size_t>(exception_len, 1);
    return best;
  }

  [[nodiscard]] std::string public_suffix(const DnsName& name) const {
    const std::size_t count = std::min(suffix_label_count(name.labels()), name.label_count());
    return name.parent(name.label_count() - count).to_string();
  }

  [[nodiscard]] std::optional<NameSplit> split(const DnsName& name) const {
    const std::size_t suffix_len = suffix_label_count(name.labels());
    if (name.label_count() <= suffix_len) return std::nullopt;
    NameSplit out;
    out.public_suffix = name.parent(name.label_count() - suffix_len).to_string();
    out.registrable_domain = name.parent(name.label_count() - suffix_len - 1).to_string();
    out.subdomain_labels.assign(
        name.labels().begin(),
        name.labels().begin() + static_cast<std::ptrdiff_t>(name.label_count() - suffix_len - 1));
    return out;
  }

 private:
  enum class RuleKind { normal, wildcard, exception };
  struct Rule {
    RuleKind kind;
    std::vector<std::string> labels;  // reversed: TLD first
  };
  std::map<std::string, Rule> rules_;
};

/// The bundled snapshot, loaded into the oracle.
inline PslOracle bundled() {
  PslOracle psl;
  psl.add_rules_text(std::string(PublicSuffixList::bundled_rules()));
  return psl;
}

}  // namespace ctwatch::dns::oracle

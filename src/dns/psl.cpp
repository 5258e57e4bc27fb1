#include "ctwatch/dns/psl.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

#include "ctwatch/util/strings.hpp"

namespace ctwatch::dns {

std::string NameSplit::subdomain() const { return join(subdomain_labels, "."); }

namespace {
// Snapshot of PSL rules sufficient for the experiments: the suffixes the
// paper names explicitly (tech, email, cloud, design, gov, gov.uk, com, ga,
// info, tk, ml, bid, review, live, money, cf, gq, my, co.am, …) plus common
// ICANN country/generic suffixes so synthetic domain populations look
// realistic. Syntax is the PSL's own.
constexpr const char* kBundledRules = R"(// ctwatch PSL snapshot (subset)
com
net
org
info
biz
name
pro
edu
gov
mil
int
io
co
ai
app
dev
page
tech
email
cloud
design
money
live
bid
review
site
online
xyz
top
club
shop
blog
art
wiki
link
click
gq
tk
ml
ga
cf
us
uk
co.uk
org.uk
gov.uk
ac.uk
net.uk
au
com.au
net.au
org.au
gov.au
edu.au
de
fr
it
nl
eu
es
pt
pl
cz
sk
hu
gr
tr
ru
su
jp
co.jp
ne.jp
or.jp
cn
com.cn
net.cn
gov.cn
in
co.in
kr
co.kr
br
com.br
ar
com.ar
mx
com.mx
ca
ch
at
be
dk
no
se
fi
ie
nz
co.nz
za
co.za
il
co.il
my
com.my
gov.my
am
co.am
sg
com.sg
hk
com.hk
tw
com.tw
id
co.id
th
co.th
vn
com.vn
ph
ua
com.ua
by
kz
ge
md
rs
ba
hr
si
lt
lv
ee
is
lu
mc
sm
va
*.ck
!www.ck
)";
}  // namespace

std::string_view PublicSuffixList::bundled_rules() { return kBundledRules; }

PublicSuffixList PublicSuffixList::bundled() {
  PublicSuffixList psl;
  psl.add_rules_text(std::string(kBundledRules));
  return psl;
}

void PublicSuffixList::add_rule(const std::string& rule) {
  if (rule.empty()) throw std::invalid_argument("PSL: empty rule");
  RuleKind kind = normal;
  std::string body = rule;
  if (body.front() == '!') {
    kind = exception;
    body.erase(0, 1);
  } else if (body.rfind("*.", 0) == 0) {
    kind = wildcard;
    body.erase(0, 2);
  }
  if (body.empty()) throw std::invalid_argument("PSL: empty rule body: " + rule);
  // No DNS name is longer, and the matching walk relies on it.
  if (body.size() > 253) throw std::invalid_argument("PSL: rule too long: " + rule);
  std::vector<std::string> labels = ctwatch::split(to_lower(body), '.');
  for (const std::string& label : labels) {
    if (!valid_label(label)) throw std::invalid_argument("PSL: bad label in rule: " + rule);
  }
  std::reverse(labels.begin(), labels.end());
  std::string path = labels.front();
  for (std::size_t depth = 1; depth < labels.size(); ++depth) {
    rules_[path] |= deeper;  // the walk goes on past this path
    path.append(".").append(labels[depth]);
  }
  std::uint8_t& kinds = rules_[path];
  if ((kinds & kind) == 0) ++rule_count_;
  kinds |= kind;
}

void PublicSuffixList::add_rules_text(const std::string& text) {
  for (const std::string& line : ctwatch::split(text, '\n')) {
    std::string trimmed = line;
    // Strip trailing CR and surrounding spaces.
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

template <typename LabelAt>
std::size_t PublicSuffixList::suffix_label_count(std::size_t count, LabelAt label) const {
  // The PSL algorithm over the reversed label path: exception rules beat
  // wildcard/normal; otherwise the longest match wins; no match -> the
  // prevailing rule "*" (one label). One probe per depth, down to the
  // first path that no rule reaches below.
  std::size_t best = 1;
  bool exception_hit = false;
  std::size_t exception_len = 0;

  // A valid name is at most 253 characters, so its reversed path fits;
  // the walk stops early rather than overflow on anything longer.
  std::array<char, 256> buf;
  std::size_t len = 0;
  for (std::size_t depth = 1; depth <= count; ++depth) {
    const std::string_view next = label(count - depth);
    if (len + 1 + next.size() > buf.size()) break;
    if (depth > 1) buf[len++] = '.';
    std::memcpy(buf.data() + len, next.data(), next.size());
    len += next.size();
    const auto it = rules_.find(std::string_view(buf.data(), len));
    if (it == rules_.end()) break;
    if (it->second & normal) best = std::max(best, depth);
    // A wildcard rule "*.<path-of-depth-d>" matches a suffix of depth d+1.
    if ((it->second & wildcard) && depth + 1 <= count) best = std::max(best, depth + 1);
    if (it->second & exception) {
      // Exception rule: the suffix is the rule minus its leftmost label.
      exception_hit = true;
      exception_len = depth - 1;
    }
    if (!(it->second & deeper)) break;
  }
  if (exception_hit) return std::max<std::size_t>(exception_len, 1);
  return best;
}

std::optional<RefSplit> PublicSuffixList::split(namepool::NamePool& pool,
                                                namepool::NameRef name) const {
  const std::span<const namepool::LabelId> ids = pool.ids(name);
  const namepool::LabelTable& labels = pool.labels();
  const std::size_t suffix_len =
      suffix_label_count(ids.size(), [&](std::size_t i) { return labels.text(ids[i]); });
  if (ids.size() <= suffix_len) return std::nullopt;  // the name IS a suffix
  RefSplit out;
  out.public_suffix = pool.parent(name, ids.size() - suffix_len);
  out.registrable_domain = pool.parent(name, ids.size() - suffix_len - 1);
  out.subdomain_label_count = static_cast<std::uint32_t>(ids.size() - suffix_len - 1);
  return out;
}

namespace {
/// The i-th label of a parsed name, as suffix_label_count reads it.
auto label_of(const DnsName& name) {
  return [&name](std::size_t i) { return std::string_view(name.labels()[i]); };
}
}  // namespace

std::string PublicSuffixList::public_suffix(const DnsName& name) const {
  const std::size_t count =
      std::min(suffix_label_count(name.label_count(), label_of(name)), name.label_count());
  return name.parent(name.label_count() - count).to_string();
}

std::optional<NameSplit> PublicSuffixList::split(const DnsName& name) const {
  const std::size_t suffix_len = suffix_label_count(name.label_count(), label_of(name));
  if (name.label_count() <= suffix_len) return std::nullopt;  // the name IS a suffix
  NameSplit out;
  out.public_suffix = name.parent(name.label_count() - suffix_len).to_string();
  out.registrable_domain = name.parent(name.label_count() - suffix_len - 1).to_string();
  out.subdomain_labels.assign(
      name.labels().begin(),
      name.labels().begin() + static_cast<std::ptrdiff_t>(name.label_count() - suffix_len - 1));
  return out;
}

std::optional<NameSplit> PublicSuffixList::split(const std::string& name) const {
  const auto parsed = DnsName::parse(name);
  if (!parsed) return std::nullopt;
  return split(*parsed);
}

}  // namespace ctwatch::dns

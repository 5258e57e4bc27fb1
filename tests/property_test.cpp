// Randomized property sweeps across module boundaries: encode/decode
// round trips, signature soundness, Merkle proofs under random workloads.
// Each property runs over a set of seeds via TEST_P so failures name the
// offending seed.
#include <gtest/gtest.h>

#include "ctwatch/ct/auditor.hpp"
#include "ctwatch/dns/psl.hpp"
#include "ctwatch/gossip/gossip.hpp"
#include "ctwatch/namepool/namepool.hpp"
#include "ctwatch/par/par.hpp"
#include "ctwatch/sim/ca.hpp"
#include "ctwatch/util/rng.hpp"
#include "ctwatch/x509/redaction.hpp"
#include "p256_oracle.hpp"

namespace ctwatch {
namespace {

using crypto::SignatureScheme;

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Rng rng_{GetParam()};
};

// ---------- encodings ----------

TEST_P(SeededProperty, HexRoundTripsRandomBuffers) {
  for (int i = 0; i < 50; ++i) {
    Bytes data(rng_.below(200));
    for (auto& byte : data) byte = static_cast<std::uint8_t>(rng_.below(256));
    EXPECT_EQ(hex_decode(hex_encode(data)), data);
  }
}

TEST_P(SeededProperty, Base64RoundTripsRandomBuffers) {
  for (int i = 0; i < 50; ++i) {
    Bytes data(rng_.below(200));
    for (auto& byte : data) byte = static_cast<std::uint8_t>(rng_.below(256));
    EXPECT_EQ(base64_decode(base64_encode(data)), data);
  }
}

TEST_P(SeededProperty, DerOctetStringsRoundTripAnyLength) {
  for (const std::size_t length : {0ul, 1ul, 127ul, 128ul, 255ul, 256ul, 65535ul, 65536ul}) {
    Bytes data(length);
    for (auto& byte : data) byte = static_cast<std::uint8_t>(rng_.below(256));
    const Bytes der = asn1::encode_octet_string(data);
    asn1::Parser parser(der);
    const asn1::Tlv tlv = parser.expect(asn1::kTagOctetString);
    EXPECT_TRUE(std::equal(data.begin(), data.end(), tlv.value.begin()));
    EXPECT_TRUE(parser.done());
  }
}

// ---------- crypto ----------

TEST_P(SeededProperty, Sha256IncrementalAgreesOnRandomChunking) {
  Bytes data(1 + rng_.below(5000));
  for (auto& byte : data) byte = static_cast<std::uint8_t>(rng_.below(256));
  const auto expected = crypto::Sha256::hash(data);
  crypto::Sha256 h;
  std::size_t offset = 0;
  while (offset < data.size()) {
    const std::size_t take = std::min<std::size_t>(1 + rng_.below(257), data.size() - offset);
    h.update(BytesView{data.data() + offset, take});
    offset += take;
  }
  EXPECT_EQ(hex_encode(crypto::digest_bytes(h.finish())),
            hex_encode(crypto::digest_bytes(expected)));
}

TEST_P(SeededProperty, EcdsaRejectsEveryBitFlipInSignature) {
  const auto key = crypto::EcdsaKeyPair::derive("prop-" + std::to_string(GetParam()));
  const Bytes message = to_bytes("property message " + std::to_string(GetParam()));
  const crypto::EcdsaSignature sig = key.sign(message);
  ASSERT_TRUE(crypto::ecdsa_verify(key.public_point(), message, sig));
  Bytes raw = sig.to_bytes();
  for (int i = 0; i < 8; ++i) {
    Bytes mangled = raw;
    const std::size_t byte = rng_.below(mangled.size());
    mangled[byte] ^= static_cast<std::uint8_t>(1 + rng_.below(255));
    const auto bad = crypto::EcdsaSignature::from_bytes(mangled);
    EXPECT_FALSE(crypto::ecdsa_verify(key.public_point(), message, bad));
  }
}

TEST_P(SeededProperty, FieldArithmeticRingAxioms) {
  using namespace crypto;
  const U256& p = p256::prime();
  auto random_element = [&] {
    return oracle::reduce(U256(rng_(), rng_(), rng_(), rng_()), p);
  };
  for (int i = 0; i < 20; ++i) {
    const U256 a = random_element();
    const U256 b = random_element();
    const U256 c = random_element();
    // Commutativity and distributivity of the fast field multiply.
    EXPECT_EQ(p256::field_mul(a, b), p256::field_mul(b, a));
    const U256 left = p256::field_mul(a, oracle::add(b, c, p));
    const U256 right = oracle::add(p256::field_mul(a, b), p256::field_mul(a, c), p);
    EXPECT_EQ(left, right);
  }
}

// ---------- x509 ----------

TEST_P(SeededProperty, RandomCertificatesRoundTripThroughDer) {
  const auto ca = crypto::make_signer("prop-ca", SignatureScheme::hmac_sha256_simulated);
  const auto subject =
      crypto::make_signer("prop-subject", SignatureScheme::hmac_sha256_simulated);
  for (int i = 0; i < 20; ++i) {
    x509::CertificateBuilder builder;
    x509::DistinguishedName issuer;
    issuer.common_name = "CA " + rng_.alnum_label(6);
    if (rng_.chance(0.5)) issuer.organization = "Org " + rng_.alnum_label(4);
    if (rng_.chance(0.5)) issuer.country = "DE";
    builder.serial(rng_()).issuer(issuer).subject_cn(rng_.alnum_label(8) + ".example.org");
    const SimTime nb = SimTime::parse("2016-01-01") +
                       static_cast<std::int64_t>(rng_.below(700)) * 86400;
    builder.validity(nb, nb + static_cast<std::int64_t>(30 + rng_.below(700)) * 86400);
    builder.subject_key(*subject);
    const std::size_t san_count = rng_.below(5);
    for (std::size_t s = 0; s < san_count; ++s) {
      if (rng_.chance(0.8)) {
        builder.add_dns_san(rng_.alnum_label(6) + ".example.org");
      } else {
        builder.add_ip_san(net::IPv4(static_cast<std::uint32_t>(rng_())));
      }
    }
    if (rng_.chance(0.3)) builder.poison();
    const x509::Certificate cert = builder.sign(*ca);
    const x509::Certificate decoded = x509::Certificate::decode(cert.encode());
    EXPECT_EQ(decoded, cert);
    EXPECT_TRUE(decoded.verify(ca->public_key()));
  }
}

TEST_P(SeededProperty, RedactionNeverLeaksSubdomainLabels) {
  for (int i = 0; i < 30; ++i) {
    const std::string label = rng_.alnum_label(1 + rng_.below(12));
    const std::string name = label + "." + rng_.alnum_label(5) + ".org";
    const std::string redacted = x509::redact_dns_name(name);
    EXPECT_EQ(redacted.find(label + "."), std::string::npos) << name;
    EXPECT_TRUE(x509::is_redacted_name(redacted)) << redacted;
  }
}

// ---------- Merkle under random workloads ----------

TEST_P(SeededProperty, RandomTreeProofsAllVerify) {
  ct::MerkleTree tree;
  const std::uint64_t size = 1 + rng_.below(200);
  for (std::uint64_t i = 0; i < size; ++i) {
    tree.append(crypto::Sha256::hash(to_bytes("leaf" + std::to_string(rng_()))));
  }
  // Random (index, tree_size) inclusion checks.
  for (int i = 0; i < 30; ++i) {
    const std::uint64_t at = 1 + rng_.below(size);
    const std::uint64_t index = rng_.below(at);
    const auto proof = tree.inclusion_proof(index, at);
    EXPECT_TRUE(ct::verify_inclusion(tree.leaf(index), index, at, proof, tree.root_at(at)));
  }
  // Random consistency checks.
  for (int i = 0; i < 30; ++i) {
    const std::uint64_t newer = 1 + rng_.below(size);
    const std::uint64_t older = rng_.below(newer + 1);
    const auto proof = tree.consistency_proof(older, newer);
    EXPECT_TRUE(ct::verify_consistency(older, newer, tree.root_at(older), tree.root_at(newer),
                                       proof));
  }
}

// ---------- full issuance under random inputs ----------

TEST_P(SeededProperty, RandomIssuanceAlwaysProducesVerifiableScts) {
  ct::LogConfig config;
  config.name = "Prop Log " + std::to_string(GetParam());
  config.scheme = SignatureScheme::hmac_sha256_simulated;
  ct::CtLog log(config);
  sim::CertificateAuthority ca("Prop CA", "Prop Issuing CA",
                               SignatureScheme::hmac_sha256_simulated);
  const SimTime base = SimTime::parse("2018-04-01");
  for (int i = 0; i < 15; ++i) {
    sim::IssuanceRequest request;
    request.subject_cn = rng_.alnum_label(8) + ".example.net";
    request.sans = {x509::SanEntry::dns(request.subject_cn)};
    const std::size_t extra = rng_.below(3);
    for (std::size_t s = 0; s < extra; ++s) {
      request.sans.push_back(x509::SanEntry::dns(rng_.alnum_label(6) + ".example.net"));
    }
    request.not_before = base;
    request.not_after = base + static_cast<std::int64_t>(30 + rng_.below(400)) * 86400;
    request.logs = {&log};
    request.redact_subdomains = rng_.chance(0.3);
    const sim::IssuanceResult issued = ca.issue(request, base + i * 60);
    ASSERT_EQ(issued.scts.size(), 1u);
    const ct::SignedEntry entry =
        ct::make_precert_entry(issued.final_certificate, ca.public_key());
    EXPECT_TRUE(ct::verify_sct(issued.scts[0], entry, log.public_key()))
        << "iteration " << i << " redacted=" << request.redact_subdomains;
  }
  // The log's final STH covers everything and every entry proves inclusion.
  const ct::SignedTreeHead sth = log.get_sth(base + 86400);
  EXPECT_TRUE(ct::verify_sth(sth, log.public_key()));
  for (std::uint64_t i = 0; i < sth.tree_size; ++i) {
    EXPECT_TRUE(ct::LogAuditor::check_inclusion(log, i, sth));
  }
}

// ---------- PSL vs DnsName coherence ----------

TEST_P(SeededProperty, PslSplitReassemblesToOriginalName) {
  const dns::PublicSuffixList psl = dns::PublicSuffixList::bundled();
  const std::vector<std::string> suffixes = {"com", "co.uk", "de", "tech", "gov.uk", "ck",
                                             "unknowntld"};
  for (int i = 0; i < 60; ++i) {
    std::string name = rng_.alnum_label(1 + rng_.below(8));
    const std::size_t depth = rng_.below(3);
    for (std::size_t d = 0; d < depth; ++d) name += "." + rng_.alnum_label(1 + rng_.below(8));
    name += "." + suffixes[rng_.below(suffixes.size())];
    const auto parsed = dns::DnsName::parse(name);
    if (!parsed) continue;
    const auto split = psl.split(*parsed);
    if (!split) continue;  // the name is itself a suffix
    const std::string rebuilt = split->subdomain_labels.empty()
                                    ? split->registrable_domain
                                    : split->subdomain() + "." + split->registrable_domain;
    EXPECT_EQ(rebuilt, parsed->to_string());
    // The registrable domain is the suffix plus exactly one more label.
    const auto registrable = dns::DnsName::parse(split->registrable_domain);
    ASSERT_TRUE(registrable);
    const auto suffix = dns::DnsName::parse(split->public_suffix);
    if (suffix) {
      EXPECT_EQ(registrable->label_count(), suffix->label_count() + 1);
      EXPECT_TRUE(registrable->is_subdomain_of(*suffix));
    }
  }
}

// ---------- parallel primitives ----------

TEST_P(SeededProperty, ParallelReduceMatchesSerialFoldAtRandomShapes) {
  struct Guard {
    ~Guard() { par::TaskPool::set_global_threads(0); }
  } guard;
  // String concatenation is associative but not commutative: the tree
  // merge must equal the serial left fold for every (n, grain, threads).
  for (int round = 0; round < 10; ++round) {
    const std::size_t n = rng_.below(1200);
    const std::size_t grain = 1 + rng_.below(100);
    const unsigned threads = 1 + static_cast<unsigned>(rng_.below(8));
    par::TaskPool::set_global_threads(threads);

    std::string expected;
    for (std::size_t i = 0; i < n; ++i) expected += std::to_string(i) + ";";
    const std::string got = par::parallel_reduce(
        n, grain, std::string{},
        [](std::size_t, par::IndexRange range) {
          std::string part;
          for (std::size_t i = range.begin; i < range.end; ++i) {
            part += std::to_string(i) + ";";
          }
          return part;
        },
        [](std::string a, std::string b) { return std::move(a) + b; });
    EXPECT_EQ(got, expected) << "n=" << n << " grain=" << grain << " threads=" << threads;
  }
}

TEST_P(SeededProperty, ShardedTotalsAreInvariantUnderShardCount) {
  // Whatever the shard count, every key lands in exactly one shard: the
  // collapsed total is a constant of the data.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
  const std::size_t count = 500 + rng_.below(3000);
  std::uint64_t reference = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t key = rng_();
    const std::uint64_t value = rng_.below(1000);
    entries.emplace_back(key, value);
    reference += value;
  }
  for (const std::size_t shard_count : {1u, 3u, 64u, 257u}) {
    par::ShardedAccumulator<std::uint64_t> shards(shard_count);
    for (const auto& [key, value] : entries) {
      shards.shard(shards.shard_of(key)) += value;
    }
    std::uint64_t total = 0;
    shards.collapse_into(total, [](std::uint64_t& target, std::uint64_t v) { target += v; });
    EXPECT_EQ(total, reference) << shard_count << " shards";
  }
}

// ---------- pooled name parsing vs the string path ----------

TEST_P(SeededProperty, PooledParseAndPslSplitAgreeWithStringPath) {
  const dns::PublicSuffixList psl = dns::PublicSuffixList::bundled();
  namepool::NamePool pool;
  const std::vector<std::string> suffixes = {"com", "co.uk", "de", "tech", "gov.uk",
                                             "unknowntld"};
  for (int i = 0; i < 80; ++i) {
    // Random names, occasionally mangled into invalid shapes; parse()
    // and parse_into() must agree on validity and on every byte.
    std::string name = rng_.alnum_label(1 + rng_.below(10));
    const std::size_t depth = rng_.below(3);
    for (std::size_t d = 0; d < depth; ++d) name += "." + rng_.alnum_label(1 + rng_.below(10));
    name += "." + suffixes[rng_.below(suffixes.size())];
    if (rng_.chance(0.15)) name += ".";                       // trailing dot
    if (rng_.chance(0.15)) name[rng_.below(name.size())] = 'A';  // case folding
    if (rng_.chance(0.1)) name.insert(rng_.below(name.size()), ".");  // maybe ".."

    const auto parsed = dns::DnsName::parse(name);
    const auto ref = dns::DnsName::parse_into(pool, name);
    ASSERT_EQ(parsed.has_value(), ref.has_value()) << name;
    if (!parsed) continue;

    // Round trip through the pool reproduces the parsed name exactly.
    EXPECT_EQ(dns::DnsName::materialize(pool, *ref), *parsed) << name;
    EXPECT_EQ(pool.to_string(*ref), parsed->to_string()) << name;

    // The pooled PSL split agrees with the string split on every part.
    const auto split = psl.split(*parsed);
    const auto ref_split = psl.split(pool, *ref);
    ASSERT_EQ(split.has_value(), ref_split.has_value()) << name;
    if (!split) continue;
    EXPECT_EQ(pool.to_string(ref_split->public_suffix), split->public_suffix) << name;
    EXPECT_EQ(pool.to_string(ref_split->registrable_domain), split->registrable_domain)
        << name;
    EXPECT_EQ(ref_split->subdomain_label_count, split->subdomain_labels.size()) << name;
    if (ref_split->subdomain_label_count > 0) {
      EXPECT_EQ(pool.label(*ref, 0), split->subdomain_labels[0]) << name;
    }
  }
}

// ---------- gossip ----------

/// A random gossip topology over an equivocating log: every peer polls
/// one face; edges may be chaos-dead (a permanent link outage — the
/// edge exists but never delivers).
struct GossipTopology {
  std::size_t peers = 0;
  std::vector<bool> polls_right;                         // side per peer
  std::vector<std::pair<std::size_t, std::size_t>> alive;
  std::vector<std::pair<std::size_t, std::size_t>> dead;

  [[nodiscard]] std::string describe() const {
    std::string out = "peers=" + std::to_string(peers) + " sides=";
    for (const bool r : polls_right) out += r ? 'R' : 'L';
    out += " alive={";
    for (const auto& [a, b] : alive) out += std::to_string(a) + "-" + std::to_string(b) + " ";
    out += "} dead={";
    for (const auto& [a, b] : dead) out += std::to_string(a) + "-" + std::to_string(b) + " ";
    return out + "}";
  }
};

/// The oracle: detection must occur iff some connected component of the
/// ALIVE gossip graph contains peers polling both faces (only then can
/// any actor ever hold signed heads from both sides of the fork).
bool gossip_partitions_connected(const GossipTopology& topology) {
  std::vector<std::size_t> parent(topology.peers);
  for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  const auto find = [&](std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (const auto& [a, b] : topology.alive) parent[find(a)] = find(b);
  std::vector<std::uint8_t> has_left(topology.peers, 0), has_right(topology.peers, 0);
  for (std::size_t i = 0; i < topology.peers; ++i) {
    (topology.polls_right[i] ? has_right : has_left)[find(i)] = 1;
  }
  for (std::size_t i = 0; i < topology.peers; ++i) {
    if (has_left[i] && has_right[i]) return true;
  }
  return false;
}

/// Runs the real machinery (two LogService faces, chaos-killed links,
/// flood-fanout gossip) and reports whether a verdict fired.
bool gossip_trial_detects(const GossipTopology& topology, std::uint64_t seed) {
  gossip::EquivocationPlan plan;
  plan.base.name = "Property Equivocator";
  plan.base.scheme = SignatureScheme::hmac_sha256_simulated;
  plan.base.merge_delay = std::chrono::microseconds(500);
  plan.fork_index = 1;
  gossip::EquivocatingLog log(plan);
  const SimTime start = SimTime::parse("2018-04-01");
  log.grow(3, start);

  chaos::FaultInjector injector(seed);
  chaos::FaultPlan dead_plan;
  dead_plan.outages.push_back(chaos::OutageWindow{0, ~std::uint64_t{0}});
  dead_plan.outage_kind = chaos::FaultKind::error;
  for (const auto& [a, b] : topology.dead) {
    injector.plan("gossip.link." + std::to_string(std::min(a, b)) + "-" +
                      std::to_string(std::max(a, b)),
                  dead_plan);
  }

  gossip::NetConfig config;
  config.fanout = topology.peers;  // flood: fanout covers every neighbour
  config.seed = seed;
  config.chaos = &injector;
  gossip::GossipNet net(config, log.public_key());
  for (std::size_t i = 0; i < topology.peers; ++i) {
    net.add_peer(log.view(topology.polls_right[i] ? gossip::Side::right : gossip::Side::left));
  }
  for (const auto& [a, b] : topology.alive) net.connect(a, b);
  for (const auto& [a, b] : topology.dead) net.connect(a, b);  // present but chaos-dead

  const std::uint64_t rounds = topology.peers + 4;  // >= graph diameter + slack
  for (std::uint64_t round = 1; round <= rounds && !net.detected(); ++round) {
    net.step(SimTime{start.unix_seconds() + static_cast<std::int64_t>(round) * 60});
  }
  return net.detected();
}

TEST_P(SeededProperty, GossipDetectsIffPartitionsAreGossipConnected) {
  for (int iteration = 0; iteration < 3; ++iteration) {
    GossipTopology topology;
    topology.peers = 4 + rng_.below(5);
    topology.polls_right.resize(topology.peers, false);
    for (std::size_t i = 0; i < topology.peers; ++i) topology.polls_right[i] = rng_.chance(0.5);
    topology.polls_right[0] = false;  // at least one peer per side
    topology.polls_right[1] = true;
    for (std::size_t a = 0; a < topology.peers; ++a) {
      for (std::size_t b = a + 1; b < topology.peers; ++b) {
        if (!rng_.chance(0.3)) continue;
        (rng_.chance(0.3) ? topology.dead : topology.alive).emplace_back(a, b);
      }
    }
    const std::uint64_t seed = GetParam() * 1000 + static_cast<std::uint64_t>(iteration);

    const bool expected = gossip_partitions_connected(topology);
    const bool detected = gossip_trial_detects(topology, seed);
    if (detected == expected) continue;

    // Shrink: drop edges one at a time while the disagreement persists,
    // then report the minimal failing topology for replay.
    GossipTopology minimal = topology;
    bool shrunk = true;
    while (shrunk) {
      shrunk = false;
      for (auto* edges : {&minimal.alive, &minimal.dead}) {
        for (std::size_t e = 0; e < edges->size(); ++e) {
          GossipTopology candidate = minimal;
          auto& candidate_edges = edges == &minimal.alive ? candidate.alive : candidate.dead;
          candidate_edges.erase(candidate_edges.begin() + static_cast<std::ptrdiff_t>(e));
          if (gossip_trial_detects(candidate, seed) != gossip_partitions_connected(candidate)) {
            minimal = std::move(candidate);
            shrunk = true;
            break;
          }
        }
        if (shrunk) break;
      }
    }
    ADD_FAILURE() << "gossip detection disagreed with the connectivity oracle\n"
                  << "  seed " << seed << ": detected=" << detected << " expected=" << expected
                  << "\n  original: " << topology.describe()
                  << "\n  minimal:  " << minimal.describe();
    return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1ull, 2ull, 3ull, 0xdeadbeefull, 0x5eedull));

}  // namespace
}  // namespace ctwatch

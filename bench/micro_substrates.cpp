// Micro-benchmarks of the hot substrate operations: hashing, signatures,
// Merkle tree maintenance, DER encoding, PSL splitting, DNS resolution.
#include <benchmark/benchmark.h>

#include "ctwatch/ct/log.hpp"
#include "ctwatch/dns/psl.hpp"
#include "ctwatch/sim/ca.hpp"

using namespace ctwatch;

namespace {

void BM_Sha256_1KiB(benchmark::State& state) {
  const Bytes data(1024, 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

void BM_EcdsaSign(benchmark::State& state) {
  const auto key = crypto::EcdsaKeyPair::derive("bench");
  const Bytes msg = to_bytes("benchmark message");
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.sign(msg));
  }
}
BENCHMARK(BM_EcdsaSign);

void BM_EcdsaVerify(benchmark::State& state) {
  const auto key = crypto::EcdsaKeyPair::derive("bench");
  const Bytes msg = to_bytes("benchmark message");
  const auto sig = key.sign(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::ecdsa_verify(key.public_point(), msg, sig));
  }
}
BENCHMARK(BM_EcdsaVerify);

// Verification under more keys than the table cache holds, round-robin: a
// key earns a table, is evicted before its next turn, and earns one again
// kKeyTableAdmitAfter verifies later. The worst case for the key tables.
void BM_EcdsaVerifyRotatingKeys(benchmark::State& state) {
  struct Signed {
    crypto::EcdsaKeyPair key;
    Bytes msg;
    crypto::EcdsaSignature sig;
  };
  std::vector<Signed> keys;
  for (std::size_t i = 0; i < 2 * crypto::p256::kKeyTableCapacity; ++i) {
    const auto key = crypto::EcdsaKeyPair::derive("bench-rotating-" + std::to_string(i));
    Bytes msg = to_bytes("benchmark message " + std::to_string(i));
    const auto sig = key.sign(msg);
    keys.push_back({key, std::move(msg), sig});
  }
  std::size_t next = 0;
  for (auto _ : state) {
    const Signed& k = keys[next];
    next = (next + 1) % keys.size();
    benchmark::DoNotOptimize(crypto::ecdsa_verify(k.key.public_point(), k.msg, k.sig));
  }
}
BENCHMARK(BM_EcdsaVerifyRotatingKeys);

// The verify that earns a fresh key its table: the table build plus one
// verify that reads it. The key's earlier verifies run untimed.
void BM_P256KeyTableBuild(benchmark::State& state) {
  static int fresh = 0;
  const Bytes msg = to_bytes("benchmark message");
  for (auto _ : state) {
    state.PauseTiming();
    const auto key = crypto::EcdsaKeyPair::derive("bench-table-" + std::to_string(fresh++));
    const auto sig = key.sign(msg);
    for (std::uint32_t i = 1; i < crypto::p256::kKeyTableAdmitAfter; ++i) {
      benchmark::DoNotOptimize(crypto::ecdsa_verify(key.public_point(), msg, sig));
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(crypto::ecdsa_verify(key.public_point(), msg, sig));
  }
}
BENCHMARK(BM_P256KeyTableBuild)->Iterations(32)->Unit(benchmark::kMicrosecond);

// P-256 building blocks. Operands are hashed at run time so nothing folds
// to a constant; the field and scalar loops feed each result back in.
crypto::U256 bench_scalar(const std::string& label) {
  const crypto::Digest d = crypto::Sha256::hash(to_bytes(label));
  return crypto::U256::from_bytes(BytesView{d.data(), d.size()});
}

void BM_P256MulBase(benchmark::State& state) {
  const crypto::U256 k = bench_scalar("mul-base");
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::p256_multiply(k, crypto::p256_generator()));
  }
}
BENCHMARK(BM_P256MulBase);

void BM_P256DoubleMul(benchmark::State& state) {
  const auto key = crypto::EcdsaKeyPair::derive("bench");
  const crypto::U256 u1 = bench_scalar("u1");
  const crypto::U256 u2 = bench_scalar("u2");
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::p256_double_multiply(u1, u2, key.public_point()));
  }
}
BENCHMARK(BM_P256DoubleMul);

void BM_P256FieldMul(benchmark::State& state) {
  crypto::U256 a = bench_scalar("field-a");
  const crypto::U256 b = bench_scalar("field-b");
  for (auto _ : state) {
    a = crypto::p256::field_mul(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_P256FieldMul);

void BM_P256ScalarInverse(benchmark::State& state) {
  crypto::U256 a = bench_scalar("scalar-inverse");
  for (auto _ : state) {
    a = crypto::p256::scalar_inv(a);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_P256ScalarInverse);

void BM_SimulatedSign(benchmark::State& state) {
  const auto signer = crypto::SimulatedSigner::derive("bench");
  const Bytes msg = to_bytes("benchmark message");
  for (auto _ : state) {
    benchmark::DoNotOptimize(signer->sign(msg));
  }
}
BENCHMARK(BM_SimulatedSign);

void BM_MerkleAppend(benchmark::State& state) {
  ct::MerkleTree tree;
  const crypto::Digest leaf = crypto::Sha256::hash(to_bytes("leaf"));
  for (auto _ : state) {
    tree.append(leaf);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MerkleAppend);

void BM_MerkleInclusionProof(benchmark::State& state) {
  ct::MerkleTree tree;
  for (int i = 0; i < 4096; ++i) {
    tree.append(crypto::Sha256::hash(to_bytes("leaf" + std::to_string(i))));
  }
  std::uint64_t index = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.inclusion_proof(index % 4096, 4096));
    ++index;
  }
}
BENCHMARK(BM_MerkleInclusionProof);

void BM_CertificateIssuance(benchmark::State& state) {
  sim::CertificateAuthority ca("Bench CA", "Bench Issuing CA",
                               crypto::SignatureScheme::hmac_sha256_simulated);
  ct::LogConfig config;
  config.name = "Bench Log";
  config.operator_name = "Bench";
  config.scheme = crypto::SignatureScheme::hmac_sha256_simulated;
  config.verify_submissions = false;
  config.store_bodies = false;
  ct::CtLog log(config);
  const SimTime when = SimTime::parse("2018-04-01");
  std::uint64_t n = 0;
  for (auto _ : state) {
    sim::IssuanceRequest request;
    request.subject_cn = "bench-" + std::to_string(n++) + ".example.org";
    request.sans = {x509::SanEntry::dns(request.subject_cn)};
    request.not_before = when;
    request.not_after = when + 90 * 86400;
    request.logs = {&log};
    benchmark::DoNotOptimize(ca.issue(request, when));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CertificateIssuance);

void BM_PslSplit(benchmark::State& state) {
  const auto psl = dns::PublicSuffixList::bundled();
  const std::string name = "www.dev.example.co.uk";
  for (auto _ : state) {
    benchmark::DoNotOptimize(psl.split(name));
  }
}
BENCHMARK(BM_PslSplit);

}  // namespace

BENCHMARK_MAIN();

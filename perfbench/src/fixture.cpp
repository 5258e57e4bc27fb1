#include "fixture.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "ctwatch/httpd/ct_handlers.hpp"
#include "inputs.hpp"

namespace perfbench {

namespace ct = ctwatch::ct;
namespace storage = ctwatch::storage;
namespace logsvc = ctwatch::logsvc;

namespace {

constexpr const char* kIssuers[] = {"Let's Encrypt Authority X3", "DigiCert SHA2 Secure Server CA",
                                    "COMODO RSA Domain Validation Secure Server CA",
                                    "Symantec Class 3 Secure Server CA - G4",
                                    "GeoTrust RSA CA 2018"};

storage::LogStoreOptions store_options(const std::string& dir) {
  storage::LogStoreOptions options;
  options.dir = dir;
  return options;
}

std::unique_ptr<storage::LogStore> open_store(const std::string& dir) {
  storage::LogStore::Open opened = storage::LogStore::open(store_options(dir));
  if (opened.store == nullptr) {
    throw std::runtime_error("perfbench: cannot open store " + dir + ": " + opened.detail);
  }
  return std::move(opened.store);
}

}  // namespace

int deployment_workers() {
  return static_cast<int>(std::max(1u, std::min(4u, std::thread::hardware_concurrency())));
}

Deployment wire_deployment(const std::string& work_dir, std::uint64_t seed, std::uint64_t leaves) {
  Deployment deployment;
  deployment.store_dir = work_dir + "/store";
  deployment.seed = seed;
  deployment.leaves = leaves;
  deployment.batch_entries = std::min<std::uint64_t>(4096, std::max<std::uint64_t>(1, leaves / 64));
  deployment.workers = deployment_workers();
  return deployment;
}

LogDeployment::LogDeployment(Deployment deployment) : deployment_(std::move(deployment)) {
  std::filesystem::remove_all(deployment_.store_dir);
  std::filesystem::create_directories(deployment_.store_dir);

  std::int64_t start = now_ns();
  build_store();
  build_s = seconds_between(start, now_ns());

  start = now_ns();
  store_ = open_store(deployment_.store_dir);
  open_s = seconds_between(start, now_ns());

  start = now_ns();
  logsvc::Config config;
  config.name = deployment_.log_name;
  config.storage = store_.get();
  service_ = std::make_unique<logsvc::LogService>(std::move(config));
  adopt_s = seconds_between(start, now_ns());

  const ct::SignedTreeHead sth = service_->get_sth();
  if (sth.tree_size != heads_.back().size || sth.root_hash != heads_.back().root) {
    throw std::runtime_error("perfbench: adopted head differs from the head the store was built to");
  }

  ctwatch::httpd::register_ct_api(router_, *service_);
  ctwatch::httpd::ServerOptions options;
  options.port = deployment_.port;
  options.workers = deployment_.workers;
  server_ = std::make_unique<ctwatch::httpd::Server>(options, router_);
  if (!server_->start()) throw std::runtime_error("perfbench: httpd server failed to start");
}

LogDeployment::~LogDeployment() { stop(); }

void LogDeployment::stop() {
  if (server_ != nullptr) server_->stop();
  if (service_ != nullptr) service_->stop();
}

void LogDeployment::build_store() {
  const std::uint64_t n = deployment_.leaves;
  const std::uint64_t batch = std::max<std::uint64_t>(1, deployment_.batch_entries);
  const auto signer = ctwatch::crypto::make_signer("ct-log/" + deployment_.log_name,
                                                   ctwatch::crypto::SignatureScheme::ecdsa_p256_sha256);
  public_key_ = signer->public_key();
  const EntryFactory factory(deployment_.seed);
  // Entries are stamped across Q1 2018, before the API's submission clock.
  const std::uint64_t era_ms = 1514764800000ULL;
  const std::uint64_t step_ms = std::max<std::uint64_t>(1, (89ULL * 86400 * 1000) / n);

  std::unique_ptr<storage::LogStore> store = open_store(deployment_.store_dir);
  leaves_.assign(n, ctwatch::crypto::Digest{});
  ct::RootAccumulator accumulator;
  const unsigned threads = static_cast<unsigned>(deployment_workers());
  std::vector<storage::DurableEntry> entries;
  for (std::uint64_t first = 0, seq = 1; first < n; first += batch, ++seq) {
    const std::uint64_t count = std::min(batch, n - first);
    entries.assign(count, storage::DurableEntry{});
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (std::uint64_t i = t; i < count; i += threads) {
          const std::uint64_t index = first + i;
          storage::DurableEntry& durable = entries[i];
          Rng rng(deployment_.seed * 0x2545f4914f6cdd1dULL + index);
          durable.index = index;
          durable.timestamp_ms = era_ms + index * step_ms;
          durable.entry = factory.entry(index);
          durable.has_body = true;
          durable.leaf_hash = leaf_hash_of(leaf_input(durable.timestamp_ms, durable.entry));
          for (std::size_t w = 0; w < 4; ++w) {
            const std::uint64_t word = rng.next();
            for (std::size_t b = 0; b < 8; ++b) {
              durable.fingerprint[w * 8 + b] = static_cast<std::uint8_t>(word >> (8 * b));
            }
          }
          durable.issuer_cn = kIssuers[rng.below(std::size(kIssuers))];
          leaves_[index] = durable.leaf_hash;
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    for (const storage::DurableEntry& durable : entries) accumulator.add(durable.leaf_hash);

    storage::BatchCommit commit;
    commit.sth.tree_size = accumulator.size();
    commit.sth.timestamp_ms = entries.back().timestamp_ms;
    commit.sth.root_hash = accumulator.root();
    commit.sth.signature = signer->sign(ct::sth_signing_input(commit.sth));
    commit.seal_seq = seq;
    heads_.push_back(Head{commit.sth.tree_size, commit.sth.root_hash});
    commit.entries = std::move(entries);
    const storage::IoResult io = store->commit_batch(commit);
    if (!io.ok()) throw std::runtime_error("perfbench: commit_batch failed while building");
    entries = std::move(commit.entries);
  }
  if (!store->close().ok()) throw std::runtime_error("perfbench: store close failed");
}

}  // namespace perfbench

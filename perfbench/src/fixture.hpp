// The deployed log both wire workloads run against: a durable store of
// 2^20 certificate-size entries written with LogStore::commit_batch under
// batch heads signed with the service's ECDSA key, closed, reopened, and
// adopted by a default LogService behind the real httpd server.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "ctwatch/crypto/sha256.hpp"
#include "ctwatch/httpd/server.hpp"
#include "ctwatch/logsvc/service.hpp"
#include "ctwatch/storage/log_store.hpp"

namespace perfbench {

/// Deployment settings only; every tuning field stays at its default.
struct Deployment {
  std::string log_name = "perfbench-log";
  std::string store_dir;
  std::uint16_t port = 0;  ///< 0 = ephemeral
  int workers = 4;         ///< httpd event loops, never above nproc
  std::uint64_t seed = 1;
  std::uint64_t leaves = std::uint64_t{1} << 20;
  std::uint64_t batch_entries = 4096;  ///< entries per prebuilt batch
};

/// httpd event loops the wire workloads deploy: min(4, nproc).
int deployment_workers();

/// The wire workloads' deployment: a store under `work_dir`, built from
/// `seed` with `leaves` entries in batches of up to 4096.
Deployment wire_deployment(const std::string& work_dir, std::uint64_t seed, std::uint64_t leaves);

/// A signed batch head recorded while building: every proof the
/// benchmark checks is checked against one of these roots.
struct Head {
  std::uint64_t size = 0;
  ctwatch::crypto::Digest root{};
};

class LogDeployment {
 public:
  /// Builds, reopens and adopts the store, then starts the server.
  /// Throws on any failure.
  explicit LogDeployment(Deployment deployment);
  ~LogDeployment();
  LogDeployment(const LogDeployment&) = delete;
  LogDeployment& operator=(const LogDeployment&) = delete;

  [[nodiscard]] ctwatch::logsvc::LogService& service() { return *service_; }
  [[nodiscard]] const ctwatch::httpd::Router& router() const { return router_; }
  [[nodiscard]] std::uint16_t port() const { return server_->port(); }
  [[nodiscard]] const Deployment& deployment() const { return deployment_; }
  /// Leaf hashes of the prebuilt entries, index order.
  [[nodiscard]] const std::vector<ctwatch::crypto::Digest>& leaves() const { return leaves_; }
  /// Every prebuilt batch head, ascending; back() is the adopted head.
  [[nodiscard]] const std::vector<Head>& heads() const { return heads_; }
  [[nodiscard]] const ctwatch::Bytes& public_key() const { return public_key_; }

  /// Stops the server and the service (the service checkpoints on stop).
  void stop();

  double build_s = 0;
  double open_s = 0;
  double adopt_s = 0;

 private:
  void build_store();

  Deployment deployment_;
  std::vector<ctwatch::crypto::Digest> leaves_;
  std::vector<Head> heads_;
  ctwatch::Bytes public_key_;
  std::unique_ptr<ctwatch::storage::LogStore> store_;
  std::unique_ptr<ctwatch::logsvc::LogService> service_;
  ctwatch::httpd::Router router_;
  std::unique_ptr<ctwatch::httpd::Server> server_;
};

}  // namespace perfbench

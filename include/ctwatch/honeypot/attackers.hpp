// The third-party CT-monitor fleet observed by the honeypot (§6.2).
//
// Behaviour classes the paper distinguishes, each modeled explicitly:
//  * streaming monitors (live-feed followers) reacting within minutes —
//    Google, 1&1, Deteque/Spamhaus, Amazon, OpenDNS, Petersburg Internet;
//  * slower near-streaming actors (DigitalOcean ≈2 h) that also open
//    HTTP(S) connections to the A record afterwards;
//  * batch processors (76 other ASes) that poll logs and query one or two
//    domains, rarely earlier than one to two hours in;
//  * stub resolvers behind Google Public DNS, unmasked by EDNS Client
//    Subnet — including a Quasi-Networks machine that follows up with a
//    30-port scan (and, per the paper, ignores all abuse handling);
//  * nobody contacts the unique IPv6 addresses except the CA validator.
#pragma once

#include "ctwatch/honeypot/honeypot.hpp"

namespace ctwatch::honeypot {

struct MonitorActorSpec {
  std::string name;
  net::Asn asn = 0;
  net::IPv4 address;                  ///< resolver (or stub) address
  enum class Mode : std::uint8_t { streaming, batch } mode = Mode::streaming;
  std::int64_t delay_min = 60;        ///< seconds after the CT log entry
  std::int64_t delay_max = 600;
  double coverage = 1.0;              ///< probability to act per domain
  std::vector<dns::RrType> qtypes = {dns::RrType::A};
  int queries_per_type = 1;           ///< repeat factor
  bool via_google_dns = false;        ///< query through Google DNS (adds ECS)
  bool connects_http = false;
  /// Scanning best practice (informative rDNS name): none of the observed
  /// scanners had one, which is how the paper rules out benevolent
  /// researchers. Settable for what-if actors in tests.
  bool informative_rdns = false;
  std::int64_t http_delay_min = 3300;  ///< seconds after the CT log entry
  std::int64_t http_delay_max = 7500;
  double http_straggler_chance = 0.0;  ///< chance of a days-late connection
  int scan_ports = 0;                  ///< >0: port-scans the honeypot
};

/// The fleet calibrated to Table 4 and the §6.2 narrative.
std::vector<MonitorActorSpec> standard_fleet();

/// Google Public DNS identity (AS 15169) used by `via_google_dns` actors.
dns::RecursiveResolver::Identity google_public_dns();

struct FleetStats {
  std::uint64_t dns_queries = 0;
  std::uint64_t http_connections = 0;
  std::uint64_t port_probes = 0;
};

/// Replays the fleet against every honeypot domain. Queries land in the
/// honeypot's authoritative query log, connections in its packet capture;
/// timestamps carry the ordering (the log itself is not time-sorted).
class AttackerFleet {
 public:
  AttackerFleet(CtHoneypot& honeypot, std::vector<MonitorActorSpec> fleet, Rng rng);

  FleetStats run();

 private:
  void act(const MonitorActorSpec& actor, const HoneypotDomain& domain, FleetStats& stats);

  CtHoneypot* honeypot_;
  std::vector<MonitorActorSpec> fleet_;
  Rng rng_;
  dns::DnsUniverse universe_;
};

}  // namespace ctwatch::honeypot

// The per-layer metrics of the traced run, by module. BENCHMARK.json's
// per_layer list names exactly these.
#include <algorithm>

#include "bench.hpp"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"httpd.parse_us", "us"},
      {"httpd.route_us", "us"},
      {"httpd.handler_self_us", "us"},
      {"httpd.serialize_us", "us"},
      {"httpd.bytes_out_per_req", "bytes"},
      {"httpd.wire_wait_us", "us"},
      {"logsvc.inclusion_us", "us"},
      {"logsvc.consistency_us", "us"},
      {"logsvc.leaf_index_us", "us"},
      {"logsvc.get_entries_us", "us"},
      {"logsvc.get_sth_us", "us"},
      {"logsvc.adopt_s", "s"},
      {"logsvc.proof_p50_us", "us"},
      {"logsvc.entries_p50_us", "us"},
      {"logsvc.submit_us", "us"},
      {"logsvc.queue_wait_us", "us"},
      {"logsvc.seal_us", "us"},
      {"logsvc.batch_size", "count"},
      {"logsvc.overload_ratio", "ratio"},
      {"ct.verify_inclusion_us", "us"},
      {"ct.verify_consistency_us", "us"},
      {"ct.proof_len", "hashes"},
      {"crypto.sct_sign_us", "us"},
      {"crypto.chain_verify_us", "us"},
      {"crypto.sct_verify_us", "us"},
      {"crypto.sth_verify_us", "us"},
      {"x509.decode_us", "us"},
      {"x509.precert_entry_us", "us"},
      {"storage.build_s", "s"},
      {"storage.open_s", "s"},
      {"storage.commit_us", "us"},
      {"storage.fsync_us", "us"},
      {"storage.fsyncs_per_batch", "ratio"},
      {"storage.bytes_per_entry", "bytes"},
      {"storage.checkpoints", "count"},
      {"storage.tile_cache.hit_ratio", "ratio"},
      {"storage.tile_cache.evictions", "count"},
      {"sim.corpus_s", "s"},
      {"sim.timeline_s", "s"},
      {"core.log_evolution_s", "s"},
      {"namepool.bytes", "bytes"},
      {"namepool.intern_hit_ratio", "ratio"},
      {"enumeration.census_s", "s"},
      {"enumeration.funnel_s", "s"},
      {"enumeration.candidates_per_s", "1/s"},
      {"enumeration.confirmed_ratio", "ratio"},
      {"dns.queries_per_candidate", "ratio"},
      {"phishing.scan_s", "s"},
      {"phishing.findings", "count"},
      {"par.idle_ns", "ns"},
      {"par.steals", "count"},
      {"loadgen.lag_p99_ms", "ms"},
      {"loadgen.sent", "count"},
      {"process.cpu_s_per_op", "s"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.replayed", "count"},
  };
  return metrics;
}

void complete_per_layer(RunResult& result) {
  for (const auto& [name, unit] : per_layer_metrics()) {
    const bool absent =
        std::find(result.absent.begin(), result.absent.end(), name) != result.absent.end();
    if (!absent && !result.metrics.contains(name)) result.metrics[name] = Metric{0, unit};
  }
}

}  // namespace perfbench

// monitor_read: auditors and crawlers reading a 2^20-leaf log over the
// wire, closed loop on kAuditors connections. The mix, per block of ten
// requests on a connection (shuffled per block, so every run has the same
// shares):
//   2 x get-sth, 6 x get-entries (256-entry window at a uniform start),
//   1 x get-proof-by-hash (uniform leaf, head tree size),
//   1 x get-sth-consistency (uniform earlier batch head -> head).
// Sorted by cost the classes fill 0-20% (get-sth), 20-80% (get-entries)
// and 80-100% (proofs), so the median sits mid get-entries and the p90
// tail mid proofs, away from every class boundary.
#include <algorithm>
#include <array>
#include <map>
#include <thread>

#include "bench.hpp"
#include "ctwatch/ct/merkle.hpp"
#include "ctwatch/util/encoding.hpp"
#include "fixture.hpp"
#include "replay.hpp"
#include "verify.hpp"
#include "wire.hpp"

namespace perfbench {

namespace {

/// Auditor connections: two, so a get-entries shares the machine with at
/// most one proof of the other auditor.
constexpr int kAuditors = 2;
constexpr std::uint64_t kWindow = 256;
constexpr double kReadTailPercentile = 90;
constexpr std::array<int, 10> kBlock = {kGetSth,     kGetSth,     kGetEntries, kGetEntries,
                                        kGetEntries, kGetEntries, kGetEntries, kGetEntries,
                                        kInclusion,  kConsistency};

const char* op_name(int op) {
  switch (op) {
    case kGetSth: return "get_sth";
    case kGetEntries: return "get_entries";
    case kInclusion: return "inclusion";
    case kConsistency: return "consistency";
    default: return "other";
  }
}

std::string url_encode(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '+') out += "%2B";
    else if (c == '/') out += "%2F";
    else if (c == '=') out += "%3D";
    else out.push_back(c);
  }
  return out;
}

/// One read the generator can send: its class and parameter.
struct ReadOp {
  int op = kGetSth;
  std::uint64_t param = 0;  ///< leaf index, window start, or old head index
};

/// The seeded per-connection request streams.
class ReadStream {
 public:
  ReadStream(const LogDeployment& log, std::uint64_t seed, int connections)
      : log_(log), rng_(seed) {
    for (int c = 0; c < connections; ++c) conn_rngs_.push_back(rng_.fork(static_cast<std::uint64_t>(c) + 1));
    pending_.resize(static_cast<std::size_t>(connections));
  }

  /// True between blocks: the connection's mix so far is exact.
  [[nodiscard]] bool at_block_boundary(int conn) const {
    return pending_[static_cast<std::size_t>(conn)].empty();
  }

  ReadOp next(int conn) {
    auto& queue = pending_[static_cast<std::size_t>(conn)];
    Rng& rng = conn_rngs_[static_cast<std::size_t>(conn)];
    if (queue.empty()) {
      std::array<int, 10> block = kBlock;
      for (std::size_t i = block.size() - 1; i > 0; --i) {
        std::swap(block[i], block[rng.below(i + 1)]);
      }
      queue.assign(block.rbegin(), block.rend());
    }
    ReadOp op;
    op.op = queue.back();
    queue.pop_back();
    const std::uint64_t n = log_.leaves().size();
    switch (op.op) {
      case kGetEntries: op.param = rng.below(n - kWindow + 1); break;
      case kInclusion: op.param = rng.below(n); break;
      case kConsistency: op.param = rng.below(log_.heads().size() - 1); break;
      default: break;
    }
    return op;
  }

  [[nodiscard]] std::string request(const ReadOp& op) const {
    const Head& head = log_.heads().back();
    switch (op.op) {
      case kGetEntries:
        return http_get("/ct/v1/get-entries?start=" + std::to_string(op.param) +
                        "&end=" + std::to_string(op.param + kWindow - 1));
      case kInclusion:
        return http_get("/ct/v1/get-proof-by-hash?hash=" +
                        url_encode(ctwatch::base64_encode(log_.leaves()[op.param])) +
                        "&tree_size=" + std::to_string(head.size));
      case kConsistency:
        return http_get("/ct/v1/get-sth-consistency?first=" +
                        std::to_string(log_.heads()[op.param].size) +
                        "&second=" + std::to_string(head.size));
      default:
        return http_get("/ct/v1/get-sth");
    }
  }

 private:
  const LogDeployment& log_;
  Rng rng_;
  std::vector<Rng> conn_rngs_;
  std::vector<std::vector<int>> pending_;
};

/// Corrupts one response body the way the named test injection asks.
void inject_fault(const std::string& kind, const ReadOp& op, std::string& body, bool& done) {
  if (done) return;
  if (kind == "proof_byte" && op.op == kInclusion) {
    // Flip one byte inside the first base64 audit-path node.
    const std::size_t at = body.find("\"audit_path\":[\"");
    if (at == std::string::npos) return;
    char& c = body[at + 16];
    c = c == 'A' ? 'B' : 'A';
    done = true;
  } else if (kind == "entry_leaf" && op.op == kGetEntries) {
    const std::size_t at = body.find("\"leaf_input\":\"");
    if (at == std::string::npos) return;
    char& c = body[at + 40];
    c = c == 'A' ? 'B' : 'A';
    done = true;
  }
}

struct Verified {
  bool ok = false;
  std::size_t proof_len = 0;
};

Verified verify_read(const LogDeployment& log, const ReadOp& op, int status,
                     const std::string& body, bool wrong_old_root) {
  Verified out;
  if (status != 200) return out;
  const Head& head = log.heads().back();
  switch (op.op) {
    case kGetSth: {
      const auto sth = check_sth(body, log.public_key());
      out.ok = sth && sth->tree_size == head.size && sth->root_hash == head.root;
      break;
    }
    case kGetEntries:
      out.ok = check_entries(body, op.param, kWindow, [&](std::uint64_t i, const Digest& hash) {
        return i < log.leaves().size() && log.leaves()[i] == hash;
      });
      break;
    case kInclusion:
      out.ok = check_inclusion(body, log.leaves()[op.param], op.param, head, &out.proof_len);
      break;
    case kConsistency: {
      Head old_head = log.heads()[op.param];
      // Test injection: check against a different earlier root.
      if (wrong_old_root) old_head.root = log.heads()[(op.param + 1) % (log.heads().size() - 1)].root;
      out.ok = check_consistency(body, old_head, head, &out.proof_len);
      break;
    }
    default:
      break;
  }
  return out;
}

/// The closed-loop wire phase: returns the per-request records.
struct WirePhase {
  std::vector<WireRequest> requests;
  std::vector<WireResult> results;
  std::vector<ReadOp> ops;
  std::int64_t start_ns = 0;
  double cpu_s = 0;
};

WirePhase run_wire(const LogDeployment& log, ReadStream& stream, int connections, double seconds) {
  WireClient client(log.port(), connections);
  // Warm-up outside the window: one cheap read per connection.
  {
    std::vector<WireRequest> warm;
    const std::int64_t now = now_ns();
    for (int c = 0; c < connections; ++c) {
      warm.push_back(WireRequest{now, c, kGetSth, 0, http_get("/ct/v1/get-sth")});
    }
    (void)client.run_open(warm, now + 10'000'000'000LL);
  }
  WirePhase phase;
  const double cpu_start = process_cpu_seconds();
  phase.start_ns = now_ns();
  const std::int64_t stop = phase.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  // Past the window, a connection finishes its current block of ten, so
  // every run measures the mix in exact shares.
  client.run_closed(
      [&](int conn, bool past_stop) -> std::optional<WireRequest> {
        if (past_stop && stream.at_block_boundary(conn)) return std::nullopt;
        const ReadOp op = stream.next(conn);
        phase.ops.push_back(op);
        WireRequest request;
        request.op = op.op;
        request.tag = phase.ops.size() - 1;
        request.bytes = stream.request(op);
        return request;
      },
      stop, stop + 60'000'000'000LL, phase.requests, phase.results);
  phase.cpu_s = process_cpu_seconds() - cpu_start;
  return phase;
}

}  // namespace

RunResult run_monitor_read(const RunOptions& options) {
  RunResult result;
  const int connections = std::min(kAuditors, deployment_workers());
  const ObsReading setup_before = ObsReading::take();
  const std::int64_t setup_start = now_ns();
  LogDeployment log(wire_deployment(options.work_dir, options.seed, options.leaves));
  const double setup_s = seconds_between(setup_start, now_ns());
  const ObsReading setup_after = ObsReading::take();
  ReadStream stream(log, options.seed ^ 0x6d6f6e69746f72ULL, connections);

  const ObsReading obs_before = ObsReading::take();
  WirePhase wire = run_wire(log, stream, connections, options.trace ? options.seconds * 0.4 : options.seconds);
  const ObsReading obs_after = ObsReading::take();

  // Verification, outside the timed window.
  std::map<int, std::vector<double>> class_ms;
  std::vector<double> all_ms;
  std::vector<double> proof_lens;
  bool injected = false;
  std::uint64_t verified = 0;
  std::int64_t last_done = wire.start_ns;
  for (std::size_t i = 0; i < wire.results.size(); ++i) {
    WireResult& r = wire.results[i];
    const ReadOp& op = wire.ops[wire.requests[i].tag];
    ++result.attempted;
    if (!r.complete()) {
      ++result.failed;
      continue;
    }
    inject_fault(options.inject, op, r.body, injected);
    const bool wrong_root = options.inject == "consistency_old_root" && op.op == kConsistency && !injected;
    if (wrong_root) injected = true;
    const Verified v = verify_read(log, op, r.status, r.body, wrong_root);
    if (!v.ok) {
      ++result.failed;
      result.notes.push_back(std::string("verification failed: ") + op_name(op.op) +
                             " status " + std::to_string(r.status));
      continue;
    }
    ++verified;
    last_done = std::max(last_done, r.done_ns);
    all_ms.push_back(r.latency_ms());
    class_ms[op.op].push_back(r.latency_ms());
    if (op.op == kInclusion || op.op == kConsistency) proof_lens.push_back(static_cast<double>(v.proof_len));
  }
  if (result.failed > 0) result.fail(std::to_string(result.failed) + " of " + std::to_string(result.attempted) + " reads failed verification");
  const double window_s = std::max(1e-9, seconds_between(wire.start_ns, last_done));
  const double ops_per_s = static_cast<double>(verified) / window_s;
  const double p50 = percentile(all_ms, 50);
  const double tail = percentile(all_ms, kReadTailPercentile);
  const double error_rate = static_cast<double>(result.failed) / static_cast<double>(std::max<std::uint64_t>(1, result.attempted));

  add(result.detail, "read_ops_per_s", ops_per_s, "1/s");
  add(result.detail, "read_p50_ms", p50, "ms");
  add(result.detail, "read_tail_ms", tail, "ms");
  add(result.detail, "read_tail_percentile", kReadTailPercentile, "pct");
  add(result.detail, "read_samples", static_cast<double>(all_ms.size()), "count");
  add(result.detail, "error_rate", error_rate, "ratio");
  for (const auto& [op, samples] : class_ms) {
    add(result.detail, std::string("p50_ms.") + op_name(op), percentile(samples, 50), "ms");
    add(result.detail, std::string("samples.") + op_name(op), static_cast<double>(samples.size()), "count");
  }

  if (!options.trace) {
    add(result.metrics, "setup_s", setup_s, "s");
    add(result.metrics, "peak_rss_mb", peak_rss_mib(), "MiB");
    add(result.metrics, "throughput_per_s", ops_per_s, "1/s");
    add(result.metrics, "p50_ms", p50, "ms");
    add(result.metrics, "tail_ms", tail, "ms");
    return result;
  }

  // Traced run: replay the same seeded stream in process, untraced then
  // traced, and time the matching layer calls on the same inputs.
  ReadStream replay_stream(log, options.seed ^ 0x6d6f6e69746f72ULL, connections);
  std::vector<ReadOp> replay_ops;
  for (std::size_t i = 0; i < 40; ++i) replay_ops.push_back(replay_stream.next(static_cast<int>(i % static_cast<std::size_t>(connections))));
  InProcessServer server(log.router());
  const double budget_s = options.seconds * 0.5;
  // Each op runs untraced, then traced, so drift between the two passes
  // does not show as tracing overhead.
  Tracer untraced(false);
  Tracer tracer(true);
  ctwatch::logsvc::LogService& service = log.service();
  const Head& head = log.heads().back();
  std::vector<double> inproc_us;
  std::size_t replayed = 0;
  std::int64_t untraced_ns = 0;
  std::int64_t traced_request_ns = 0;
  std::size_t bytes_out = 0;
  const std::int64_t replay_start = now_ns();
  for (std::size_t i = 0; i < replay_ops.size(); ++i) {
    if (seconds_between(replay_start, now_ns()) > budget_s && replayed >= 10) break;
    const ReadOp& op = replay_ops[i];
    const ReplayStep plain = server.run(stream.request(op), untraced, i);
    if (!plain.ok || plain.response.status != 200) result.fail("in-process replay failed");
    if (op.op == kGetEntries) inproc_us.push_back(static_cast<double>(plain.total_ns) / 1e3);
    untraced_ns += plain.total_ns;
    ++replayed;
    const ReplayStep step = server.run(stream.request(op), tracer, i);
    traced_request_ns += step.total_ns;
    bytes_out += step.wire.size();
    // The matching LogService call on the same inputs, then the client's
    // ct::verify_* on its output.
    switch (op.op) {
      case kGetSth: {
        std::int64_t t = now_ns();
        const auto sth = service.get_sth();
        tracer.add_child(step.handler_span, "logsvc.get_sth", now_ns() - t);
        ScopedSpan span(tracer, "crypto.sth_verify", i);
        if (!ctwatch::ct::verify_sth(sth, log.public_key())) result.fail("sth verify failed in replay");
        break;
      }
      case kGetEntries: {
        const std::int64_t t = now_ns();
        const auto entries = service.get_entries(op.param, kWindow);
        tracer.add_child(step.handler_span, "logsvc.get_entries", now_ns() - t);
        if (entries.size() != kWindow) result.fail("get_entries size in replay");
        break;
      }
      case kInclusion: {
        std::int64_t t = now_ns();
        const auto index = service.leaf_index_of(log.leaves()[op.param]);
        const std::int64_t lookup_ns = now_ns() - t;
        tracer.add_child(step.handler_span, "logsvc.leaf_index", lookup_ns);
        t = now_ns();
        const auto path = service.inclusion_proof(index.value_or(0), head.size);
        tracer.add_child(step.handler_span, "logsvc.inclusion", now_ns() - t);
        ScopedSpan span(tracer, "ct.verify_inclusion", i);
        if (!ctwatch::ct::verify_inclusion(log.leaves()[op.param], op.param, head.size, path, head.root)) {
          result.fail("inclusion verify failed in replay");
        }
        break;
      }
      case kConsistency: {
        const Head& old_head = log.heads()[op.param];
        const std::int64_t t = now_ns();
        const auto path = service.consistency_proof(old_head.size, head.size);
        tracer.add_child(step.handler_span, "logsvc.consistency", now_ns() - t);
        ScopedSpan span(tracer, "ct.verify_consistency", i);
        if (!ctwatch::ct::verify_consistency(old_head.size, head.size, old_head.root, head.root, path)) {
          result.fail("consistency verify failed in replay");
        }
        break;
      }
      default:
        break;
    }
  }
  if (!options.trace_path.empty() && !tracer.write_chrome_trace(options.trace_path)) {
    result.fail("cannot write chrome trace " + options.trace_path);
  }

  MetricTable& m = result.metrics;
  const auto p50_of = [&](const char* name) { return percentile(tracer.self_us(name), 50); };
  add(m, "httpd.parse_us", p50_of("httpd.parse"), "us");
  add(m, "httpd.route_us", p50_of("httpd.route"), "us");
  add(m, "httpd.handler_self_us", p50_of("httpd.handler"), "us");
  add(m, "httpd.serialize_us", p50_of("httpd.serialize"), "us");
  add(m, "httpd.bytes_out_per_req", static_cast<double>(bytes_out) / static_cast<double>(std::max<std::size_t>(1, replayed)), "bytes");
  // Same class on both sides: the median get-entries over the wire minus
  // the median get-entries replayed in process.
  add(m, "httpd.wire_wait_us", percentile(class_ms[kGetEntries], 50) * 1e3 - percentile(inproc_us, 50), "us");
  add(m, "logsvc.inclusion_us", p50_of("logsvc.inclusion"), "us");
  add(m, "logsvc.consistency_us", p50_of("logsvc.consistency"), "us");
  add(m, "logsvc.leaf_index_us", p50_of("logsvc.leaf_index"), "us");
  add(m, "logsvc.get_entries_us", p50_of("logsvc.get_entries"), "us");
  add(m, "logsvc.get_sth_us", p50_of("logsvc.get_sth"), "us");
  add(m, "logsvc.adopt_s", log.adopt_s, "s");
  std::vector<double> proof_calls = tracer.self_us("logsvc.inclusion");
  for (const double v : tracer.self_us("logsvc.consistency")) proof_calls.push_back(v);
  add(m, "logsvc.proof_p50_us", percentile(proof_calls, 50), "us");
  add(m, "logsvc.entries_p50_us", p50_of("logsvc.get_entries"), "us");
  add(m, "ct.verify_inclusion_us", p50_of("ct.verify_inclusion"), "us");
  add(m, "ct.verify_consistency_us", p50_of("ct.verify_consistency"), "us");
  double len_sum = 0;
  for (const double v : proof_lens) len_sum += v;
  add(m, "ct.proof_len", proof_lens.empty() ? 0 : len_sum / static_cast<double>(proof_lens.size()), "hashes");
  add(m, "crypto.sth_verify_us", p50_of("crypto.sth_verify"), "us");
  add(m, "storage.build_s", log.build_s, "s");
  add(m, "storage.open_s", log.open_s, "s");
  // This workload writes only while building its store, so its commit
  // and fsync figures are the store's own over set-up.
  for (const char* name : {"storage.commit_us", "storage.fsync_us"}) {
    if (const auto v = ObsReading::dist_mean_delta(setup_before, setup_after, name)) {
      add(m, name, *v, "us");
    } else {
      result.absent.push_back(name);
    }
  }
  const auto hits = ObsReading::counter_delta(obs_before, obs_after, "storage.tile_cache.hits");
  const auto misses = ObsReading::counter_delta(obs_before, obs_after, "storage.tile_cache.misses");
  if (hits && misses) {
    add(m, "storage.tile_cache.hit_ratio", *hits + *misses > 0 ? *hits / (*hits + *misses) : 0, "ratio");
  } else {
    result.absent.push_back("storage.tile_cache.hit_ratio");
  }
  if (const auto evictions = ObsReading::counter_delta(obs_before, obs_after, "storage.tile_cache.evictions")) {
    add(m, "storage.tile_cache.evictions", *evictions, "count");
  } else {
    result.absent.push_back("storage.tile_cache.evictions");
  }
  double lag_p99 = 0;
  (void)generator_kept_up(wire.results, &lag_p99);
  add(m, "loadgen.lag_p99_ms", lag_p99, "ms");
  add(m, "loadgen.sent", static_cast<double>(wire.results.size()), "count");
  add(m, "process.cpu_s_per_op", wire.cpu_s / static_cast<double>(std::max<std::size_t>(1, wire.results.size())), "s");
  add(m, "trace.overhead_ratio",
      untraced_ns > 0 ? static_cast<double>(traced_request_ns) / static_cast<double>(untraced_ns) - 1.0 : 0,
      "ratio");
  add(m, "trace.replayed", static_cast<double>(replayed), "count");
  return result;
}

}  // namespace perfbench

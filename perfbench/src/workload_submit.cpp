// ca_submit: CAs logging certificates over the wire while monitors follow
// the log's tail, open loop with exponential arrivals.
//   warm-up:    an untimed burst on every connection,
//   low, mid:   kLowRate and kMidRate SCT/s, alternating in kRounds
//               rounds that together take 45% + 20% of the run,
//   sweep:      steps of kLadderRatio from kSweepStartRate, 0.5 s each,
//               up until a step breaks the submit-to-SCT limit, is
//               refused, or grows the sequencer queue (down when the first
//               step breaks); capacity is the highest step that held.
// Each latency figure is the median over the rounds of one round's
// percentile. The host's disk and CPU stall in bursts of a few seconds;
// one long phase caught in a burst moved a whole run's p50 by 2x, while
// short rounds spread over the run outvote it. The gated latencies are
// those of the low rate, the load a CA sees normally. The host's speed
// also drifts between runs, and the busier the single sequencer, the
// more queueing amplifies that drift: over the same eight runs on a
// shared 4-vCPU VM, the standard deviation of ln(p50) was 0.06 at
// 100 SCT/s, 0.10 at 200 and 0.17 at 400. So low sits at about 1/8 of
// capacity, not 1/4. The gated throughput is SCTs per CPU-second over
// the mid rounds.
// Two in three submissions are add-pre-chain, one in three add-chain
// (kFinalCertOneIn, inputs.hpp), each a distinct ECDSA-signed certificate
// under an ECDSA issuer generated in set-up. The store keeps its default
// flush policy: the WAL is fsynced once per sealed batch and checkpointed
// every 32 batches. Beside the writes, one connection polls get-sth and
// follows the tail with get-entries at kMonitorRate requests/s.
#include <algorithm>
#include <cmath>
#include <set>
#include <thread>

#include "bench.hpp"
#include "ctwatch/httpd/json.hpp"
#include "fixture.hpp"
#include "inputs.hpp"
#include "replay.hpp"
#include "verify.hpp"
#include "wire.hpp"

namespace perfbench {

namespace {

constexpr double kLowRate = 100;         // SCT/s, about 1/8 of capacity at seed
constexpr double kMidRate = 400;         // SCT/s, about 1/2 of capacity at seed
/// The low and mid phases alternate in this many rounds.
constexpr int kRounds = 6;
constexpr double kSweepStartRate = 700;  // first ladder step, SCT/s
constexpr double kLadderRatio = 1.1;
constexpr double kStepSeconds = 0.5;
constexpr int kMaxSteps = 6;
/// The submit-to-SCT limit a ladder step's tail must stay within.
constexpr double kWriteTailLimitMs = 100;
/// Monitor requests/s, chosen rather than measured (the paper gives no
/// polling rate): half of them get-entries, so at mid one window holds
/// about 400 / 20 = 20 new entries and the monitor stays near the head.
constexpr double kMonitorRate = 40;
/// Untimed warm-up submissions per writer connection.
constexpr std::size_t kWarmupPerWriter = 16;
constexpr std::uint64_t kTailWindow = 256;

struct MonitorOp {
  int op = kGetSth;
  std::uint64_t start = 0;
  std::uint64_t count = 0;
};

/// One phase's schedule and what came back.
struct Phase {
  std::vector<WireRequest> schedule;
  std::vector<WireResult> results;
  std::vector<std::size_t> depth_samples;
};

class SubmitRun {
 public:
  SubmitRun(LogDeployment& log, const std::vector<Submission>& submissions, int connections,
            std::uint64_t seed)
      : log_(log), submissions_(submissions), connections_(connections), rng_(seed),
        writers_(std::max(1, connections - 1)), monitor_next_(log.heads().back().size),
        monitor_known_(log.heads().back().size) {}

  /// Runs one open-loop phase at `rate` SCT/s for `count` submissions.
  Phase run(WireClient& client, double rate, std::size_t count) {
    Phase phase;
    const std::int64_t start = now_ns() + 2'000'000;
    double t = 0;
    for (std::size_t i = 0; i < count && next_submission_ < submissions_.size(); ++i) {
      t += rng_.exponential(1.0 / rate);
      const std::size_t which = next_submission_++;
      const Submission& submission = submissions_[which];
      WireRequest request;
      request.due_ns = start + static_cast<std::int64_t>(t * 1e9);
      request.conn = static_cast<int>(i % static_cast<std::size_t>(writers_));
      request.op = submission.precert ? kAddPreChain : kAddChain;
      request.tag = which;
      request.bytes = http_post(submission.precert ? "/ct/v1/add-pre-chain" : "/ct/v1/add-chain",
                                submission.body);
      phase.schedule.push_back(std::move(request));
    }
    // Monitors: one connection, fixed period, across the same interval.
    if (connections_ > 1) {
      for (double m = 0; m < t; m += 1.0 / kMonitorRate) {
        WireRequest request;
        request.due_ns = start + static_cast<std::int64_t>(m * 1e9);
        request.conn = connections_ - 1;
        request.op = kGetEntries;
        phase.schedule.push_back(std::move(request));
      }
      std::stable_sort(phase.schedule.begin(), phase.schedule.end(),
                       [](const WireRequest& a, const WireRequest& b) { return a.due_ns < b.due_ns; });
    }
    const std::int64_t deadline = start + static_cast<std::int64_t>(t * 1e9) + 20'000'000'000LL;
    phase.results = client.run_open(
        phase.schedule, deadline,
        [&](WireRequest& request) { return render_monitor(request); },
        [&](const WireRequest& request, const WireResult& result) {
          if (request.op == kAddPreChain || request.op == kAddChain) {
            phase.depth_samples.push_back(log_.service().queue_depth());
          } else if (result.status == 200 && monitor_ops_[request.tag].op == kGetSth) {
            const auto doc = ctwatch::httpd::json::parse(result.body);
            if (doc && doc->is_object()) {
              monitor_known_ = std::max(monitor_known_, doc->get_u64("tree_size").value_or(0));
            }
          }
        });
    return phase;
  }

  [[nodiscard]] const std::vector<MonitorOp>& monitor_ops() const { return monitor_ops_; }

 private:
  /// Monitor requests are rendered at send time from what the monitor
  /// has seen: get-entries for the next unseen window, else get-sth.
  std::string render_monitor(WireRequest& request) {
    MonitorOp op;
    if (monitor_ops_.size() % 2 == 0 || monitor_next_ >= monitor_known_) {
      op.op = kGetSth;
    } else {
      op.op = kGetEntries;
      op.start = monitor_next_;
      op.count = std::min(kTailWindow, monitor_known_ - monitor_next_);
      monitor_next_ += op.count;
    }
    request.tag = monitor_ops_.size();
    monitor_ops_.push_back(op);
    if (op.op == kGetSth) return http_get("/ct/v1/get-sth");
    return http_get("/ct/v1/get-entries?start=" + std::to_string(op.start) +
                    "&end=" + std::to_string(op.start + op.count - 1));
  }

  LogDeployment& log_;
  const std::vector<Submission>& submissions_;
  int connections_;
  Rng rng_;
  int writers_;
  std::size_t next_submission_ = 0;
  std::uint64_t monitor_next_;
  std::uint64_t monitor_known_;
  std::vector<MonitorOp> monitor_ops_;
};

bool is_write(const WireRequest& request) {
  return request.op == kAddPreChain || request.op == kAddChain;
}

std::vector<double> write_latencies(const Phase& phase) {
  std::vector<double> out;
  for (std::size_t i = 0; i < phase.schedule.size(); ++i) {
    if (!is_write(phase.schedule[i])) continue;
    const WireResult& r = phase.results[i];
    // A refused or unanswered write misses every latency limit.
    out.push_back(r.complete() && r.status == 200 ? r.latency_ms() : 1e9);
  }
  return out;
}

std::vector<double> read_latencies(const Phase& phase) {
  std::vector<double> out;
  for (std::size_t i = 0; i < phase.schedule.size(); ++i) {
    if (is_write(phase.schedule[i])) continue;
    const WireResult& r = phase.results[i];
    out.push_back(r.complete() && r.status == 200 ? r.latency_ms() : 1e9);
  }
  return out;
}

/// True when the sequencer queue's depth rose across the step: the
/// last quarter of samples sits well above the first quarter.
bool queue_grew(const std::vector<std::size_t>& depths) {
  if (depths.size() < 8) return false;
  const std::size_t quarter = depths.size() / 4;
  double head = 0, tail = 0;
  for (std::size_t i = 0; i < quarter; ++i) {
    head += static_cast<double>(depths[i]);
    tail += static_cast<double>(depths[depths.size() - 1 - i]);
  }
  return tail / static_cast<double>(quarter) > 2 * head / static_cast<double>(quarter) + 16;
}

}  // namespace

RunResult run_ca_submit(const RunOptions& options) {
  RunResult result;
  const int connections = deployment_workers();
  const unsigned threads = static_cast<unsigned>(deployment_workers());
  const double low_s = options.seconds * (options.trace ? 0.0 : 0.45);
  const double mid_s = options.seconds * (options.trace ? 0.4 : 0.2);
  const int rounds = options.trace ? 1 : kRounds;
  const std::size_t low_count = static_cast<std::size_t>(kLowRate * low_s / rounds);
  const std::size_t mid_count = static_cast<std::size_t>(kMidRate * mid_s / rounds);
  std::size_t sweep_up = 0, sweep_down = 0;
  for (int k = 0; k < kMaxSteps && !options.trace; ++k) {
    sweep_up += static_cast<std::size_t>(kSweepStartRate * std::pow(kLadderRatio, k) * kStepSeconds);
    sweep_down += static_cast<std::size_t>(kSweepStartRate * std::pow(kLadderRatio, -k) * kStepSeconds);
  }
  const std::size_t sweep_total = std::max(sweep_up, sweep_down);
  const std::size_t replay_count = options.trace ? 64 : 0;
  const std::size_t warmup_count = kWarmupPerWriter * static_cast<std::size_t>(std::max(1, connections - 1));

  const std::int64_t setup_start = now_ns();
  LogDeployment log(wire_deployment(options.work_dir, options.seed, options.leaves));
  const CertFactory certs(options.seed);
  const std::vector<Submission> submissions = make_submissions(
      certs, 0, warmup_count + rounds * (low_count + mid_count) + sweep_total + 2 * replay_count,
      options.seed, threads);
  const double setup_s = seconds_between(setup_start, now_ns());
  const std::uint64_t base_size = log.heads().back().size;
  const std::uint64_t disk_before = directory_bytes(log.deployment().store_dir);

  SubmitRun runner(log, submissions, connections, options.seed ^ 0x7375626d6974ULL);
  WireClient client(log.port(), connections);
  // Warm-up: its submissions are verified and counted like the rest, but
  // no latency is taken from them.
  Phase warmup = runner.run(client, kLowRate, warmup_count);
  const ObsReading obs_before = ObsReading::take();
  std::vector<Phase> lows, mids;
  double cpu_s = 0;
  for (int r = 0; r < rounds; ++r) {
    if (low_count > 0) lows.push_back(runner.run(client, kLowRate, low_count));
    const double cpu_start = process_cpu_seconds();
    mids.push_back(runner.run(client, kMidRate, mid_count));
    cpu_s += process_cpu_seconds() - cpu_start;
  }
  const ObsReading obs_after = ObsReading::take();

  // Capacity sweep on the fixed ladder: up from kSweepStartRate while
  // steps hold; if the first step breaks, down until one holds.
  std::vector<Phase> steps;
  double capacity = 0;
  const auto try_step = [&](int k) {
    const double rate = kSweepStartRate * std::pow(kLadderRatio, k);
    Phase step = runner.run(client, rate, static_cast<std::size_t>(rate * kStepSeconds));
    const std::vector<double> lat = write_latencies(step);
    const double tail = percentile(lat, tail_percentile_for(lat.size()));
    const bool held = tail <= kWriteTailLimitMs && !queue_grew(step.depth_samples);
    result.notes.push_back("sweep step " + std::to_string(k) + " at " + std::to_string(rate) +
                           " SCT/s: tail " + std::to_string(tail) + " ms " + (held ? "held" : "broke"));
    steps.push_back(std::move(step));
    if (held) capacity = std::max(capacity, rate);
    return held;
  };
  if (!options.trace) {
    int k = 0;
    if (try_step(k)) {
      while (++k < kMaxSteps && try_step(k)) {
      }
      if (k == kMaxSteps) result.notes.push_back("sweep reached the top of the ladder");
    } else {
      while (--k > -kMaxSteps && !try_step(k)) {
      }
    }
  }

  // Traced run: replay distinct submissions in process.
  InProcessServer server(log.router());
  std::vector<double> inproc_us;
  std::int64_t untraced_ns = 0;
  std::int64_t traced_ns = 0;
  std::size_t bytes_out = 0;
  std::uint64_t replayed_ok = 0;
  Tracer tracer(options.trace);
  if (options.trace) {
    // Each pair runs one submission untraced, then a fresh one traced, so
    // drift between the two does not show as tracing overhead.
    Tracer untraced(false);
    const auto log_signer = ctwatch::crypto::make_signer(
        "ct-log/" + log.deployment().log_name, ctwatch::crypto::SignatureScheme::ecdsa_p256_sha256);
    const std::size_t first = submissions.size() - 2 * replay_count;
    for (std::size_t i = 0; i < replay_count; ++i) {
      const Submission& plain = submissions[first + 2 * i];
      const ReplayStep plain_step = server.run(
          http_post(plain.precert ? "/ct/v1/add-pre-chain" : "/ct/v1/add-chain", plain.body), untraced, i);
      if (!plain_step.ok || plain_step.response.status != 200) {
        result.fail("in-process replay submission failed");
        continue;
      }
      ++replayed_ok;
      untraced_ns += plain_step.total_ns;
      inproc_us.push_back(static_cast<double>(plain_step.total_ns) / 1e3);

      const Submission& s = submissions[first + 2 * i + 1];
      const ReplayStep step = server.run(
          http_post(s.precert ? "/ct/v1/add-pre-chain" : "/ct/v1/add-chain", s.body), tracer, i);
      if (!step.ok || step.response.status != 200) {
        result.fail("in-process replay submission failed");
        continue;
      }
      ++replayed_ok;
      traced_ns += step.total_ns;
      bytes_out += step.wire.size();
      // The matching x509, crypto and ct calls on the same inputs.
      std::int64_t t = now_ns();
      const ctwatch::x509::Certificate cert = ctwatch::x509::Certificate::decode(s.leaf_der);
      tracer.add_child(step.handler_span, "x509.decode", now_ns() - t);
      t = now_ns();
      const bool chain_ok = cert.verify(certs.issuer_public_key());
      tracer.add_child(step.handler_span, "crypto.chain_verify", now_ns() - t);
      t = now_ns();
      const ctwatch::ct::SignedEntry entry =
          s.precert ? ctwatch::ct::make_precert_entry(cert, certs.issuer_public_key())
                    : ctwatch::ct::make_x509_entry(cert);
      tracer.add_child(step.handler_span, "x509.precert_entry", now_ns() - t);
      if (!chain_ok || entry.data != s.expected_entry.data) result.fail("replay chain mismatch");
      const auto sct = check_sct(step.response.body, entry, log.public_key(), false);
      ctwatch::ct::SignedCertificateTimestamp probe;
      probe.timestamp_ms = 1522540800000ULL;
      {
        ScopedSpan span(tracer, "crypto.sct_sign", i);
        probe.signature = log_signer->sign(ctwatch::ct::sct_signing_input(probe, entry));
      }
      {
        ScopedSpan span(tracer, "crypto.sct_verify", i);
        if (!sct || !check_sct(step.response.body, entry, log.public_key(), true)) {
          result.fail("replay SCT does not verify");
        }
      }
      const ctwatch::ct::SignedTreeHead sth = log.service().get_sth();
      ScopedSpan span(tracer, "crypto.sth_verify", i);
      if (!ctwatch::ct::verify_sth(sth, log.public_key())) result.fail("replay STH does not verify");
    }
  }

  // Stop: the service seals what is queued and checkpoints.
  log.stop();
  const std::uint64_t disk_after = directory_bytes(log.deployment().store_dir);

  // Verification, outside the timed window. Every SCT is checked under
  // the log key (4 threads), every monitor response against the log.
  std::vector<const Phase*> phases = {&warmup};
  for (const Phase& phase : lows) phases.push_back(&phase);
  for (const Phase& phase : mids) phases.push_back(&phase);
  for (const Phase& step : steps) phases.push_back(&step);
  struct WriteCheck {
    const std::string* body;
    const ctwatch::ct::SignedEntry* entry;
    std::optional<Digest> leaf;
  };
  std::vector<WriteCheck> writes;
  std::uint64_t write_attempts = 0;
  bool injected = false;
  for (const Phase* phase : phases) {
    for (std::size_t i = 0; i < phase->schedule.size(); ++i) {
      const WireRequest& request = phase->schedule[i];
      if (!is_write(request)) continue;
      ++write_attempts;
      const WireResult& r = phase->results[i];
      if (!r.complete() || r.status != 200) continue;
      writes.push_back(WriteCheck{&r.body, &submissions[request.tag].expected_entry, std::nullopt});
    }
  }
  ctwatch::Bytes wrong_key;
  if (options.inject == "sct_key") {
    wrong_key = ctwatch::crypto::make_signer("ct-log/some-other-log",
                                             ctwatch::crypto::SignatureScheme::ecdsa_p256_sha256)
                    ->public_key();
  }
  {
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (std::size_t i = t; i < writes.size(); i += threads) {
          const bool use_wrong = !wrong_key.empty() && i == 0;
          writes[i].leaf = check_sct(*writes[i].body, *writes[i].entry,
                                     use_wrong ? ctwatch::BytesView(wrong_key) : ctwatch::BytesView(log.public_key()), true);
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  std::set<Digest> new_leaves;
  std::uint64_t accepted = 0;
  for (const WriteCheck& w : writes) {
    if (!w.leaf) continue;
    ++accepted;
    new_leaves.insert(*w.leaf);
  }
  result.attempted += write_attempts;
  result.failed += write_attempts - accepted;

  // Monitor reads.
  const auto& monitor_ops = runner.monitor_ops();
  std::uint64_t read_attempts = 0, read_failed = 0;
  for (const Phase* phase : phases) {
    for (std::size_t i = 0; i < phase->schedule.size(); ++i) {
      const WireRequest& request = phase->schedule[i];
      if (is_write(request)) continue;
      ++read_attempts;
      WireResult r = phase->results[i];
      const MonitorOp& op = monitor_ops[request.tag];
      bool ok = r.complete() && r.status == 200;
      if (ok && op.op == kGetSth) {
        const auto sth = check_sth(r.body, log.public_key());
        ok = sth && sth->tree_size >= base_size;
      } else if (ok) {
        if (options.inject == "entry_leaf" && !injected) {
          const std::size_t at = r.body.find("\"leaf_input\":\"");
          if (at != std::string::npos) {
            r.body[at + 40] = r.body[at + 40] == 'A' ? 'B' : 'A';
            injected = true;
          }
        }
        ok = check_entries(r.body, op.start, op.count, [&](std::uint64_t index, const Digest& hash) {
          return index < base_size ? log.leaves()[index] == hash : new_leaves.contains(hash);
        });
      }
      if (!ok) ++read_failed;
    }
  }
  result.attempted += read_attempts;
  result.failed += read_failed;
  if (result.failed > 0) {
    result.fail(std::to_string(result.failed) + " of " + std::to_string(result.attempted) +
                " requests failed or did not verify");
  }
  const std::uint64_t grown = log.service().tree_size() - base_size;
  if (grown != accepted + replayed_ok) {
    result.fail("tree grew by " + std::to_string(grown) + " for " + std::to_string(accepted + replayed_ok) +
                " accepted submissions");
  }
  double lag_p99 = 0;
  std::vector<WireResult> timed;
  for (const std::vector<Phase>* rate : {&lows, &mids}) {
    for (const Phase& phase : *rate) timed.insert(timed.end(), phase.results.begin(), phase.results.end());
  }
  if (!generator_kept_up(timed, &lag_p99)) {
    result.fail("load generator fell behind its schedule (lag p99 " + std::to_string(lag_p99) +
                " ms): the run measured the client, not the log");
  }

  // SCTs per CPU-second of the whole process (server and client) over
  // the mid phase: the log's cost per SCT, free of queueing effects.
  std::uint64_t mid_ok = 0;
  for (const Phase& mid : mids) {
    for (std::size_t i = 0; i < mid.schedule.size(); ++i) {
      mid_ok += is_write(mid.schedule[i]) && mid.results[i].complete() && mid.results[i].status == 200;
    }
  }
  const double sct_per_cpu_s = cpu_s > 0 ? static_cast<double>(mid_ok) / cpu_s : 0;
  // Each write figure is the median over rounds of that round's
  // percentile, the tail percentile fixed from one round's sample count.
  const auto over_rounds = [](const std::vector<Phase>& rate, auto latencies, double* tail_q) {
    std::vector<double> p50s, tails;
    for (const Phase& phase : rate) {
      const std::vector<double> samples = latencies(phase);
      *tail_q = tail_percentile_for(samples.size());
      p50s.push_back(percentile(samples, 50));
      tails.push_back(percentile(samples, *tail_q));
    }
    return std::pair{median(p50s), median(tails)};
  };
  double low_q = 0, mid_q = 0;
  const auto [low_p50, low_tail] = over_rounds(lows, write_latencies, &low_q);
  const auto [mid_p50, mid_tail] = over_rounds(mids, write_latencies, &mid_q);
  // A round holds too few monitor reads for a tail; these pool the rounds.
  std::vector<double> mid_r;
  for (const Phase& mid : mids) {
    const std::vector<double> reads = read_latencies(mid);
    mid_r.insert(mid_r.end(), reads.begin(), reads.end());
  }
  const double read_q = tail_percentile_for(mid_r.size());
  const double disk_per_entry =
      accepted > 0 ? static_cast<double>(disk_after - disk_before) / static_cast<double>(accepted) : 0;
  add(result.detail, "write_p50_ms.low", low_p50, "ms");
  add(result.detail, "write_tail_ms.low", low_tail, "ms");
  add(result.detail, "write_p50_ms.mid", mid_p50, "ms");
  add(result.detail, "write_tail_ms.mid", mid_tail, "ms");
  add(result.detail, "write_tail_percentile.low", low_q, "pct");
  add(result.detail, "write_tail_percentile.mid", mid_q, "pct");
  add(result.detail, "read_p50_ms", percentile(mid_r, 50), "ms");
  add(result.detail, "read_tail_ms", percentile(mid_r, read_q), "ms");
  add(result.detail, "read_tail_percentile", read_q, "pct");
  add(result.detail, "capacity_sct_per_s", capacity, "SCT/s");
  add(result.detail, "sct_per_cpu_s.mid", sct_per_cpu_s, "1/s");
  add(result.detail, "disk_bytes_per_entry", disk_per_entry, "bytes");
  add(result.detail, "error_rate",
      static_cast<double>(result.failed) / static_cast<double>(std::max<std::uint64_t>(1, result.attempted)), "ratio");
  add(result.detail, "loadgen.lag_p99_ms", lag_p99, "ms");
  // The disk's speed in this run's rounds: every SCT waits for one fsync.
  if (const auto fsync_us = ObsReading::dist_mean_delta(obs_before, obs_after, "storage.fsync_us")) {
    add(result.detail, "storage.fsync_us", *fsync_us, "us");
  }
  add(result.detail, "storage.build_s", log.build_s, "s");
  add(result.detail, "storage.open_s", log.open_s, "s");
  add(result.detail, "logsvc.adopt_s", log.adopt_s, "s");

  if (!options.trace) {
    add(result.metrics, "setup_s", setup_s, "s");
    add(result.metrics, "peak_rss_mb", peak_rss_mib(), "MiB");
    add(result.metrics, "throughput_per_s", sct_per_cpu_s, "1/s");
    add(result.metrics, "p50_ms", low_p50, "ms");
    add(result.metrics, "tail_ms", low_tail, "ms");
    return result;
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
  add(m, "httpd.bytes_out_per_req", static_cast<double>(bytes_out) / static_cast<double>(std::max<std::size_t>(1, replay_count)), "bytes");
  add(m, "httpd.wire_wait_us", mid_p50 * 1e3 - percentile(inproc_us, 50), "us");
  add(m, "x509.decode_us", p50_of("x509.decode"), "us");
  add(m, "x509.precert_entry_us", p50_of("x509.precert_entry"), "us");
  add(m, "crypto.chain_verify_us", p50_of("crypto.chain_verify"), "us");
  add(m, "crypto.sct_sign_us", p50_of("crypto.sct_sign"), "us");
  add(m, "crypto.sct_verify_us", p50_of("crypto.sct_verify"), "us");
  add(m, "crypto.sth_verify_us", p50_of("crypto.sth_verify"), "us");
  add(m, "logsvc.adopt_s", log.adopt_s, "s");
  add(m, "storage.build_s", log.build_s, "s");
  add(m, "storage.open_s", log.open_s, "s");
  const auto dist = [&](const char* metric, const char* obs_name, const char* unit) {
    if (const auto v = ObsReading::dist_mean_delta(obs_before, obs_after, obs_name)) {
      add(m, metric, *v, unit);
    } else {
      result.absent.push_back(metric);
    }
  };
  dist("logsvc.submit_us", "logsvc.submit_us", "us");
  dist("logsvc.queue_wait_us", "logsvc.queue_wait_us", "us");
  dist("logsvc.seal_us", "logsvc.seal_us", "us");
  dist("logsvc.batch_size", "logsvc.batch_size", "count");
  dist("storage.commit_us", "storage.commit_us", "us");
  dist("storage.fsync_us", "storage.fsync_us", "us");
  const auto ratio = [&](const char* metric, const char* num, const char* den, const char* unit) {
    const auto a = ObsReading::counter_delta(obs_before, obs_after, num);
    const auto b = ObsReading::counter_delta(obs_before, obs_after, den);
    if (a && b) {
      add(m, metric, *b > 0 ? *a / *b : 0, unit);
    } else {
      result.absent.push_back(metric);
    }
  };
  ratio("logsvc.overload_ratio", "logsvc.overload_rejections", "logsvc.submissions", "ratio");
  ratio("storage.fsyncs_per_batch", "storage.fsyncs", "storage.commits", "ratio");
  ratio("storage.bytes_per_entry", "storage.append_bytes", "storage.committed_entries", "bytes");
  if (const auto checkpoints = ObsReading::counter_delta(obs_before, obs_after, "storage.checkpoints")) {
    add(m, "storage.checkpoints", *checkpoints, "count");
  } else {
    result.absent.push_back("storage.checkpoints");
  }
  add(m, "loadgen.lag_p99_ms", lag_p99, "ms");
  add(m, "loadgen.sent", static_cast<double>(timed.size()), "count");
  add(m, "process.cpu_s_per_op", cpu_s / static_cast<double>(std::max<std::size_t>(1, timed.size())), "s");
  add(m, "trace.overhead_ratio",
      untraced_ns > 0 ? static_cast<double>(traced_ns) / static_cast<double>(untraced_ns) - 1.0 : 0, "ratio");
  add(m, "trace.replayed", static_cast<double>(replay_count), "count");
  return result;
}

}  // namespace perfbench

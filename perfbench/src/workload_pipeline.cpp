// paper_pipeline: the paper's own analysis, batch. One pass is the §2
// timeline (TimelineSimulator on a default-option Ecosystem, at
// kTimelineScale of real volume) followed by the Fig 1 study, the census
// and Table 2, the §4.3 funnel and the Table 3 phishing scan over the
// DomainCorpus built in set-up, at the default par width. Passes repeat
// until the run's seconds are spent; every pass must reproduce the first
// pass's digest of Table 2, the funnel counters and the findings.
#include <algorithm>
#include <cstdio>
#include <set>

#include "bench.hpp"
#include "ctwatch/core/log_evolution.hpp"
#include "ctwatch/crypto/sha256.hpp"
#include "ctwatch/dns/resolver.hpp"
#include "ctwatch/enumeration/census.hpp"
#include "ctwatch/enumeration/enumerator.hpp"
#include "ctwatch/phishing/detector.hpp"
#include "ctwatch/sim/domains.hpp"
#include "ctwatch/sim/ecosystem.hpp"
#include "ctwatch/sim/timeline.hpp"
#include "ctwatch/util/rng.hpp"

namespace perfbench {

namespace {

namespace sim = ctwatch::sim;

/// Input sizes: a pass takes about 1.3 s, so a run holds about ten, and the
/// §2 timeline stage costs about what census + funnel + phishing over
/// the corpus cost together.
constexpr double kTimelineScale = 1.0 / 48000.0;
constexpr std::size_t kRegistrableDomains = 30000;
constexpr int kBuildsPerPass = 2;

struct Pass {
  double total_s = 0;
  double timeline_s = 0;
  double study_s = 0;
  double census_s = 0;
  double funnel_s = 0;
  double phishing_s = 0;
  std::uint64_t issued = 0;
  ctwatch::enumeration::FunnelResult funnel;
  std::size_t findings = 0;
  std::size_t pool_bytes = 0;  ///< the census name pool after the funnel
  std::string digest;
  bool ok = true;
  std::string why;
};

double since(std::int64_t start) { return seconds_between(start, now_ns()); }

std::string hex_digest(const std::string& text) {
  const auto digest = ctwatch::crypto::Sha256::hash(
      ctwatch::BytesView(reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
  char out[17];
  for (int i = 0; i < 8; ++i) std::snprintf(out + 2 * i, 3, "%02x", digest[static_cast<std::size_t>(i)]);
  return out;
}

Pass run_pass(const sim::DomainCorpus& corpus, std::uint64_t seed, Tracer& tracer,
              std::uint64_t pass_id) {
  Pass pass;
  const std::int64_t start = now_ns();
  ScopedSpan pass_span(tracer, "pipeline.pass", pass_id);

  sim::EcosystemOptions eco_options;
  eco_options.seed = seed;
  sim::Ecosystem ecosystem(eco_options);
  std::int64_t t = now_ns();
  {
    ScopedSpan span(tracer, "sim.timeline", pass_id);
    sim::TimelineOptions timeline;
    timeline.scale = kTimelineScale;
    pass.issued = sim::TimelineSimulator(ecosystem, timeline).run().issued;
  }
  pass.timeline_s = since(t);

  t = now_ns();
  ctwatch::core::LogEvolutionReport report;
  {
    ScopedSpan span(tracer, "core.log_evolution", pass_id);
    report = ctwatch::core::LogEvolutionStudy(ecosystem).run();
  }
  pass.study_s = since(t);

  t = now_ns();
  std::string table2;
  ctwatch::enumeration::SubdomainCensus census(corpus.psl());
  {
    ScopedSpan span(tracer, "enumeration.census", pass_id);
    census.add_names(corpus.ct_names());
    for (const auto& [label, count] : census.top_labels(20)) {
      table2 += label + " " + std::to_string(count) + "\n";
    }
  }
  pass.census_s = since(t);

  t = now_ns();
  {
    ScopedSpan span(tracer, "enumeration.funnel", pass_id);
    const ctwatch::dns::RecursiveResolver resolver(
        corpus.universe(), ctwatch::dns::RecursiveResolver::Identity{
                               ctwatch::net::IPv4(192, 0, 2, 53), 64496, "perfbench", false});
    const std::set<std::string> sonar(corpus.sonar_names().begin(), corpus.sonar_names().end());
    ctwatch::enumeration::SubdomainEnumerator enumerator(census, corpus.psl());
    ctwatch::Rng rng(seed ^ 0xabcdef);
    pass.funnel = enumerator.run(corpus.registrable_domains(), sonar, resolver,
                                 corpus.routing_table(), rng, ctwatch::SimTime::parse("2018-04-27"));
  }
  pass.funnel_s = since(t);
  pass.pool_bytes = census.pool().bytes_used();

  t = now_ns();
  std::vector<ctwatch::phishing::Finding> findings;
  {
    ScopedSpan span(tracer, "phishing.scan", pass_id);
    ctwatch::phishing::PhishingDetector detector(corpus.psl(), ctwatch::phishing::standard_rules());
    findings = detector.scan(corpus.ct_names());
  }
  pass.phishing_s = since(t);
  pass.total_s = since(start);
  pass.findings = findings.size();

  // Correctness: the funnel conserves its queries, the timeline issued and
  // the study saw it, and the digest pins every output.
  const auto& f = pass.funnel;
  if (!f.conserves()) {
    pass.ok = false;
    pass.why = "funnel counters do not conserve";
  } else if (pass.issued == 0 || report.top5_share <= 0 || report.top5_share > 1) {
    pass.ok = false;
    pass.why = "timeline or Fig 1 study produced nothing";
  } else if (f.candidates == 0 || table2.empty()) {
    pass.ok = false;
    pass.why = "census or funnel produced nothing";
  }
  std::string rendered = table2;
  for (const std::uint64_t v : {static_cast<std::uint64_t>(f.labels_selected),
                                static_cast<std::uint64_t>(f.label_suffix_pairs), f.candidates,
                                f.unique_candidates, f.test_replies, f.test_unanswered,
                                f.control_replies, f.unroutable_dropped, f.chain_too_long,
                                f.control_rejected, f.confirmed, f.known_in_sonar, f.novel}) {
    rendered += std::to_string(v) + ",";
  }
  for (const auto& finding : findings) {
    rendered += finding.brand + "|" + finding.fqdn + "|" + finding.registrable_domain + "\n";
  }
  pass.digest = hex_digest(rendered) + "/" + std::to_string(pass.issued);
  return pass;
}

}  // namespace

RunResult run_paper_pipeline(const RunOptions& options) {
  RunResult result;
  sim::DomainCorpusOptions corpus_options;
  corpus_options.seed = options.seed;
  corpus_options.registrable_count = kRegistrableDomains;
  // Set-up is the corpus build. It runs kBuildsPerPass times before every
  // pass, so the builds spread over the run as the passes do; setup_s is
  // the median build, and each pass analyses the last one.
  std::vector<double> builds;
  std::unique_ptr<sim::DomainCorpus> corpus;
  const auto build_corpus = [&] {
    for (int i = 0; i < kBuildsPerPass; ++i) {
      corpus.reset();
      const std::int64_t start = now_ns();
      corpus = std::make_unique<sim::DomainCorpus>(corpus_options);
      builds.push_back(since(start));
    }
  };

  Tracer untraced(false);
  std::vector<Pass> passes;
  double measured_s = 0;
  double cpu_s = 0;
  const double budget = options.trace ? options.seconds * 0.5 : options.seconds;
  do {
    build_corpus();
    const double cpu_start = process_cpu_seconds();
    passes.push_back(run_pass(*corpus, options.seed, untraced, passes.size()));
    cpu_s += process_cpu_seconds() - cpu_start;
    measured_s += passes.back().total_s;
  } while (measured_s + passes.back().total_s <= budget);
  const double setup_s = median(builds);
  const double cpu_per_pass = cpu_s / static_cast<double>(passes.size());

  for (const Pass& pass : passes) {
    ++result.attempted;
    if (!pass.ok) {
      ++result.failed;
      result.fail(pass.why);
    } else if (pass.digest != passes.front().digest) {
      ++result.failed;
      result.fail("pass digest " + pass.digest + " differs from " + passes.front().digest);
    }
  }
  result.notes.push_back("digest table2+funnel+findings/issued " + passes.front().digest);
  const Pass& first = passes.front();
  std::vector<double> totals;
  for (const Pass& pass : passes) totals.push_back(pass.total_s);
  const double pipeline_s = median(totals);
  add(result.detail, "pipeline_s", pipeline_s, "s");
  add(result.detail, "passes", static_cast<double>(passes.size()), "count");
  add(result.detail, "phishing.findings", static_cast<double>(first.findings), "count");
  add(result.detail, "funnel.candidates", static_cast<double>(first.funnel.candidates), "count");
  add(result.detail, "funnel.confirmed", static_cast<double>(first.funnel.confirmed), "count");
  add(result.detail, "timeline.issued", static_cast<double>(first.issued), "count");
  add(result.detail, "sim.corpus_s", setup_s, "s");
  const auto stage = [&](const char* name, double Pass::*field) {
    std::vector<double> values;
    for (const Pass& pass : passes) values.push_back(pass.*field);
    add(result.detail, name, median(values), "s");
  };
  stage("stage.timeline_s", &Pass::timeline_s);
  stage("stage.log_evolution_s", &Pass::study_s);
  stage("stage.census_s", &Pass::census_s);
  stage("stage.funnel_s", &Pass::funnel_s);
  stage("stage.phishing_s", &Pass::phishing_s);

  if (!options.trace) {
    add(result.metrics, "setup_s", setup_s, "s");
    add(result.metrics, "peak_rss_mb", peak_rss_mib(), "MiB");
    add(result.metrics, "throughput_per_s",
        static_cast<double>(corpus->ct_names().size()) / pipeline_s, "1/s");
    add(result.metrics, "p50_ms", pipeline_s * 1e3, "ms");
    add(result.metrics, "tail_ms", percentile(totals, 90) * 1e3, "ms");
    return result;
  }

  // Traced run: one more pass with a span per stage.
  Tracer tracer(true);
  const ObsReading traced_before = ObsReading::take();
  const Pass traced = run_pass(*corpus, options.seed, tracer, passes.size());
  const ObsReading traced_after = ObsReading::take();
  if (!traced.ok || traced.digest != first.digest) result.fail("traced pass differs from the untraced passes");
  if (!options.trace_path.empty() && !tracer.write_chrome_trace(options.trace_path)) {
    result.fail("cannot write chrome trace " + options.trace_path);
  }
  MetricTable& m = result.metrics;
  const auto span_s = [&](const char* name) {
    const auto self = tracer.self_us(name);
    return self.empty() ? 0.0 : self.front() / 1e6;
  };
  add(m, "sim.corpus_s", setup_s, "s");
  add(m, "sim.timeline_s", span_s("sim.timeline"), "s");
  add(m, "core.log_evolution_s", span_s("core.log_evolution"), "s");
  add(m, "enumeration.census_s", span_s("enumeration.census"), "s");
  add(m, "enumeration.funnel_s", span_s("enumeration.funnel"), "s");
  add(m, "phishing.scan_s", span_s("phishing.scan"), "s");
  add(m, "phishing.findings", static_cast<double>(traced.findings), "count");
  add(m, "enumeration.candidates_per_s",
      static_cast<double>(traced.funnel.candidates) / std::max(1e-9, span_s("enumeration.funnel")), "1/s");
  add(m, "enumeration.confirmed_ratio",
      traced.funnel.candidates > 0
          ? static_cast<double>(traced.funnel.confirmed) / static_cast<double>(traced.funnel.candidates)
          : 0,
      "ratio");
  if (const auto queries = ObsReading::counter_delta(traced_before, traced_after, "dns.resolver.queries")) {
    add(m, "dns.queries_per_candidate",
        traced.funnel.candidates > 0 ? *queries / static_cast<double>(traced.funnel.candidates) : 0, "ratio");
  } else {
    result.absent.push_back("dns.queries_per_candidate");
  }
  add(m, "namepool.bytes", static_cast<double>(traced.pool_bytes), "bytes");
  const auto hits = ObsReading::counter_delta(traced_before, traced_after, "namepool.name_intern.hits");
  const auto misses = ObsReading::counter_delta(traced_before, traced_after, "namepool.name_intern.misses");
  if (hits && misses) {
    add(m, "namepool.intern_hit_ratio", *hits + *misses > 0 ? *hits / (*hits + *misses) : 0, "ratio");
  } else {
    result.absent.push_back("namepool.intern_hit_ratio");
  }
  for (const char* counter : {"par.idle_ns", "par.steals"}) {
    if (const auto v = ObsReading::counter_delta(traced_before, traced_after, counter)) {
      add(m, counter, *v, counter == std::string("par.idle_ns") ? "ns" : "count");
    } else {
      result.absent.push_back(counter);
    }
  }
  add(m, "process.cpu_s_per_op", cpu_per_pass, "s");
  add(m, "trace.overhead_ratio", traced.total_s / pipeline_s - 1.0, "ratio");
  add(m, "trace.replayed", 1, "count");
  return result;
}

}  // namespace perfbench

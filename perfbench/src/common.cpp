#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "ctwatch/httpd/json.hpp"
#include "ctwatch/obs/metrics.hpp"

namespace perfbench {

double Rng::exponential(double mean) {
  double u = unit();
  if (u <= 0) u = 0x1.0p-53;
  return -std::log(u) * mean;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(samples.size()));
  const std::size_t index =
      rank <= 1 ? 0 : std::min(samples.size() - 1, static_cast<std::size_t>(rank) - 1);
  return samples[index];
}

double tail_percentile_for(std::size_t n) {
  if (n <= 10) return 0;
  return std::floor(100.0 * static_cast<double>(n - 10) / static_cast<double>(n));
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 50); }

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

ObsReading ObsReading::take() {
  ObsReading out;
  const auto doc = ctwatch::httpd::json::parse(ctwatch::obs::Registry::global().render_json());
  if (!doc || !doc->is_object()) return out;
  if (const auto* section = doc->get("counters"); section != nullptr && section->is_object()) {
    for (const auto& [name, value] : section->as_object()) {
      if (value.is_number()) out.counters[name] = value.as_number();
    }
  }
  if (const auto* section = doc->get("histograms"); section != nullptr && section->is_object()) {
    for (const auto& [name, value] : section->as_object()) {
      const auto* count = value.get("count");
      const auto* sum = value.get("sum");
      if (count != nullptr && sum != nullptr && count->is_number() && sum->is_number()) {
        out.dists[name] = Dist{count->as_number(), sum->as_number()};
      }
    }
  }
  return out;
}

std::optional<double> ObsReading::counter_delta(const ObsReading& earlier, const ObsReading& later,
                                                const std::string& name) {
  const auto a = earlier.counters.find(name);
  const auto b = later.counters.find(name);
  if (b == later.counters.end()) return std::nullopt;
  return b->second - (a == earlier.counters.end() ? 0.0 : a->second);
}

std::optional<double> ObsReading::dist_mean_delta(const ObsReading& earlier,
                                                  const ObsReading& later,
                                                  const std::string& name) {
  const auto b = later.dists.find(name);
  if (b == later.dists.end()) return std::nullopt;
  const auto a = earlier.dists.find(name);
  const double count = b->second.count - (a == earlier.dists.end() ? 0 : a->second.count);
  const double sum = b->second.sum - (a == earlier.dists.end() ? 0 : a->second.sum);
  if (count <= 0) return 0.0;
  return sum / count;
}

int Tracer::open(const char* name, std::uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.request = request;
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (id < 0) return;
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  if (span.parent >= 0) {
    spans_[static_cast<std::size_t>(span.parent)].child_ns += span.end_ns - span.start_ns;
  }
}

void Tracer::add_child(int parent, const char* name, std::int64_t duration_ns) {
  if (!enabled_ || parent < 0) return;
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = spans_[static_cast<std::size_t>(parent)].request;
  span.end_ns = now_ns();
  span.start_ns = span.end_ns - duration_ns;
  spans_[static_cast<std::size_t>(parent)].child_ns += duration_ns;
  spans_.push_back(std::move(span));
}

std::vector<double> Tracer::self_us(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name != name) continue;
    const std::int64_t self = std::max<std::int64_t>(0, span.end_ns - span.start_ns - span.child_ns);
    out.push_back(static_cast<double>(self) / 1e3);
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(file, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent\":%d,\"request\":%llu}}",
                 i == 0 ? "" : ",\n", span.name.c_str(),
                 static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3, i, span.parent,
                 static_cast<unsigned long long>(span.request));
  }
  std::fprintf(file, "\n]}\n");
  return std::fclose(file) == 0;
}

}  // namespace perfbench

// Shared helpers for the perfbench program: seeded randomness, clocks,
// percentiles over raw samples, process accounting, the metric table the
// result line is printed from, obs counter deltas, and the in-memory span
// recorder behind the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}
inline double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

/// splitmix64: every benchmark input derives from the run's --seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound) (bound > 0).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Exponential inter-arrival gap with the given mean.
  double exponential(double mean);
  /// A derived generator for an independent input stream.
  Rng fork(std::uint64_t stream) { return Rng(next() ^ (stream * 0xd1b54a32d192ed03ULL)); }

 private:
  std::uint64_t state_;
};

/// Nearest-rank percentile of raw samples (q in [0, 100]); 0 when empty.
double percentile(std::vector<double> samples, double q);
/// The highest whole percentile that leaves at least ten samples above
/// it for a sample count of `n`. Workloads
/// fix their tail percentile from their fixed sample count with this.
double tail_percentile_for(std::size_t n);
double median(std::vector<double> samples);

/// Peak resident set (VmHWM) in MiB.
double peak_rss_mib();
/// User + system CPU seconds of this process so far.
double process_cpu_seconds();
/// Total size of the regular files under `dir`, recursively.
std::uint64_t directory_bytes(const std::string& dir);

/// One named metric with its unit, as printed on the result line.
struct Metric {
  double value = 0;
  std::string unit;
};
using MetricTable = std::map<std::string, Metric>;
inline void add(MetricTable& table, const std::string& name, double value, const char* unit) {
  table[name] = Metric{value, unit};
}

/// Counter and histogram readings of the program's obs registry, parsed
/// from its JSON rendering, so a reading never creates a metric. A name
/// the program does not export is absent from the maps.
struct ObsReading {
  std::map<std::string, double> counters;
  struct Dist {
    double count = 0;
    double sum = 0;
  };
  std::map<std::string, Dist> dists;

  static ObsReading take();
  /// later - earlier for a counter; nullopt when either side lacks it.
  static std::optional<double> counter_delta(const ObsReading& earlier, const ObsReading& later,
                                             const std::string& name);
  /// Mean of the observations recorded between the two readings.
  static std::optional<double> dist_mean_delta(const ObsReading& earlier,
                                               const ObsReading& later, const std::string& name);
};

/// In-memory span recorder for the traced run. Single-threaded: spans
/// nest through an explicit stack, and each carries the request id of
/// the replayed request it belongs to.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  ///< index of the parent span, -1 for a root
    std::uint64_t request = 0;
    std::int64_t child_ns = 0;  ///< total duration of direct children
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span under the innermost open one; returns its id (-1 off).
  int open(const char* name, std::uint64_t request);
  void close(int id);
  /// Records an already-timed child of `parent` (for a call timed apart
  /// from the span it belongs to, such as the matching LogService call).
  void add_child(int parent, const char* name, std::int64_t duration_ns);

  /// Self times (duration minus direct children) of the spans named
  /// `name`, in microseconds.
  [[nodiscard]] std::vector<double> self_us(const std::string& name) const;
  /// Writes the spans as a chrome trace ("X" events, microseconds).
  bool write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span over Tracer::open/close.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t request)
      : tracer_(tracer), id_(tracer.open(name, request)) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench

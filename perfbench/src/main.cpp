// perfbench: runs one workload against ctwatch as a deployment configures
// it and prints every metric by name with its unit. The last line of
// stdout is the result:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// Exit status is 0 only for a correct run.
//
//   perfbench --workload <monitor_read|ca_submit|paper_pipeline> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir> [--trace-out <file>]
//             [--commit <id>]
#include <sys/statfs.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_SANITIZED
#define PERFBENCH_SANITIZED 0
#endif

namespace {

using perfbench::MetricTable;

bool optimized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || !defined(__OPTIMIZE__)
  return false;
#else
  return PERFBENCH_SANITIZED == 0;
#endif
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string filesystem_of(const std::string& dir) {
  struct statfs info {};
  if (statfs(dir.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx", static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

std::string render_metrics(const MetricTable& table) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : table) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", metric.value);
    out += (first ? "" : ", ") + json_string(name) + ": {\"value\": " + value +
           ", \"unit\": " + json_string(metric.unit) + "}";
    first = false;
  }
  return out + "}";
}

int usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || options.work_dir.empty() || options.seconds <= 0) {
    return usage("--workload, --work-dir and a positive --seconds are required");
  }
  if (!optimized_build()) {
    // Timings from unoptimized or sanitizer builds must never enter the
    // trajectory next to optimized ones.
    return usage("refusing to measure a Debug/unoptimized or sanitizer build");
  }
  std::filesystem::create_directories(options.work_dir);

  std::printf(
      "perfbench stamp {\"commit\": %s, \"build_type\": %s, \"compiler\": %s, \"nproc\": %u, "
      "\"cpu\": %s, \"store_fs\": %s, \"flush_policy\": %s, \"workload\": %s, \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}\n",
      json_string(commit).c_str(), json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(__VERSION__).c_str(), std::thread::hardware_concurrency(),
      json_string(cpu_model()).c_str(), json_string(filesystem_of(options.work_dir)).c_str(),
      json_string("fsync per sealed batch (WAL), checkpoint every 32 batches: store defaults")
          .c_str(),
      json_string(options.workload).c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0);
  std::fflush(stdout);

  perfbench::RunResult result;
  try {
    if (options.workload == "monitor_read") {
      result = perfbench::run_monitor_read(options);
    } else if (options.workload == "ca_submit") {
      result = perfbench::run_ca_submit(options);
    } else if (options.workload == "paper_pipeline") {
      result = perfbench::run_paper_pipeline(options);
    } else {
      return usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(), e.what());
    return 1;
  }
  if (options.trace) perfbench::complete_per_layer(result);
  for (const std::string& note : result.notes) std::printf("perfbench note %s\n", note.c_str());
  for (const std::string& name : result.absent) {
    std::printf("perfbench note absent: %s (counter not exported)\n", name.c_str());
  }
  std::printf("perfbench detail %s\n", render_metrics(result.detail).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              render_metrics(result.metrics).c_str());
  std::fflush(stdout);
  return perfbench::exit_status(result);
}

// perfbench's own tests. Run: python3 perfbench/run.py --selftest
// (or perfbench_selftest [work-dir]; the default is .bench_run/selftest).
//
//  * every verification gate can fail: a flipped proof byte, a consistency
//    proof checked against the wrong old root, an SCT under the wrong key,
//    and a get-entries leaf_input that does not hash to its leaf each fail
//    the run (failed > 0, error_rate > 0, nonzero exit status);
//  * the open-loop generator charges a server stall to every request
//    scheduled behind it, and a run whose generator fell behind is invalid;
//  * percentiles come from raw samples;
//  * the benchmark's sources name none of the symbols the roadmap deletes.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common.hpp"
#include "wire.hpp"

namespace {

int failures = 0;
std::string work_root = ".bench_run/selftest";

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

perfbench::RunOptions small_run(const std::string& workload, const std::string& inject) {
  perfbench::RunOptions options;
  options.workload = workload;
  options.seed = 7;
  options.seconds = 1;
  options.leaves = 4096;
  options.inject = inject;
  options.work_dir = work_root + "/" + workload;
  return options;
}

void gate_fails(const std::string& workload, const std::string& inject) {
  const perfbench::RunOptions options = small_run(workload, inject);
  perfbench::RunResult result = workload == "monitor_read" ? perfbench::run_monitor_read(options)
                                                            : perfbench::run_ca_submit(options);
  std::filesystem::remove_all(options.work_dir);
  const std::string name = workload + (inject.empty() ? " (clean)" : " rejects " + inject);
  if (inject.empty()) {
    check(result.correct && result.failed == 0 && perfbench::exit_status(result) == 0, name);
    return;
  }
  const auto rate = result.detail.find("error_rate");
  check(!result.correct && result.failed > 0 && rate != result.detail.end() &&
            rate->second.value > 0 && perfbench::exit_status(result) != 0,
        name);
}

/// A server that answers every request with "ok" and stalls once, before
/// answering request number `stall_at`, for `stall_ms`.
class StallingServer {
 public:
  StallingServer(int stall_at, int stall_ms) : stall_at_(stall_at), stall_ms_(stall_ms) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::listen(listen_fd_, 4);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { serve(); });
  }
  ~StallingServer() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    thread_.join();
    ::close(listen_fd_);
  }
  StallingServer(const StallingServer&) = delete;
  StallingServer& operator=(const StallingServer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  std::atomic<std::int64_t> stall_started_ns{0};

 private:
  void serve() {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    std::string in;
    char buffer[4096];
    int answered = 0;
    for (;;) {
      const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      if (n <= 0) break;
      in.append(buffer, static_cast<std::size_t>(n));
      std::size_t end;
      while ((end = in.find("\r\n\r\n")) != std::string::npos) {
        in.erase(0, end + 4);
        if (++answered == stall_at_) {
          stall_started_ns = perfbench::now_ns();
          std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
        }
        const std::string reply = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
        if (::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL) < 0) break;
      }
    }
    ::close(fd);
  }

  int stall_at_;
  int stall_ms_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

void open_loop_charges_stalls() {
  constexpr int kStallAt = 20;
  constexpr int kStallMs = 200;
  StallingServer server(kStallAt, kStallMs);
  perfbench::WireClient client(server.port(), 1);
  std::vector<perfbench::WireRequest> schedule;
  const std::int64_t start = perfbench::now_ns() + 5'000'000;
  for (int i = 0; i < 150; ++i) {
    schedule.push_back(perfbench::WireRequest{start + i * 2'000'000LL, 0, 0, 0,
                                              perfbench::http_get("/x")});
  }
  const auto results = client.run_open(schedule, start + 5'000'000'000LL);
  const std::int64_t stall_end = server.stall_started_ns.load() + kStallMs * 1'000'000LL;
  bool all_complete = true;
  bool charged = true;
  int behind = 0;
  for (const auto& r : results) {
    all_complete = all_complete && r.complete() && r.status == 200;
    if (r.due_ns >= server.stall_started_ns.load() && r.due_ns < stall_end - 10'000'000) {
      ++behind;
      // Timed from its scheduled send, a request due during the stall
      // waits at least until the stall ends.
      charged = charged && r.done_ns >= stall_end - 1'000'000;
      charged = charged && r.latency_ms() >= static_cast<double>(stall_end - r.due_ns) / 1e6 - 1.0;
    }
  }
  double lag = 0;
  const bool kept_up = perfbench::generator_kept_up(results, &lag);
  check(all_complete, "open loop: every request answered");
  check(behind >= 80 && charged, "open loop: the stall is charged to the " +
                                     std::to_string(behind) + " requests scheduled behind it");
  check(kept_up, "open loop: the generator kept sending through the stall (lag p99 " +
                     std::to_string(lag) + " ms)");
}

void lagging_generator_is_invalid() {
  std::vector<perfbench::WireResult> results(200);
  for (std::size_t i = 0; i < results.size(); ++i) {
    results[i].due_ns = static_cast<std::int64_t>(i) * 1'000'000;
    results[i].sent_ns = results[i].due_ns + 50'000;
    results[i].done_ns = results[i].sent_ns + 1'000'000;
  }
  double lag = 0;
  check(perfbench::generator_kept_up(results, &lag), "lag: an on-schedule generator is valid");
  for (std::size_t i = 190; i < results.size(); ++i) results[i].sent_ns += 40'000'000;
  check(!perfbench::generator_kept_up(results, &lag),
        "lag: a generator 40 ms behind on 5% of sends is flagged invalid");
}

void percentiles_from_raw_samples() {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);
  check(perfbench::percentile(samples, 50) == 50 && perfbench::percentile(samples, 90) == 90 &&
            perfbench::percentile(samples, 100) == 100 && perfbench::percentile(samples, 0) == 1,
        "percentile: nearest rank over raw samples");
  check(perfbench::tail_percentile_for(100) == 90 && perfbench::tail_percentile_for(1000) == 99 &&
            perfbench::tail_percentile_for(750) == 98,
        "percentile: the tail leaves at least ten samples beyond it");
}

void sources_name_no_deleted_symbols() {
  // Spelled in pieces so this file does not name them either.
  const std::vector<std::string> banned = {
      std::string("paged") + "_reads",          std::string("Ct") + "Log",
      std::string("merkle_inclusion") + "_path", std::string("merkle_consistency") + "_path",
      std::string("merkle_root") + "_of",       std::string("obs::") + "Histogram"};
  int scanned = 0;
  std::string hits;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(PERFBENCH_SOURCE_DIR)) {
    const std::string ext = entry.path().extension().string();
    const std::string name = entry.path().filename().string();
    if (!entry.is_regular_file() ||
        (ext != ".cpp" && ext != ".hpp" && ext != ".py" && name != "CMakeLists.txt")) {
      continue;
    }
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    ++scanned;
    for (const std::string& symbol : banned) {
      if (text.str().find(symbol) != std::string::npos) hits += " " + name + ":" + symbol;
    }
  }
  check(scanned >= 10 && hits.empty(),
        "sources: " + std::to_string(scanned) + " files name no deleted symbol" + hits);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) work_root = argv[1];
  percentiles_from_raw_samples();
  sources_name_no_deleted_symbols();
  lagging_generator_is_invalid();
  open_loop_charges_stalls();
  gate_fails("monitor_read", "");
  gate_fails("monitor_read", "proof_byte");
  gate_fails("monitor_read", "consistency_old_root");
  gate_fails("monitor_read", "entry_leaf");
  gate_fails("ca_submit", "");
  gate_fails("ca_submit", "sct_key");
  gate_fails("ca_submit", "entry_leaf");
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}

// The load generator: one client thread driving a few keep-alive HTTP/1.1
// connections with ppoll. Open loop sends each request at its scheduled
// time whether or not earlier replies came back (pipelining on its
// connection), and times it from that scheduled time, so a server stall
// is charged to every request scheduled behind it. Closed loop keeps one
// request in flight per connection; the next is due when the previous
// reply lands.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct WireRequest {
  std::int64_t due_ns = 0;  ///< scheduled send time (open loop)
  int conn = 0;             ///< connection index
  int op = 0;               ///< workload-defined operation class
  std::uint64_t tag = 0;    ///< workload-defined parameter index
  std::string bytes;        ///< serialized request; empty = render at send time
};

struct WireResult {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;  ///< when the generator handed it to the socket
  std::int64_t done_ns = 0;  ///< 0 = no complete response
  int status = 0;
  std::string body;
  [[nodiscard]] bool complete() const { return done_ns != 0; }
  [[nodiscard]] double latency_ms() const { return static_cast<double>(done_ns - due_ns) / 1e6; }
  [[nodiscard]] double lag_ms() const { return static_cast<double>(sent_ns - due_ns) / 1e6; }
};

std::string http_get(const std::string& target);
std::string http_post(const std::string& path, const std::string& body);

class WireClient {
 public:
  /// Connects `connections` keep-alive sockets to 127.0.0.1:port; throws
  /// when a connection fails.
  WireClient(std::uint16_t port, int connections);
  ~WireClient();
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Builds the bytes of a request whose `bytes` is empty, at send time.
  using Render = std::function<std::string(WireRequest&)>;
  /// Sees every completed response, in completion order.
  using OnResponse = std::function<void(const WireRequest&, const WireResult&)>;

  /// Open loop over `schedule` (sorted by due_ns). Results are indexed
  /// like the schedule. Requests still unanswered at `deadline_ns` stay
  /// incomplete.
  std::vector<WireResult> run_open(std::vector<WireRequest>& schedule, std::int64_t deadline_ns,
                                   const Render& render = {}, const OnResponse& on_response = {});

  /// Closed loop: each idle connection asks `next(conn, past_stop)` for
  /// its next request, `past_stop` once `stop_ns` has passed; nullopt
  /// retires the connection. Outstanding requests drain until
  /// `deadline_ns`. Requests and results are appended in send order.
  using Next = std::function<std::optional<WireRequest>(int conn, bool past_stop)>;
  void run_closed(const Next& next, std::int64_t stop_ns, std::int64_t deadline_ns,
                  std::vector<WireRequest>& requests, std::vector<WireResult>& results);

 private:
  struct Conn;
  void pump(std::vector<WireRequest>& requests, std::vector<WireResult>& results,
            std::int64_t wait_until_ns, const OnResponse& on_response);

  std::vector<Conn> conns_;
};

/// A run whose generator fell behind its schedule measured the client,
/// not the server: the lag p99 must stay under this many milliseconds.
constexpr double kMaxLagP99Ms = 20.0;
/// True when the generator kept to its schedule (see kMaxLagP99Ms).
bool generator_kept_up(const std::vector<WireResult>& results, double* lag_p99_ms);

}  // namespace perfbench
